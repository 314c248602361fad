#include "core/status.h"

namespace tfhpc {

const char* CodeName(Code code) {
  switch (code) {
    case Code::kOk: return "OK";
    case Code::kInvalidArgument: return "INVALID_ARGUMENT";
    case Code::kNotFound: return "NOT_FOUND";
    case Code::kAlreadyExists: return "ALREADY_EXISTS";
    case Code::kFailedPrecondition: return "FAILED_PRECONDITION";
    case Code::kOutOfRange: return "OUT_OF_RANGE";
    case Code::kUnimplemented: return "UNIMPLEMENTED";
    case Code::kInternal: return "INTERNAL";
    case Code::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case Code::kCancelled: return "CANCELLED";
    case Code::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Code::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  return std::string(CodeName(code_)) + ": " + message_;
}

Status InvalidArgument(std::string msg) {
  return Status(Code::kInvalidArgument, std::move(msg));
}
Status NotFound(std::string msg) { return Status(Code::kNotFound, std::move(msg)); }
Status AlreadyExists(std::string msg) {
  return Status(Code::kAlreadyExists, std::move(msg));
}
Status FailedPrecondition(std::string msg) {
  return Status(Code::kFailedPrecondition, std::move(msg));
}
Status OutOfRange(std::string msg) {
  return Status(Code::kOutOfRange, std::move(msg));
}
Status Unimplemented(std::string msg) {
  return Status(Code::kUnimplemented, std::move(msg));
}
Status Internal(std::string msg) { return Status(Code::kInternal, std::move(msg)); }
Status ResourceExhausted(std::string msg) {
  return Status(Code::kResourceExhausted, std::move(msg));
}
namespace {
constexpr char kTransientTag[] = "[transient] ";
}  // namespace

Status TransientResourceExhausted(std::string msg) {
  if (msg.find(kTransientTag) != std::string::npos) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  return Status(Code::kResourceExhausted, kTransientTag + std::move(msg));
}
bool IsTransientResourceExhausted(const Status& s) {
  // Contains, not prefix: layers between the allocator and the caller wrap
  // the message with context ("node 'X' (op Y): ...", "addr/method: ...")
  // and the taxonomy must survive that wrapping.
  return s.code() == Code::kResourceExhausted &&
         s.message().find(kTransientTag) != std::string::npos;
}
Status PermanentResourceExhausted(const Status& s) {
  if (!IsTransientResourceExhausted(s)) return s;
  std::string msg = s.message();
  msg.erase(msg.find(kTransientTag), sizeof(kTransientTag) - 1);
  return Status(Code::kResourceExhausted, std::move(msg));
}

Status Cancelled(std::string msg) {
  return Status(Code::kCancelled, std::move(msg));
}
Status DeadlineExceeded(std::string msg) {
  return Status(Code::kDeadlineExceeded, std::move(msg));
}
Status Unavailable(std::string msg) {
  return Status(Code::kUnavailable, std::move(msg));
}

}  // namespace tfhpc
