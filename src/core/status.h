// Error model for tfhpc: a lightweight Status (code + message) plus a
// Result<T> carrier, mirroring the TensorFlow runtime's tensorflow::Status.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "core/logging.h"

namespace tfhpc {

enum class Code {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kCancelled,
  kDeadlineExceeded,
  kUnavailable,
};

const char* CodeName(Code code);

class Status {
 public:
  Status() = default;  // OK
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Code code_ = Code::kOk;
  std::string message_;
};

Status InvalidArgument(std::string msg);
Status NotFound(std::string msg);
Status AlreadyExists(std::string msg);
Status FailedPrecondition(std::string msg);
Status OutOfRange(std::string msg);
Status Unimplemented(std::string msg);
Status Internal(std::string msg);
Status ResourceExhausted(std::string msg);
Status Cancelled(std::string msg);
// Transient resource exhaustion: the resource (pool capacity, process
// memory budget) may free up as concurrent work completes, so retrying
// after backoff is worthwhile. Encoded as a "[transient] " message prefix
// (the same message-embedded-metadata convention as the admission layer's
// "retry_after_ms=N") so the taxonomy survives Status copies; the RPC layer
// additionally carries it as an explicit envelope bit. Plain
// ResourceExhausted is *permanent*: the request itself exceeds a fixed
// budget (per-step limit, max GraphDef size) and an identical retry must
// fail again.
Status TransientResourceExhausted(std::string msg);
bool IsTransientResourceExhausted(const Status& s);
// `s` with the transient tag removed: the same exhaustion reported as
// permanent, for a layer where a retry would repeat work already done.
// Any other status is returned unchanged.
Status PermanentResourceExhausted(const Status& s);
Status DeadlineExceeded(std::string msg);
Status Unavailable(std::string msg);

// Result<T>: a value or an error Status. C++23 std::expected is not available
// under the C++20 requirement, so this is the project-local equivalent.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    TFHPC_CHECK(!std::get<Status>(v_).ok()) << "Result built from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }
  T& value() & {
    TFHPC_CHECK(ok()) << status().ToString();
    return std::get<T>(v_);
  }
  const T& value() const& {
    TFHPC_CHECK(ok()) << status().ToString();
    return std::get<T>(v_);
  }
  T&& value() && {
    TFHPC_CHECK(ok()) << status().ToString();
    return std::get<T>(std::move(v_));
  }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace tfhpc

// Early-return plumbing macros.
#define TFHPC_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::tfhpc::Status _st = (expr);                \
    if (!_st.ok()) return _st;                   \
  } while (0)

#define TFHPC_ASSIGN_OR_RETURN(lhs, expr)        \
  TFHPC_ASSIGN_OR_RETURN_IMPL(                   \
      TFHPC_CONCAT_(_res, __LINE__), lhs, expr)
#define TFHPC_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()
#define TFHPC_CONCAT_INNER_(a, b) a##b
#define TFHPC_CONCAT_(a, b) TFHPC_CONCAT_INNER_(a, b)
