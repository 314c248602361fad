#include "wire/payload.h"

#include <cstring>

#include "core/logging.h"

namespace tfhpc::wire {

PayloadRef PayloadRef::View(std::string head, std::shared_ptr<Buffer> buffer,
                            size_t offset, size_t len) {
  PayloadRef p;
  p.head_ = std::move(head);
  if (len == 0) return p;  // empty view degenerates to inline
  TFHPC_CHECK(buffer != nullptr && offset + len <= buffer->size())
      << "payload view [" << offset << ", " << offset + len
      << ") out of buffer bounds";
  p.buffer_ = std::move(buffer);
  p.offset_ = offset;
  p.len_ = len;
  return p;
}

std::string PayloadRef::Flatten() const {
  std::string out;
  out.reserve(size());
  out.append(head_);
  if (is_view()) {
    out.append(reinterpret_cast<const char*>(view_data()), len_);
  }
  return out;
}

void PayloadRef::Detach() {
  if (!is_view()) return;
  head_ = Flatten();
  buffer_.reset();
  offset_ = len_ = 0;
}

void PayloadRef::CorruptByteForTest(size_t index, uint8_t mask) {
  Detach();
  if (index < head_.size()) {
    head_[index] = static_cast<char>(head_[index] ^ mask);
  }
}

bool PayloadRef::operator==(const PayloadRef& o) const {
  if (size() != o.size()) return false;
  std::string lhs_scratch, rhs_scratch;
  const std::string& a = Contiguous(&lhs_scratch);
  const std::string& b = o.Contiguous(&rhs_scratch);
  return a == b;
}

namespace {

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* d = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= d[i];
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace

uint64_t PayloadChecksum(const std::string& data) {
  return Fnv1a(kFnvOffsetBasis, data.data(), data.size());
}

uint64_t PayloadChecksum(const PayloadRef& p) {
  const uint64_t h = Fnv1a(kFnvOffsetBasis, p.head().data(), p.head().size());
  return p.is_view() ? Fnv1a(h, p.view_data(), p.view_size()) : h;
}

}  // namespace tfhpc::wire
