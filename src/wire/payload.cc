#include "wire/payload.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

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

namespace internal {
namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial: t[0] is the
// byte-at-a-time table, t[k][b] the CRC of byte b followed by k zero bytes.
struct Crc32cTables {
  uint32_t t[8][256];
};

constexpr uint32_t kCastagnoliReflected = 0x82F63B78u;

const Crc32cTables& Tables() {
  static const Crc32cTables tables = [] {
    Crc32cTables tb{};
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t c = b;
      for (int k = 0; k < 8; ++k) {
        c = (c >> 1) ^ (kCastagnoliReflected & (0u - (c & 1u)));
      }
      tb.t[0][b] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        const uint32_t prev = tb.t[k - 1][b];
        tb.t[k][b] = (prev >> 8) ^ tb.t[0][prev & 0xffu];
      }
    }
    return tb;
  }();
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t size) {
  const auto& t = Tables().t;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                        const uint8_t* data,
                                                        size_t size) {
  uint64_t c = crc;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; size > 0; ++data, --size) c32 = _mm_crc32_u8(c32, *data);
  return c32;
}
#endif

}  // namespace internal

namespace {

using Crc32cFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

// The CRC32C update for this CPU, picked once.
Crc32cFn Crc32cUpdate() {
  static const Crc32cFn fn = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2")) return &internal::Crc32cSse42;
#endif
    return &internal::Crc32cPortable;
  }();
  return fn;
}

// Standard CRC32C finalisation plus the presence bit: the result is never
// 0, so every stamped frame is verified (0 means "unchecked" on the wire).
uint64_t Stamp(uint32_t crc) { return (uint64_t{1} << 32) | ~crc; }

}  // namespace

uint64_t PayloadChecksum(const std::string& data) {
  return Stamp(Crc32cUpdate()(
      ~0u, reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

uint64_t PayloadChecksum(const PayloadRef& p) {
  const Crc32cFn update = Crc32cUpdate();
  uint32_t crc = update(
      ~0u, reinterpret_cast<const uint8_t*>(p.head().data()), p.head().size());
  if (p.is_view()) crc = update(crc, p.view_data(), p.view_size());
  return Stamp(crc);
}

}  // namespace tfhpc::wire
