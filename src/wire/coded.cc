#include "wire/coded.h"

namespace tfhpc::wire {

void CodedOutput::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    out_->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_->push_back(static_cast<char>(v));
}

void CodedOutput::WriteFixed32(uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);  // little-endian hosts only (x86/arm64)
  out_->append(buf, 4);
}

void CodedOutput::WriteFixed64(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_->append(buf, 8);
}

void CodedOutput::WriteUInt64(uint32_t field, uint64_t v) {
  WriteTag(field, WireType::kVarint);
  WriteVarint(v);
}

void CodedOutput::WriteDouble(uint32_t field, double v) {
  WriteTag(field, WireType::kFixed64);
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  WriteFixed64(bits);
}

void CodedOutput::WriteFloat(uint32_t field, float v) {
  WriteTag(field, WireType::kFixed32);
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  WriteFixed32(bits);
}

void CodedOutput::WriteString(uint32_t field, const std::string& v) {
  WriteBytes(field, v.data(), v.size());
}

void CodedOutput::WriteBytes(uint32_t field, const void* data, size_t size) {
  WriteTag(field, WireType::kLengthDelimited);
  WriteVarint(size);
  out_->append(static_cast<const char*>(data), size);
}

Status CodedInput::ReadVarint(uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (p_ != end_) {
    const uint8_t byte = *p_++;
    if (shift >= 64) return InvalidArgument("varint too long");
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
    shift += 7;
  }
  return OutOfRange("truncated varint");
}

Status CodedInput::ReadFixed32(uint32_t* v) {
  if (remaining() < 4) return OutOfRange("truncated fixed32");
  std::memcpy(v, p_, 4);
  p_ += 4;
  return Status::OK();
}

Status CodedInput::ReadFixed64(uint64_t* v) {
  if (remaining() < 8) return OutOfRange("truncated fixed64");
  std::memcpy(v, p_, 8);
  p_ += 8;
  return Status::OK();
}

Status CodedInput::ReadTag(uint32_t* field, WireType* type) {
  uint64_t tag;
  TFHPC_RETURN_IF_ERROR(ReadVarint(&tag));
  *field = static_cast<uint32_t>(tag >> 3);
  const uint32_t wt = static_cast<uint32_t>(tag & 7);
  if (wt == 3 || wt == 4 || wt > 5) {
    return InvalidArgument("unsupported wire type " + std::to_string(wt));
  }
  *type = static_cast<WireType>(wt);
  if (*field == 0) return InvalidArgument("field number 0");
  return Status::OK();
}

Status CodedInput::ReadDouble(double* v) {
  uint64_t bits;
  TFHPC_RETURN_IF_ERROR(ReadFixed64(&bits));
  std::memcpy(v, &bits, 8);
  return Status::OK();
}

Status CodedInput::ReadFloat(float* v) {
  uint32_t bits;
  TFHPC_RETURN_IF_ERROR(ReadFixed32(&bits));
  std::memcpy(v, &bits, 4);
  return Status::OK();
}

Status CodedInput::ReadRaw(size_t size, const uint8_t** data) {
  if (size > remaining()) return OutOfRange("truncated length-delimited field");
  *data = p_;
  p_ += size;
  return Status::OK();
}

Status CodedInput::ReadBytesView(const uint8_t** data, size_t* size) {
  uint64_t len;
  TFHPC_RETURN_IF_ERROR(ReadVarint(&len));
  if (len > remaining()) return OutOfRange("truncated length-delimited field");
  *size = static_cast<size_t>(len);
  return ReadRaw(*size, data);
}

Status CodedInput::ReadString(std::string* v) {
  const uint8_t* data;
  size_t size;
  TFHPC_RETURN_IF_ERROR(ReadBytesView(&data, &size));
  v->assign(reinterpret_cast<const char*>(data), size);
  return Status::OK();
}

Status CodedInput::SkipField(WireType type) {
  switch (type) {
    case WireType::kVarint: {
      uint64_t v;
      return ReadVarint(&v);
    }
    case WireType::kFixed64: {
      uint64_t v;
      return ReadFixed64(&v);
    }
    case WireType::kFixed32: {
      uint32_t v;
      return ReadFixed32(&v);
    }
    case WireType::kLengthDelimited: {
      const uint8_t* d;
      size_t s;
      return ReadBytesView(&d, &s);
    }
  }
  return InvalidArgument("bad wire type");
}

}  // namespace tfhpc::wire
