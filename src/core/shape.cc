#include "core/shape.h"

#include <algorithm>
#include <sstream>

#include "core/logging.h"

namespace tfhpc {

int64_t Shape::dim(int i) const {
  TFHPC_CHECK_GE(i, 0);
  TFHPC_CHECK_LT(i, rank()) << " dim index out of range for " << ToString();
  return dims_[static_cast<size_t>(i)];
}

int64_t Shape::num_elements() const {
  int64_t n = 1;
  for (int64_t d : dims_) {
    TFHPC_CHECK_GE(d, 0) << "negative dim in " << ToString();
    if (d != 0) {
      TFHPC_CHECK_LE(n, INT64_MAX / d) << "shape overflow " << ToString();
    }
    n *= d;
  }
  return n;
}

Result<int64_t> CheckedByteCount(DType dtype,
                                 const std::vector<int64_t>& dims) {
  int64_t bytes = static_cast<int64_t>(DTypeSize(dtype));
  for (int64_t d : dims) {
    if (d < 0) {
      return InvalidArgument("negative dimension in " + Shape(dims).ToString());
    }
    if (d != 0 && bytes > INT64_MAX / d) {
      return InvalidArgument("byte count of " + Shape(dims).ToString() +
                             " overflows int64");
    }
    bytes *= d;
  }
  return bytes;
}

std::vector<int64_t> Shape::Strides() const {
  std::vector<int64_t> s(dims_.size(), 1);
  for (int i = rank() - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] =
        s[static_cast<size_t>(i) + 1] * dims_[static_cast<size_t>(i) + 1];
  }
  return s;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ",";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Result<Shape> Shape::Broadcast(const Shape& a, const Shape& b) {
  const int rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> out(static_cast<size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    // Align from trailing dimensions, missing leading dims behave as 1.
    const int ai = a.rank() - rank + i;
    const int bi = b.rank() - rank + i;
    const int64_t ad = ai >= 0 ? a.dim(ai) : 1;
    const int64_t bd = bi >= 0 ? b.dim(bi) : 1;
    if (ad != bd && ad != 1 && bd != 1) {
      return InvalidArgument("incompatible broadcast shapes " + a.ToString() +
                             " vs " + b.ToString());
    }
    out[static_cast<size_t>(i)] = std::max(ad, bd);
  }
  return Shape(std::move(out));
}

}  // namespace tfhpc
