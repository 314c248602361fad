// Tensor shapes: an ordered list of dimension extents, rank 0 (scalar)
// upward, with helpers for element counts, row-major strides, broadcasting
// and 2-D matrix views used by the linear-algebra kernels.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "core/status.h"

namespace tfhpc {

class Shape {
 public:
  Shape() = default;  // scalar
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  const std::vector<int64_t>& dims() const { return dims_; }
  // Total element count (1 for scalars). Checked against overflow.
  int64_t num_elements() const;
  bool IsScalar() const { return dims_.empty(); }
  bool IsVector() const { return dims_.size() == 1; }
  bool IsMatrix() const { return dims_.size() == 2; }

  // Row-major strides in elements; strides[rank-1] == 1.
  std::vector<int64_t> Strides() const;

  std::string ToString() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // NumPy-style broadcast of two shapes; error when incompatible.
  static Result<Shape> Broadcast(const Shape& a, const Shape& b);

 private:
  std::vector<int64_t> dims_;
};

// Byte size of a `dtype` tensor with dimensions `dims`, for shapes read from
// outside the program (wire frames, .npy headers). Fails with
// kInvalidArgument on a negative dimension or a byte count past int64,
// where Shape::num_elements() would abort.
Result<int64_t> CheckedByteCount(DType dtype, const std::vector<int64_t>& dims);

}  // namespace tfhpc
