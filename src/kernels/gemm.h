// Goto-style packed, register-tiled GEMM and vectorized GEMV on row-major
// dense matrices — the compute substrate behind the MatMul/MatVec kernels and
// the tiled matmul application. Not a full BLAS; exactly the contractions the
// paper's applications need, written for predictable performance.
//
// Gemm packs A and B panels into contiguous pool-allocated scratch (MC×KC and
// KC×NC), drives an explicitly vectorized MR×NR micro-kernel over the packed
// panels, and parallelizes over MC row blocks with a flop-aware grain (small
// matrices never shard). Results are deterministic across thread counts and
// schedules: each C row block is owned by exactly one task per depth panel,
// and depth panels accumulate in a fixed serial order.
#pragma once

#include <cstdint>

#include "core/status.h"

namespace tfhpc {
class ThreadPool;
}  // namespace tfhpc

namespace tfhpc::blas {

// C(m x n) += A(m x k) * B(k x n), row-major. `beta_zero` first clears C.
// `pool` overrides the thread pool used for row-block parallelism (nullptr =
// the global pool); the ablation bench uses this for its threads axis.
// Fails with the buffer pool's kResourceExhausted when the packing scratch
// cannot be allocated; C's contents are then unspecified.
Status Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool beta_zero = true, ThreadPool* pool = nullptr);
Status Gemm(const double* a, const double* b, double* c, int64_t m, int64_t n,
            int64_t k, bool beta_zero = true, ThreadPool* pool = nullptr);

// y(m) = A(m x n) * x(n), row-major. Rows are reduced with multiple
// independent accumulators; the ParallelFor grain adapts to the row length so
// tiny n doesn't over-shard and huge n doesn't under-shard.
void Gemv(const double* a, const double* x, double* y, int64_t m, int64_t n);
void Gemv(const float* a, const float* x, float* y, int64_t m, int64_t n);

}  // namespace tfhpc::blas
