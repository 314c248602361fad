#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "core/buffer.h"
#include "core/threadpool.h"

namespace tfhpc::blas {
namespace {

// Register tile shapes, chosen by measurement at the project's -O2 on SSE2
// codegen: f32 8x8 (16 4-wide accumulator vectors) and f64 6x4 (12 2-wide
// vectors) saturate the FP pipes without spilling the 16 XMM registers.
template <typename T>
struct Tile;
template <>
struct Tile<float> {
  static constexpr int MR = 8, NR = 8;
};
template <>
struct Tile<double> {
  static constexpr int MR = 6, NR = 4;
};

// Cache blocks: the packed A block (MC x KC) stays L2-resident, the packed B
// panel (KC x NC) streams through L3, and each KC-deep rank-1 update of a
// C micro-tile runs from L1.
constexpr int64_t kMc = 128;   // rows of A per block
constexpr int64_t kKc = 256;   // depth per panel
constexpr int64_t kNc = 1024;  // cols of B per panel

// Flop-aware grain: a ParallelFor task must carry at least this many flops,
// so small matrices run inline instead of sharding into sub-microsecond
// tasks.
constexpr double kMinFlopsPerTask = 8e6;

#if defined(__GNUC__) || defined(__clang__)
#define TFHPC_GEMM_VEC 1
typedef float vf4 __attribute__((vector_size(16)));
typedef double vd2 __attribute__((vector_size(16)));
#endif

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// Packs an mc x kc block of A (row-major, leading dimension lda) into
// MR-row strips laid out depth-major: strip ir holds ap[p*MR + i] =
// A[ir+i][p]. Short strips at the m tail are zero-padded so the micro-kernel
// never branches on mr inside its p loop.
template <typename T>
void PackA(const T* a, int64_t lda, int64_t mc, int64_t kc, T* ap) {
  constexpr int MR = Tile<T>::MR;
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t mr = std::min<int64_t>(MR, mc - ir);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t i = 0; i < mr; ++i) ap[p * MR + i] = a[(ir + i) * lda + p];
      for (int64_t i = mr; i < MR; ++i) ap[p * MR + i] = T{0};
    }
    ap += kc * MR;
  }
}

// Packs a kc x nc panel of B into NR-column strips, zero-padding the n tail.
template <typename T>
void PackB(const T* b, int64_t ldb, int64_t kc, int64_t nc, T* bp) {
  constexpr int NR = Tile<T>::NR;
  for (int64_t jr = 0; jr < nc; jr += NR) {
    const int64_t nr = std::min<int64_t>(NR, nc - jr);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t j = 0; j < nr; ++j) bp[p * NR + j] = b[p * ldb + jr + j];
      for (int64_t j = nr; j < NR; ++j) bp[p * NR + j] = T{0};
    }
    bp += kc * NR;
  }
}

#if TFHPC_GEMM_VEC

// MR x NR micro-kernel over packed strips: accumulates kc rank-1 updates into
// a register tile of GCC/Clang vector-extension lanes, then adds the tile
// into C (masking the mr/nr tails). The explicit vectors keep codegen stable
// across optimization levels — the scalar-array formulation of this kernel
// was measured to regress under -O3.
void Micro(int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
           int64_t mr, int64_t nr) {
  constexpr int MR = Tile<float>::MR, NR = Tile<float>::NR, NV = NR / 4;
  vf4 acc[MR][NV];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v) acc[i][v] = vf4{0, 0, 0, 0};
  for (int64_t p = 0; p < kc; ++p) {
    const float* __restrict ar = ap + p * MR;
    const float* __restrict br = bp + p * NR;
    vf4 bv[NV];
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], br + 4 * v, 16);
    for (int i = 0; i < MR; ++i) {
      const vf4 av = {ar[i], ar[i], ar[i], ar[i]};
      for (int v = 0; v < NV; ++v) acc[i][v] += av * bv[v];
    }
  }
  float out[MR * NR];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v)
      std::memcpy(out + i * NR + 4 * v, &acc[i][v], 16);
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < NR; ++j) c[i * ldc + j] += out[i * NR + j];
  } else {
    for (int64_t i = 0; i < mr; ++i)
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += out[i * NR + j];
  }
}

void Micro(int64_t kc, const double* ap, const double* bp, double* c,
           int64_t ldc, int64_t mr, int64_t nr) {
  constexpr int MR = Tile<double>::MR, NR = Tile<double>::NR, NV = NR / 2;
  vd2 acc[MR][NV];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v) acc[i][v] = vd2{0, 0};
  for (int64_t p = 0; p < kc; ++p) {
    const double* __restrict ar = ap + p * MR;
    const double* __restrict br = bp + p * NR;
    vd2 bv[NV];
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], br + 2 * v, 16);
    for (int i = 0; i < MR; ++i) {
      const vd2 av = {ar[i], ar[i]};
      for (int v = 0; v < NV; ++v) acc[i][v] += av * bv[v];
    }
  }
  double out[MR * NR];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v)
      std::memcpy(out + i * NR + 2 * v, &acc[i][v], 16);
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < NR; ++j) c[i * ldc + j] += out[i * NR + j];
  } else {
    for (int64_t i = 0; i < mr; ++i)
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += out[i * NR + j];
  }
}

#else  // !TFHPC_GEMM_VEC

// Portable scalar fallback with the same packed-strip contract.
template <typename T>
void Micro(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc, int64_t mr,
           int64_t nr) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  T acc[MR * NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const T* __restrict ar = ap + p * MR;
    const T* __restrict br = bp + p * NR;
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < NR; ++j) acc[i * NR + j] += ar[i] * br[j];
  }
  for (int64_t i = 0; i < mr; ++i)
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i * NR + j];
}

#endif  // TFHPC_GEMM_VEC

template <typename T>
Status GemmImpl(const T* a, const T* b, T* c, int64_t m, int64_t n, int64_t k,
                bool beta_zero, ThreadPool* pool) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  if (beta_zero) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(T));
  if (m == 0 || n == 0 || k == 0) return Status::OK();
  if (pool == nullptr) pool = &ThreadPool::Global();

  // Packing scratch comes from the buffer pool (ZeroInit::kNo — fully
  // written by the pack routines). Bounded: B panel <= KC*NC elements plus
  // one MC*KC A block per concurrent task. Either allocation can fail under
  // memory pressure; the step then unwinds with the pool's status.
  const size_t bp_bytes =
      static_cast<size_t>(kKc * RoundUp(std::min(kNc, n), NR)) * sizeof(T);
  TFHPC_ASSIGN_OR_RETURN(std::shared_ptr<Buffer> bp_buf,
                         Buffer::TryAllocate(bp_bytes, nullptr, ZeroInit::kNo));
  T* bp = static_cast<T*>(bp_buf->data());
  const size_t ap_bytes =
      static_cast<size_t>(RoundUp(std::min(kMc, m), MR) * kKc) * sizeof(T);

  const int64_t row_blocks = (m + kMc - 1) / kMc;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(n, jc + kNc) - jc;
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(k, pc + kKc) - pc;
      PackB<T>(b + pc * n + jc, n, kc, nc, bp);
      const double flops_per_block =
          2.0 * static_cast<double>(std::min(kMc, m)) *
          static_cast<double>(nc) * static_cast<double>(kc);
      const int64_t grain = std::max<int64_t>(
          1, static_cast<int64_t>(kMinFlopsPerTask / flops_per_block));
      std::mutex error_mu;
      Status first_error;
      pool->ParallelFor(row_blocks, grain, [&](int64_t blk0, int64_t blk1) {
        auto ap_buf = Buffer::TryAllocate(ap_bytes, nullptr, ZeroInit::kNo);
        if (!ap_buf.ok()) {
          // Skip this task's blocks; the join below reports the failure.
          std::lock_guard<std::mutex> lk(error_mu);
          if (first_error.ok()) first_error = ap_buf.status();
          return;
        }
        T* ap = static_cast<T*>((*ap_buf)->data());
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          const int64_t ic = blk * kMc;
          const int64_t mc = std::min(m, ic + kMc) - ic;
          PackA<T>(a + ic * k + pc, k, mc, kc, ap);
          for (int64_t jr = 0; jr < nc; jr += NR) {
            const T* bpp = bp + jr * kc;
            const int64_t nr = std::min<int64_t>(NR, nc - jr);
            for (int64_t ir = 0; ir < mc; ir += MR) {
              Micro(kc, ap + ir * kc, bpp, c + (ic + ir) * n + jc + jr, n,
                    std::min<int64_t>(MR, mc - ir), nr);
            }
          }
        }
      });
      if (!first_error.ok()) return first_error;
    }
  }
  return Status::OK();
}

// Row dot product with independent accumulators collapsed by a fixed-order
// tree; accumulates in T (Gemv's historical precision).
template <typename T>
T RowDot(const T* __restrict row, const T* __restrict x, int64_t n) {
  constexpr int L = 8;
  T lanes[L] = {};
  int64_t j = 0;
  for (; j + L <= n; j += L)
    for (int l = 0; l < L; ++l) lanes[l] += row[j + l] * x[j + l];
  for (int l = 0; j + l < n; ++l) lanes[l] += row[j + l] * x[j + l];
  for (int w = L / 2; w > 0; w /= 2)
    for (int l = 0; l < w; ++l) lanes[l] += lanes[l + w];
  return lanes[0];
}

template <typename T>
void GemvImpl(const T* a, const T* x, T* y, int64_t m, int64_t n) {
  // Adaptive grain: ~64k multiply-adds per task. Tiny rows batch thousands
  // of rows per task; huge rows go one row at a time.
  constexpr int64_t kTargetElemsPerTask = 1 << 16;
  const int64_t grain = std::clamp<int64_t>(
      kTargetElemsPerTask / std::max<int64_t>(n, 1), 1, 1 << 16);
  ThreadPool::Global().ParallelFor(m, grain, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) y[r] = RowDot(a + r * n, x, n);
  });
}

}  // namespace

Status Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool beta_zero, ThreadPool* pool) {
  return GemmImpl(a, b, c, m, n, k, beta_zero, pool);
}
Status Gemm(const double* a, const double* b, double* c, int64_t m, int64_t n,
            int64_t k, bool beta_zero, ThreadPool* pool) {
  return GemmImpl(a, b, c, m, n, k, beta_zero, pool);
}
void Gemv(const double* a, const double* x, double* y, int64_t m, int64_t n) {
  GemvImpl(a, x, y, m, n);
}
void Gemv(const float* a, const float* x, float* y, int64_t m, int64_t n) {
  GemvImpl(a, x, y, m, n);
}

}  // namespace tfhpc::blas
