#include "core/buffer.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/logging.h"
#include "core/rng.h"

namespace tfhpc {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t c = BufferPool::kMinClassBytes;
  while (c < v) c <<= 1;
  return c;
}

// Runtime counterpart of the alignment static_asserts in buffer.h: every
// block TryAcquire hands out (fresh, cached, or oversized) must be safe for
// 64-byte SIMD loads.
void CheckAligned(const void* p) {
  TFHPC_CHECK(reinterpret_cast<uintptr_t>(p) % Buffer::kAlignment == 0)
      << "BufferPool produced a misaligned block";
}

}  // namespace

// ---- MemoryLimiter ----------------------------------------------------------

Status MemoryLimiter::Reserve(int64_t bytes) {
  int64_t cur = used_.load(std::memory_order_relaxed);
  for (;;) {
    const int64_t lim = limit_.load(std::memory_order_relaxed);
    if (lim > 0 && cur + bytes > lim) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhausted(scope_ + " budget exhausted: " +
                               std::to_string(cur) + " bytes in use + " +
                               std::to_string(bytes) + " requested > limit " +
                               std::to_string(lim));
    }
    if (used_.compare_exchange_weak(cur, cur + bytes,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  const int64_t now = cur + bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void MemoryLimiter::Release(int64_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

MemoryLimiter& MemoryLimiter::Process() {
  // Leaked intentionally: buffers may outlive static destruction order.
  static MemoryLimiter* limiter = new MemoryLimiter(0, "process memory");
  return *limiter;
}

// ---- AllocFaultInjector -----------------------------------------------------

AllocFaultInjector& AllocFaultInjector::Global() {
  static AllocFaultInjector* injector = new AllocFaultInjector();
  return *injector;
}

void AllocFaultInjector::Install(const AllocFaultSpec& spec) {
  MutexLock lock(mu_);
  spec_ = spec;
  eligible_count_ = 0;
  eligible_bytes_ = 0;
  failures_ = 0;
  considered_.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  armed_.store(spec.enabled(), std::memory_order_release);
}

void AllocFaultInjector::Disarm() {
  MutexLock lock(mu_);
  armed_.store(false, std::memory_order_release);
}

bool AllocFaultInjector::ShouldFail(size_t bytes) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  MutexLock lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return false;
  considered_.fetch_add(1, std::memory_order_relaxed);
  if (bytes < spec_.min_bytes || bytes > spec_.max_bytes) return false;
  ++eligible_count_;
  eligible_bytes_ += static_cast<int64_t>(bytes);
  if (spec_.max_failures >= 0 && failures_ >= spec_.max_failures) return false;
  bool fail = false;
  if (spec_.every_nth > 0 && eligible_count_ % spec_.every_nth == 0) {
    fail = true;
  }
  if (!fail && spec_.after_bytes >= 0 && eligible_bytes_ > spec_.after_bytes) {
    fail = true;
  }
  if (!fail && spec_.probability > 0.0) {
    const Philox::Block block = Philox(spec_.seed)(eligible_count_);
    fail = UniformDouble(block.v[0], block.v[1]) < spec_.probability;
  }
  if (fail) {
    ++failures_;
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return fail;
}

// ---- BufferPool -------------------------------------------------------------

BufferPool::BufferPool() {
  // Classes: 64 B .. 64 MB inclusive, one list per power of two.
  size_t n = 0;
  for (size_t c = kMinClassBytes; c <= kMaxPooledBytes; c <<= 1) ++n;
  free_lists_.resize(n);
}

BufferPool& BufferPool::Global() {
  // Leaked intentionally: buffers may outlive static destruction order.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

size_t BufferPool::ClassIndex(size_t size) {
  size_t idx = 0;
  for (size_t c = kMinClassBytes; c < size; c <<= 1) ++idx;
  return idx;
}

Status BufferPool::TryAcquire(size_t size, void** out, size_t* capacity,
                              bool* pool_hit) {
  total_acquires_.fetch_add(1, std::memory_order_relaxed);
  *pool_hit = false;
  *out = nullptr;
  if (size > kMaxPooledBytes) {
    // Oversized: bypass the pool, round only for aligned_alloc's contract.
    const size_t rounded =
        (size + Buffer::kAlignment - 1) / Buffer::kAlignment *
        Buffer::kAlignment;
    TFHPC_RETURN_IF_ERROR(
        MemoryLimiter::Process().Reserve(static_cast<int64_t>(rounded)));
    void* p = std::aligned_alloc(Buffer::kAlignment, rounded);
    if (p == nullptr) {
      MemoryLimiter::Process().Release(static_cast<int64_t>(rounded));
      return ResourceExhausted("allocation of " + std::to_string(rounded) +
                               " bytes failed");
    }
    *capacity = rounded;
    *out = p;
    CheckAligned(p);
    return Status::OK();
  }
  const size_t cls = RoundUpPow2(size);
  *capacity = cls;
  {
    MutexLock lock(mu_);
    auto& list = free_lists_[ClassIndex(cls)];
    if (!list.empty()) {
      // Cached blocks stay charged to the process limiter, so a hit needs
      // no new reservation.
      void* p = list.back();
      list.pop_back();
      cached_bytes_.fetch_sub(cls, std::memory_order_relaxed);
      total_hits_.fetch_add(1, std::memory_order_relaxed);
      *pool_hit = true;
      *out = p;
      CheckAligned(p);
      return Status::OK();
    }
  }
  TFHPC_RETURN_IF_ERROR(
      MemoryLimiter::Process().Reserve(static_cast<int64_t>(cls)));
  void* p = std::aligned_alloc(Buffer::kAlignment, cls);
  if (p == nullptr) {
    MemoryLimiter::Process().Release(static_cast<int64_t>(cls));
    return ResourceExhausted("allocation of " + std::to_string(cls) +
                             " bytes failed");
  }
  *out = p;
  CheckAligned(p);
  return Status::OK();
}

void BufferPool::Release(void* ptr, size_t capacity) {
  if (ptr == nullptr) return;
  if (capacity <= kMaxPooledBytes) {
    MutexLock lock(mu_);
    if (cached_bytes_.load(std::memory_order_relaxed) + capacity <=
        cache_cap_) {
      // Kept in the pool: the process-limiter charge stays (idle bytes are
      // still our footprint; Trim() returns them).
      free_lists_[ClassIndex(capacity)].push_back(ptr);
      cached_bytes_.fetch_add(capacity, std::memory_order_relaxed);
      return;
    }
  }
  std::free(ptr);
  MemoryLimiter::Process().Release(static_cast<int64_t>(capacity));
}

size_t BufferPool::Trim() {
  size_t freed = 0;
  {
    MutexLock lock(mu_);
    size_t cls = kMinClassBytes;
    for (auto& list : free_lists_) {
      freed += cls * list.size();
      for (void* p : list) std::free(p);
      list.clear();
      cls <<= 1;
    }
    cached_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  }
  if (freed > 0) MemoryLimiter::Process().Release(static_cast<int64_t>(freed));
  return freed;
}

void BufferPool::set_cache_cap(size_t bytes) {
  {
    MutexLock lock(mu_);
    cache_cap_ = bytes;
  }
  if (cached_bytes_.load(std::memory_order_relaxed) > bytes) Trim();
}

// ---- Buffer -----------------------------------------------------------------

Result<std::shared_ptr<Buffer>> Buffer::TryAllocate(
    size_t size, AllocatorStats* stats, ZeroInit zero,
    std::shared_ptr<MemoryLimiter> step_limiter) {
  void* p = nullptr;
  size_t capacity = 0;
  if (size > 0) {
    // Per-step budget first: a breach is the step outgrowing its own
    // allowance — permanent, no amount of trimming or retrying helps.
    if (step_limiter != nullptr) {
      Status st = step_limiter->Reserve(static_cast<int64_t>(size));
      if (!st.ok()) {
        if (stats != nullptr) stats->RecordFailed();
        return st;  // plain (permanent) kResourceExhausted
      }
    }
    bool pool_hit = false;
    Status st;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (AllocFaultInjector::Global().ShouldFail(size)) {
        st = ResourceExhausted("injected allocation failure (" +
                               std::to_string(size) + " bytes)");
      } else {
        st = BufferPool::Global().TryAcquire(size, &p, &capacity, &pool_hit);
      }
      if (st.ok()) break;
      // Budget breach, injected fault or real aligned_alloc failure: drop
      // the pool's idle bytes and retry exactly once.
      if (attempt == 0) BufferPool::Global().Trim();
    }
    if (!st.ok()) {
      if (step_limiter != nullptr) {
        step_limiter->Release(static_cast<int64_t>(size));
      }
      if (stats != nullptr) stats->RecordFailed();
      // Pool pressure is transient: siblings completing (or another Trim)
      // frees capacity, so a retry after backoff may succeed.
      return TransientResourceExhausted(st.message());
    }
    // Zero only the bytes the caller asked for; the class-capacity tail is
    // never read through this buffer.
    if (zero == ZeroInit::kYes) std::memset(p, 0, size);
    if (stats != nullptr) {
      stats->RecordAlloc(pool_hit, static_cast<int64_t>(capacity));
    }
  }
  if (stats != nullptr) stats->Add(static_cast<int64_t>(size));
  return std::shared_ptr<Buffer>(
      new Buffer(p, size, capacity, stats, std::move(step_limiter)));
}

Buffer::~Buffer() {
  if (stats_ != nullptr) stats_->Sub(static_cast<int64_t>(size_));
  if (step_limiter_ != nullptr) {
    step_limiter_->Release(static_cast<int64_t>(size_));
  }
  BufferPool::Global().Release(data_, capacity_);
}

}  // namespace tfhpc
