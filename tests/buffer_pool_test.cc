// Tests for the pooled allocator (core/buffer.h), uninitialized allocation,
// and buffer forwarding through kernels and the executor's move-on-last-use
// input passing.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/buffer.h"
#include "core/tensor.h"
#include "graph/ops.h"
#include "kernels/kernel.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, AllocationsAreAlignedAndExactlySized) {
  for (size_t size : {1ul, 63ul, 64ul, 65ul, 4096ul, 100000ul}) {
    auto buf = Buffer::TryAllocate(size).value();
    ASSERT_NE(buf->data(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf->data()) % Buffer::kAlignment,
              0u)
        << size;
    EXPECT_EQ(buf->size(), size);
  }
}

TEST(BufferPoolTest, EverySizeClassIsSimdAligned) {
  // The vectorized kernels require 64-byte-aligned tensor storage. Walk
  // every size class (64 B .. 64 MB) plus the class boundaries and the
  // oversized bypass path, fresh and pool-hit.
  BufferPool::Global().Trim();
  std::vector<size_t> sizes;
  for (size_t cls = BufferPool::kMinClassBytes;
       cls <= BufferPool::kMaxPooledBytes; cls <<= 1) {
    sizes.push_back(cls - 1);
    sizes.push_back(cls);
    sizes.push_back(cls + 1);  // spills to the next class (or oversized)
  }
  sizes.push_back(BufferPool::kMaxPooledBytes * 2 + 7);  // oversized bypass
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % Buffer::kAlignment == 0;
  };
  for (size_t size : sizes) {
    {
      auto fresh = Buffer::TryAllocate(size, nullptr, ZeroInit::kNo).value();
      ASSERT_NE(fresh->data(), nullptr) << size;
      EXPECT_TRUE(aligned(fresh->data())) << "fresh size " << size;
    }
    // The block just freed is now cached (when pooled); the pool must hand
    // back an equally aligned block, hit or miss.
    auto r = Buffer::TryAllocate(size, nullptr, ZeroInit::kNo);
    ASSERT_TRUE(r.ok()) << size;
    EXPECT_TRUE(aligned((*r)->data())) << "recycled size " << size;
  }
  BufferPool::Global().Trim();
}

TEST(BufferPoolTest, FreedBlocksAreReusedFromTheSizeClass) {
  BufferPool::Global().Trim();
  AllocatorStats stats;
  void* first = nullptr;
  {
    auto buf = Buffer::TryAllocate(10000, &stats).value();
    first = buf->data();
  }
  // The freed block sits on its size-class free list; the next matching
  // allocation must be served from it (same pointer, counted as a hit).
  // Same pow2 class (16K).
  auto again = Buffer::TryAllocate(9000, &stats).value();
  EXPECT_EQ(again->data(), first);
  EXPECT_EQ(stats.allocs(), 2);
  EXPECT_EQ(stats.pool_hits(), 1);
  EXPECT_GE(stats.pool_bytes(), 9000);
}

TEST(BufferPoolTest, ZeroInitZeroesRequestedBytesOfRecycledBlocks) {
  BufferPool::Global().Trim();
  const size_t size = 8192;
  {
    auto dirty = Buffer::TryAllocate(size, nullptr, ZeroInit::kNo).value();
    std::memset(dirty->data(), 0xab, size);
  }
  // kYes must scrub the recycled block...
  AllocatorStats stats;
  {
    auto clean = Buffer::TryAllocate(size, &stats, ZeroInit::kYes).value();
    ASSERT_EQ(stats.pool_hits(), 1);  // really recycled, not a fresh block
    const auto* p = static_cast<const unsigned char*>(clean->data());
    for (size_t i = 0; i < size; ++i) ASSERT_EQ(p[i], 0u) << i;
    std::memset(clean->data(), 0xcd, size);
  }
  // ...while kNo hands the block back dirty (this is the memset being
  // skipped — the pool is deterministic LIFO, so we see our own bytes).
  auto raw = Buffer::TryAllocate(size, nullptr, ZeroInit::kNo).value();
  EXPECT_EQ(static_cast<const unsigned char*>(raw->data())[0], 0xcd);
}

TEST(BufferPoolTest, OversizedAllocationsBypassTheCache) {
  BufferPool::Global().Trim();
  { auto big = Buffer::TryAllocate(BufferPool::kMaxPooledBytes + 1).value(); }
  EXPECT_EQ(BufferPool::Global().cached_bytes(), 0u);
}

TEST(BufferPoolTest, TrimReleasesEverythingCached) {
  BufferPool::Global().Trim();
  for (size_t size : {1024ul, 2048ul, 65536ul}) {
    auto buf = Buffer::TryAllocate(size).value();
  }
  EXPECT_GT(BufferPool::Global().cached_bytes(), 0u);
  EXPECT_GT(BufferPool::Global().Trim(), 0u);
  EXPECT_EQ(BufferPool::Global().cached_bytes(), 0u);
}

TEST(BufferPoolTest, CacheCapBoundsIdleBytes) {
  BufferPool::Global().Trim();
  BufferPool::Global().set_cache_cap(64 * 1024);
  std::vector<std::shared_ptr<Buffer>> bufs;
  for (int i = 0; i < 8; ++i) {
    bufs.push_back(Buffer::TryAllocate(32 * 1024).value());
  }
  bufs.clear();  // frees 8 x 32K against a 64K cap
  EXPECT_LE(BufferPool::Global().cached_bytes(), 64u * 1024u);
  BufferPool::Global().set_cache_cap(BufferPool::kDefaultCacheCap);
  BufferPool::Global().Trim();
}

TEST(BufferPoolTest, LiveAndPeakBytesTrackTensorLifetimes) {
  AllocatorStats stats;
  {
    Tensor a(DType::kF64, Shape{100}, &stats);
    EXPECT_EQ(stats.live_bytes(), 800);
    Tensor b =
        Tensor::TryCreate(DType::kF64, Shape{50}, &stats, ZeroInit::kNo)
            .value();
    EXPECT_EQ(stats.live_bytes(), 1200);
  }
  EXPECT_EQ(stats.live_bytes(), 0);
  EXPECT_EQ(stats.peak_bytes(), 1200);
  EXPECT_EQ(stats.allocs(), 2);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool::Global().Trim();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, kIters] {
      AllocatorStats stats;
      for (int i = 0; i < kIters; ++i) {
        const size_t size = 64u << ((t + i) % 8);
        const ZeroInit zero = i % 2 ? ZeroInit::kYes : ZeroInit::kNo;
        auto buf = Buffer::TryAllocate(size, &stats, zero).value();
        static_cast<unsigned char*>(buf->data())[size / 2] = 0x5a;
      }
      EXPECT_EQ(stats.live_bytes(), 0);
      EXPECT_EQ(stats.allocs(), kIters);
    });
  }
  for (auto& th : threads) th.join();
}

// ---- Tensor adoption --------------------------------------------------------

TEST(TensorBufferTest, FromBufferAdoptsWithoutCopy) {
  auto buf =
      Buffer::TryAllocate(64 * sizeof(float), nullptr, ZeroInit::kNo).value();
  auto* src = static_cast<float*>(buf->data());
  for (int i = 0; i < 64; ++i) src[i] = static_cast<float>(i);
  const void* raw = buf->data();
  Tensor t = Tensor::FromBuffer(DType::kF32, Shape{64}, std::move(buf));
  EXPECT_EQ(t.raw_data(), raw);
  EXPECT_FLOAT_EQ(t.data<float>()[63], 63.0f);
}

TEST(TensorBufferTest, BufferUniqueReflectsSharing) {
  Tensor t(DType::kF32, Shape{8});
  EXPECT_TRUE(t.buffer_unique());
  Tensor alias = t;
  EXPECT_FALSE(t.buffer_unique());
  EXPECT_FALSE(alias.buffer_unique());
}

// ---- Kernel buffer forwarding ----------------------------------------------

TEST(BufferForwardTest, UniqueElementwiseInputIsReusedInPlace) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Meta(DType::kF32, Shape{64}), "a");
  auto b = ops::Const(s, Tensor::Meta(DType::kF32, Shape{64}), "b");
  auto c = ops::Add(s, a, b);

  Tensor ta(DType::kF32, Shape{64});
  Tensor tb(DType::kF32, Shape{64});
  for (int i = 0; i < 64; ++i) {
    ta.mutable_data<float>()[i] = static_cast<float>(i);
    tb.mutable_data<float>()[i] = 100.0f;
  }
  const void* ta_ptr = ta.raw_data();
  Tensor tb_alias = tb;  // second reference: tb must NOT be forwarded

  std::vector<Tensor> inputs;
  inputs.push_back(std::move(ta));  // sole reference: forwardable
  inputs.push_back(std::move(tb));
  ResourceMgr rm;
  AllocatorStats stats;
  OpKernelContext ctx(c.node, std::move(inputs), &rm, /*simulate=*/false,
                      &stats);
  auto kernel = KernelRegistry::Global().Create("Add", "cpu");
  ASSERT_TRUE(kernel.ok());
  ASSERT_TRUE((*kernel)->Compute(&ctx).ok());

  const Tensor& out = ctx.outputs()[0];
  EXPECT_EQ(out.raw_data(), ta_ptr);  // computed in place in a's buffer
  EXPECT_EQ(stats.forwards(), 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(out.data<float>()[i], static_cast<float>(i) + 100.0f);
  }
  // The shared operand was left untouched.
  EXPECT_FLOAT_EQ(tb_alias.data<float>()[7], 100.0f);
}

TEST(BufferForwardTest, SharedInputGetsAFreshBuffer) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Meta(DType::kF64, Shape{16}), "a");
  auto y = ops::Sqrt(s, a);

  Tensor ta(DType::kF64, Shape{16});
  for (int i = 0; i < 16; ++i) {
    ta.mutable_data<double>()[i] = static_cast<double>(i * i);
  }
  Tensor keep = ta;  // executor would keep this for another consumer

  std::vector<Tensor> inputs = {ta};
  ResourceMgr rm;
  AllocatorStats stats;
  OpKernelContext ctx(y.node, std::move(inputs), &rm, /*simulate=*/false,
                      &stats);
  auto kernel = KernelRegistry::Global().Create("Sqrt", "cpu");
  ASSERT_TRUE(kernel.ok());
  ASSERT_TRUE((*kernel)->Compute(&ctx).ok());

  EXPECT_NE(ctx.outputs()[0].raw_data(), keep.raw_data());
  EXPECT_EQ(stats.forwards(), 0);
  EXPECT_DOUBLE_EQ(ctx.outputs()[0].data<double>()[9], 9.0);
  EXPECT_DOUBLE_EQ(keep.data<double>()[9], 81.0);  // input unmutated
}

// ---- Executor move-on-last-use ----------------------------------------------

TEST(BufferForwardTest, FetchedOutputsSurviveDownstreamForwarding) {
  // x is both fetched and consumed by Sqrt: the executor must hand Sqrt a
  // shared reference (blocking in-place reuse), never the fetched copy.
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  Tensor v(DType::kF64, Shape{8});
  for (int i = 0; i < 8; ++i) v.mutable_data<double>()[i] = 4.0;
  auto x = ops::Const(s, v, "x");
  auto y = ops::Sqrt(s, x);
  auto r = rt.NewSession()->Run({}, {x.name(), y.name()});
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[i], 4.0);  // not clobbered
    EXPECT_DOUBLE_EQ((*r)[1].data<double>()[i], 2.0);
  }
}

TEST(BufferForwardTest, FetchedResultsOutliveTheRuntime) {
  // Run results escape to user code that may destroy the runtime (and its
  // devices, whose AllocatorStats the buffers were attributed to) first.
  // The fetch boundary must sever that attribution: stats() is nullptr on
  // everything Run returns, and the tensors stay readable and destructible
  // after the runtime is gone.
  std::vector<Tensor> kept;
  {
    LocalRuntime rt(0);
    Scope s = rt.root_scope();
    Tensor v(DType::kF64, Shape{16});
    for (int i = 0; i < 16; ++i) v.mutable_data<double>()[i] = 9.0;
    auto x = ops::Const(s, v, "x");
    auto y = ops::Sqrt(s, x);
    auto r = rt.NewSession()->Run({}, {x.name(), y.name()});
    ASSERT_TRUE(r.ok());
    for (const Tensor& t : *r) {
      ASSERT_NE(t.buffer(), nullptr);
      EXPECT_EQ(t.buffer()->stats(), nullptr);
    }
    kept = std::move(*r);
  }  // runtime and device allocator stats destroyed here
  EXPECT_DOUBLE_EQ(kept[0].data<double>()[3], 9.0);
  EXPECT_DOUBLE_EQ(kept[1].data<double>()[3], 3.0);
  kept.clear();  // must not write through a dangling AllocatorStats
}

TEST(BufferForwardTest, ChainedElementwiseStepsComputeCorrectly) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  Tensor v(DType::kF64, Shape{32});
  for (int i = 0; i < 32; ++i) v.mutable_data<double>()[i] = 16.0;
  auto x = ops::Const(s, v, "x");
  auto y = ops::Sqrt(s, x);   // last use of x: forwarded
  auto z = ops::Sqrt(s, y);   // last use of y: forwarded
  auto w = ops::Neg(s, z);    // last use of z: forwarded
  auto r = rt.NewSession()->Run({}, {w.name()});
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[i], -2.0);
  }
}

TEST(BufferForwardTest, StaticShapeChainAllocatesOncePerStep) {
  // Every shape here is static, so the memory planner covers the chain; the
  // executor still decides buffers at run time only. Mul cannot forward (x
  // is the caller's feed, and both operands share it), so it allocates;
  // Neg and Sqrt each receive the sole reference to their input and
  // forward it in place. One pooled allocation per step, no more.
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{256}, "x");
  auto out = ops::Sqrt(s, ops::Neg(s, ops::Mul(s, x, x)));
  auto sess = rt.NewSession();
  const std::map<std::string, Tensor> feeds = {
      {"x", Tensor::FromVector(std::vector<double>(256, 3.0))}};

  auto traffic = [&rt] {
    std::pair<int64_t, int64_t> allocs_forwards{0, 0};
    for (const auto& d : rt.devices().devices()) {
      allocs_forwards.first += d->allocator_stats()->allocs();
      allocs_forwards.second += d->allocator_stats()->forwards();
    }
    return allocs_forwards;
  };
  ASSERT_TRUE(sess->Run(feeds, {out.name()}).ok());  // warm: compile + pool
  const auto before = traffic();
  constexpr int kSteps = 8;
  for (int i = 0; i < kSteps; ++i) {
    auto r = sess->Run(feeds, {out.name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ((*r)[0].shape(), Shape{256});
  }
  const auto after = traffic();
  EXPECT_EQ(after.first - before.first, 1 * kSteps) << "allocations";
  EXPECT_EQ(after.second - before.second, 2 * kSteps) << "forwards";
}

}  // namespace
}  // namespace tfhpc
