// Memory-pressure robustness tests: MemoryLimiter budgets, the seeded
// AllocFaultInjector schedules, trim-and-retry recovery in the fallible
// allocation path, executor unwind on mid-step OOM (queues/sessions stay
// usable), serving byte-budget admission, the transient-vs-permanent
// kResourceExhausted taxonomy (including its trip across the RPC wire), and
// distributed step retry after a transient OOM. The concurrency suite
// (OomBufferPool*) doubles as the TSan regression tests for the allocator
// fault-injection PR.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "core/buffer.h"
#include "core/status.h"
#include "core/tensor.h"
#include "distrib/client.h"
#include "distrib/dist_session.h"
#include "distrib/retry.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "runtime/serving.h"
#include "runtime/session.h"
#include "wire/messages.h"

namespace tfhpc {
namespace {

using distrib::ClusterSpec;
using distrib::DistributedSession;
using distrib::FaultReport;
using distrib::InProcessRouter;
using distrib::IsRetryable;
using distrib::IsRetryableCode;
using distrib::RemoteTask;
using distrib::RetryPolicy;
using distrib::Server;
using distrib::ServerDef;
using distrib::StepRecoveryOptions;
using distrib::WireProtocol;

// Restores process-global allocator state no matter how a test exits: the
// injector is disarmed, the process budget lifted, and the pool's idle
// cache dropped so the next test starts from a clean footprint.
struct GlobalAllocatorGuard {
  GlobalAllocatorGuard() { Reset(); }
  ~GlobalAllocatorGuard() { Reset(); }
  static void Reset() {
    AllocFaultInjector::Global().Disarm();
    MemoryLimiter::Process().set_limit(0);
    BufferPool::Global().Trim();
  }
};

// ---- MemoryLimiter ----------------------------------------------------------

TEST(OomLimiterTest, ReserveReleasePeakAndFailedAccounting) {
  MemoryLimiter lim(100, "test");
  EXPECT_EQ(lim.limit(), 100);
  ASSERT_TRUE(lim.Reserve(60).ok());
  ASSERT_TRUE(lim.Reserve(40).ok());
  EXPECT_EQ(lim.used(), 100);
  EXPECT_EQ(lim.peak(), 100);

  Status st = lim.Reserve(1);  // breach: nothing reserved
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_NE(st.message().find("test budget exhausted"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(lim.used(), 100);
  EXPECT_EQ(lim.failed(), 1);

  lim.Release(100);
  EXPECT_EQ(lim.used(), 0);
  EXPECT_EQ(lim.peak(), 100);  // high-water survives release
  lim.ResetPeak();
  EXPECT_EQ(lim.peak(), 0);
}

TEST(OomLimiterTest, UnlimitedStillAccounts) {
  MemoryLimiter lim;  // limit 0 = unlimited
  ASSERT_TRUE(lim.Reserve(1 << 30).ok());
  EXPECT_EQ(lim.used(), 1 << 30);
  EXPECT_EQ(lim.failed(), 0);
  lim.Release(1 << 30);
  EXPECT_EQ(lim.used(), 0);
}

// ---- AllocFaultInjector schedules ------------------------------------------

TEST(OomInjectorTest, EveryNthFailsExactlyTheNthEligible) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 3;
  AllocFaultInjector::Global().Install(spec);
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) {
    pattern.push_back(AllocFaultInjector::Global().ShouldFail(128));
  }
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(pattern, want);
  EXPECT_EQ(AllocFaultInjector::Global().considered(), 9);
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 3);
}

TEST(OomInjectorTest, AfterBytesFailsOnceCumulativeBytesExceedThreshold) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.after_bytes = 100;
  AllocFaultInjector::Global().Install(spec);
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(64));   // 64 <= 100
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(64));    // 128 > 100
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(8));     // stays over
}

TEST(OomInjectorTest, ProbabilityScheduleIsDeterministicBySeed) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.probability = 0.3;
  spec.seed = 42;
  auto run = [&spec] {
    AllocFaultInjector::Global().Install(spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(AllocFaultInjector::Global().ShouldFail(256));
    }
    return pattern;
  };
  const std::vector<bool> a = run();
  const std::vector<bool> b = run();
  EXPECT_EQ(a, b) << "same seed must give the same schedule";
  const int64_t hits = AllocFaultInjector::Global().injected();
  EXPECT_GT(hits, 200 * 0.3 / 3) << "p=0.3 over 200 draws";
  EXPECT_LT(hits, 200 * 0.3 * 3);

  spec.seed = 43;
  AllocFaultInjector::Global().Install(spec);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(AllocFaultInjector::Global().ShouldFail(256));
  }
  EXPECT_NE(a, c) << "different seed must give a different schedule";
}

TEST(OomInjectorTest, SizeClassFilterAndMaxFailures) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 1;       // every eligible allocation fails...
  spec.min_bytes = 1 << 20;  // ...but only megabyte-class ones are eligible
  spec.max_failures = 2;
  AllocFaultInjector::Global().Install(spec);
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(64));
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(4096));
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(1 << 20));
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(2 << 20));
  // The budget of injected failures is spent: big allocations pass again.
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(1 << 20));
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 2);
}

// ---- fallible allocation: trim-and-retry, taxonomy, accounting --------------

TEST(OomAllocTest, InjectedFailureIsTransientAndCountsOnStats) {
  GlobalAllocatorGuard guard;
  AllocatorStats stats;
  AllocFaultSpec spec;
  spec.every_nth = 1;  // both attempts of the trim-retry loop fail
  AllocFaultInjector::Global().Install(spec);
  auto r = Buffer::TryAllocate(1024, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted);
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();
  EXPECT_EQ(stats.failed(), 1);
  EXPECT_EQ(stats.live_bytes(), 0);
  // The trim-retry loop consulted the injector once per attempt.
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 2);

  AllocFaultInjector::Global().Disarm();
  auto ok = Buffer::TryAllocate(1024, &stats);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(stats.live_bytes(), 1024);
}

TEST(OomAllocTest, SingleInjectedFaultRecoversViaRetryAttempt) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.max_failures = 1;  // only the first attempt fails
  AllocFaultInjector::Global().Install(spec);
  auto r = Buffer::TryAllocate(1024);
  ASSERT_TRUE(r.ok()) << r.status().ToString()
                      << " (trim-retry must absorb a single fault)";
}

TEST(OomAllocTest, TrimRetryRecoversBudgetFromIdlePoolBytes) {
  GlobalAllocatorGuard guard;
  constexpr int64_t kMb = 1 << 20;
  const int64_t base = MemoryLimiter::Process().used();
  // Park 1 MB in the pool's free list: released buffers stay charged.
  { auto r = Buffer::TryAllocate(kMb); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(MemoryLimiter::Process().used(), base + kMb);
  EXPECT_GE(BufferPool::Global().cached_bytes(), static_cast<size_t>(kMb));
  // Budget admits 2 MB total — but only after the idle 1 MB is trimmed.
  MemoryLimiter::Process().set_limit(base + 2 * kMb);
  auto r = Buffer::TryAllocate(2 * kMb);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(MemoryLimiter::Process().used(), base + 2 * kMb);
}

TEST(OomAllocTest, ProcessBudgetBreachIsTransientAndFullyReleased) {
  GlobalAllocatorGuard guard;
  const int64_t base = MemoryLimiter::Process().used();
  MemoryLimiter::Process().set_limit(base + 1024);
  auto r = Buffer::TryAllocate(1 << 20);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();
  EXPECT_EQ(MemoryLimiter::Process().used(), base) << "failed reserve leaked";
}

TEST(OomAllocTest, StepBudgetBreachIsPermanentAndReleasedOnBufferDeath) {
  GlobalAllocatorGuard guard;
  auto step = std::make_shared<MemoryLimiter>(4096, "step memory");
  {
    auto ok = Buffer::TryAllocate(1024, nullptr, ZeroInit::kYes, step);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(step->used(), 1024);
    auto breach = Buffer::TryAllocate(4096, nullptr, ZeroInit::kYes, step);
    ASSERT_FALSE(breach.ok());
    EXPECT_EQ(breach.status().code(), Code::kResourceExhausted);
    EXPECT_FALSE(IsTransientResourceExhausted(breach.status()))
        << "a step outgrowing its own budget must be permanent: "
        << breach.status().ToString();
    EXPECT_EQ(step->used(), 1024) << "failed reserve leaked";
    EXPECT_EQ(step->failed(), 1);
  }
  EXPECT_EQ(step->used(), 0) << "buffer death must return the reservation";
  EXPECT_EQ(step->peak(), 1024);
}

TEST(OomAllocTest, CloneChargesTheSameAllocatorStats) {
  GlobalAllocatorGuard guard;
  AllocatorStats stats;
  auto t = Tensor::TryCreate(DType::kF64, Shape{256}, &stats);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(stats.live_bytes(), 2048);
  Tensor clone = t->Clone();
  EXPECT_EQ(stats.live_bytes(), 4096)
      << "deep copies must be visible to the same device accounting";
  clone = Tensor();
  EXPECT_EQ(stats.live_bytes(), 2048);
}

// ---- concurrent pool traffic under injected faults (TSan suite) -------------

TEST(OomBufferPoolConcurrencyTest, AcquireReleaseTrimUnderInjectedFailures) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.probability = 0.2;
  spec.seed = 7;
  AllocFaultInjector::Global().Install(spec);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  AllocatorStats stats;
  std::atomic<int> failures{0}, successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t size = 64u << ((t + i) % 8);  // mixed size classes
        auto r = Buffer::TryAllocate(size, &stats, ZeroInit::kNo);
        if (r.ok()) {
          successes.fetch_add(1);
        } else {
          // Every failure must be the clean transient kind.
          if (!IsTransientResourceExhausted(r.status())) std::abort();
          failures.fetch_add(1);
        }
        if (i % 64 == 0) BufferPool::Global().Trim();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load() + failures.load(), kThreads * kIters);
  EXPECT_GT(successes.load(), 0);
  EXPECT_GT(failures.load(), 0) << "p=0.2 over 1600 draws must inject";
  EXPECT_EQ(stats.live_bytes(), 0) << "all buffers died; accounting must zero";
  EXPECT_EQ(stats.failed(), failures.load());

  AllocFaultInjector::Global().Disarm();
  BufferPool::Global().Trim();
}

TEST(OomBufferPoolConcurrencyTest, ConcurrentStepsUnderOneProcessBudget) {
  GlobalAllocatorGuard guard;
  const int64_t base = MemoryLimiter::Process().used();
  MemoryLimiter::Process().set_limit(base + (1 << 20));  // tight shared budget
  std::atomic<int> oom{0}, ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto r = Buffer::TryAllocate(128 << 10, nullptr, ZeroInit::kNo);
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          if (!IsTransientResourceExhausted(r.status())) std::abort();
          oom.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(ok.load(), 0);
  MemoryLimiter::Process().set_limit(0);
  BufferPool::Global().Trim();
  EXPECT_EQ(MemoryLimiter::Process().used(), base)
      << "budget must return to baseline once buffers die and the pool trims";
}

// ---- executor unwind: OOM fails the step, not the process -------------------

TEST(OomExecutorTest, StepBudgetBreachFailsStepAndSessionRecovers) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{1024}, "x");
  auto y = ops::Add(s, x, x);
  auto sess = rt.NewSession();
  const Tensor feed =
      Tensor::FromVector(std::vector<double>(1024, 1.0));

  RunOptions tight;
  tight.step_memory_limit_bytes = 512;  // output needs 8 KB
  auto r = sess->Run({{"x", feed}}, {y.name()}, {}, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_FALSE(IsTransientResourceExhausted(r.status()));

  // Same session, same cached signature, sane budget: the step succeeds.
  RunOptions roomy;
  roomy.step_memory_limit_bytes = 1 << 20;
  auto r2 = sess->Run({{"x", feed}}, {y.name()}, {}, roomy);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[0], 2.0);
}

TEST(OomExecutorTest, SessionDefaultBudgetAppliesWhenRunOptionsSilent) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{1024}, "x");
  auto y = ops::Mul(s, x, x);
  SessionOptions opts;
  opts.step_memory_limit_bytes = 512;
  auto sess = rt.NewSession(opts);
  const Tensor feed = Tensor::FromVector(std::vector<double>(1024, 3.0));
  auto r = sess->Run({{"x", feed}}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted);
}

TEST(OomExecutorTest, MidStepOomLeavesQueuesUsable) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::QueueDequeue(s, "work");
  auto y = ops::Add(s, x, x);
  auto sess = rt.NewSession();
  FIFOQueue* q = rt.resources().LookupOrCreateQueue("work", 0).value();
  ASSERT_TRUE(q->Enqueue(Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(q->Enqueue(Tensor::Scalar(5.0)).ok());

  AllocFaultSpec spec;
  spec.every_nth = 1;  // fail every fallible allocation while armed
  AllocFaultInjector::Global().Install(spec);
  auto r = sess->Run({}, {y.name()});
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status()));

  // The queue was not poisoned by the unwound step: the next step drains it.
  auto r2 = sess->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
}

TEST(OomExecutorTest, MatMulPackingScratchOomFailsTheStepNotTheProcess) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  // 8x256 * 256x256 f64: the 16 KiB output fits the 64 KiB headroom below,
  // the 512 KiB packed B panel (256 deep x 256 wide) does not.
  auto a = ops::Placeholder(s, DType::kF64, Shape{8, 256}, "a");
  auto b = ops::Placeholder(s, DType::kF64, Shape{256, 256}, "b");
  auto c = ops::MatMul(s, a, b);
  auto sess = rt.NewSession();
  const Tensor fa =
      Tensor::FromVector(Shape{8, 256}, std::vector<double>(8 * 256, 1.0));
  const Tensor fb =
      Tensor::FromVector(Shape{256, 256}, std::vector<double>(256 * 256, 0.5));
  // Compile the signature first, so the limited run allocates only what the
  // step itself needs.
  ASSERT_TRUE(sess->Run({{"a", fa}, {"b", fb}}, {c.name()}).ok());

  BufferPool::Global().Trim();
  MemoryLimiter::Process().set_limit(MemoryLimiter::Process().used() +
                                     64 * 1024);
  auto r = sess->Run({{"a", fa}, {"b", fb}}, {c.name()});
  MemoryLimiter::Process().set_limit(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();

  // With the limit lifted the same step runs.
  auto r2 = sess->Run({{"a", fa}, {"b", fb}}, {c.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[0], 128.0);
}

TEST(OomExecutorTest, VariableFetchCopyUnderInjectionReturnsStatus) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{512}, "x");
  auto v = ops::Variable(s, "v", DType::kF64, Shape{512});
  // Assign a computed value, so the variable holds a device-attributed
  // buffer and fetching it takes the detach copy.
  auto init = ops::Assign(s, v, ops::Add(s, x, x));
  auto sess = rt.NewSession();
  const Tensor feed = Tensor::FromVector(std::vector<double>(512, 1.0));
  ASSERT_TRUE(sess->Run({{"x", feed}}, {init.name()}).ok());

  AllocFaultSpec spec;
  spec.every_nth = 1;
  AllocFaultInjector::Global().Install(spec);
  auto r = sess->Run({}, {v.name()});
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();

  auto r2 = sess->Run({}, {v.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[511], 2.0);
}

TEST(OomExecutorTest, LargeConstCompilesWithoutGc017UnderInjection) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  // A 64 KiB Const: type-checking it must read its header, not copy it.
  auto c = ops::Const(s, Tensor::FromVector(std::vector<double>(8192, 1.0)),
                      "c");
  auto x = ops::Placeholder(s, DType::kF64, Shape{8192}, "x");
  auto y = ops::Add(s, c, x);
  auto sess = rt.NewSession();
  sess->set_graph_check_mode(GraphCheckMode::kStrict);

  AllocFaultSpec spec;
  spec.every_nth = 1;
  AllocFaultInjector::Global().Install(spec);
  auto exe = sess->Prepare({"x"}, {y.name()});
  AllocFaultInjector::Global().Disarm();
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  EXPECT_GT((*exe)->static_peak_bytes(), 0)
      << "the graph checked clean, so the step has a memory plan";
}

// ---- taxonomy helpers and retry classification ------------------------------

TEST(OomTaxonomyTest, TransientConstructorTagsAndClassifies) {
  Status t = TransientResourceExhausted("pool pressure");
  EXPECT_EQ(t.code(), Code::kResourceExhausted);
  EXPECT_TRUE(IsTransientResourceExhausted(t));
  // Idempotent: re-wrapping an already-tagged message does not double-tag.
  Status tt = TransientResourceExhausted(t.message());
  EXPECT_EQ(tt.message(), t.message());

  Status p = ResourceExhausted("per-step budget breach");
  EXPECT_FALSE(IsTransientResourceExhausted(p));
  EXPECT_FALSE(IsTransientResourceExhausted(Unavailable("not RE at all")));
}

TEST(OomTaxonomyTest, RetryPolicyRetriesTransientButNotPermanent) {
  // By code alone kResourceExhausted stays non-retryable (fault_tolerance
  // contract); the Status-level overload consults the transient tag.
  EXPECT_FALSE(IsRetryableCode(Code::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(TransientResourceExhausted("pool pressure")));
  EXPECT_FALSE(IsRetryable(ResourceExhausted("fixed limit")));
  EXPECT_TRUE(IsRetryable(Unavailable("link down")));

  // CallWithRetry end-to-end: a transient OOM that clears on the second
  // attempt succeeds; a permanent one surfaces immediately.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  int transient_calls = 0;
  Status st = distrib::CallWithRetry(policy, 1, [&]() -> Status {
    return ++transient_calls == 1 ? TransientResourceExhausted("once")
                                  : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(transient_calls, 2);

  int permanent_calls = 0;
  st = distrib::CallWithRetry(policy, 2, [&]() -> Status {
    ++permanent_calls;
    return ResourceExhausted("always");
  });
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_EQ(permanent_calls, 1) << "permanent OOM must not burn retries";
}

TEST(OomTaxonomyTest, TransientBitSurvivesTheWire) {
  wire::RpcEnvelope e;
  e.method = "RunStep";
  e.status_code = static_cast<int32_t>(Code::kResourceExhausted);
  e.status_msg = "injected allocation failure (1024 bytes)";
  e.transient = true;
  auto r = wire::RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->transient);
  EXPECT_EQ(r->status_msg, e.status_msg);

  e.transient = false;
  auto r2 = wire::RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->transient);
}

// ---- serving: byte-budget admission -----------------------------------------

TEST(OomServingTest, OversizeEstimateRejectedPermanently) {
  ServingOptions opts;
  opts.max_estimated_bytes = 1000;
  ServingController ctl(opts);
  Status st = ctl.Admit("greedy", nullptr, 1500);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_FALSE(IsTransientResourceExhausted(st))
      << "an estimate that can never fit must not be retried: "
      << st.ToString();
  EXPECT_EQ(ctl.stats().rejected_oversize, 1);
  EXPECT_EQ(ctl.stats().inflight, 0);
  EXPECT_EQ(ctl.stats().inflight_bytes, 0);
}

TEST(OomServingTest, ByteBudgetQueuesUntilHeadroomReturns) {
  ServingOptions opts;
  opts.max_inflight = 8;  // slots are plentiful; bytes are the constraint
  opts.max_queued = 8;
  opts.max_estimated_bytes = 1000;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("a", nullptr, 600).ok());
  EXPECT_EQ(ctl.stats().inflight_bytes, 600);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(ctl.Admit("b", nullptr, 600).ok());  // 1200 > 1000: waits
    granted.store(true);
    ctl.Release(600);
  });
  while (ctl.stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load()) << "no byte headroom yet";
  ctl.Release(600);  // frees the bytes -> queued ticket is granted
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(ctl.stats().inflight_bytes, 0);
  EXPECT_EQ(ctl.stats().inflight, 0);
  EXPECT_EQ(ctl.stats().completed, 2);
}

// ---- serving: a worker admits RunSteps by their static peak -------------------

class OomServerAdmissionTest : public ::testing::Test {
 protected:
  // A worker at `addr` with two execution slots (slots never bind here)
  // and a byte budget of `budget` bytes.
  std::unique_ptr<Server> StartServer(const std::string& addr,
                                      int64_t budget) {
    wire::ClusterDef def;
    wire::JobDef worker;
    worker.name = "worker";
    worker.task_addrs = {addr};
    def.jobs = {worker};
    auto spec = ClusterSpec::Create(def).value();
    ServerDef sdef{spec, "worker", 0, 0};
    sdef.max_inflight_steps = 2;
    sdef.serving.max_estimated_bytes = budget;
    auto server = Server::Create(sdef, &router_).value();
    EXPECT_TRUE(RemoteTask(&router_, addr, WireProtocol::kRdma)
                    .ExtendGraph(graph_.ToGraphDef())
                    .ok());
    return server;
  }

  // The static peak the worker computes for a signature.
  static int64_t StaticPeak(Server& server,
                            const std::vector<std::string>& fetches,
                            const std::vector<std::string>& targets = {}) {
    auto exe = server.session().Prepare({}, fetches, targets);
    EXPECT_TRUE(exe.ok()) << exe.status().ToString();
    return exe.ok() ? (*exe)->static_peak_bytes() : -1;
  }

  // Polls `pred` for up to 10 s; false on timeout, so a regression fails
  // the test instead of hanging it.
  static bool WaitFor(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  InProcessRouter router_;
  Graph graph_;
};

TEST_F(OomServerAdmissionTest, StaticPeakAboveBudgetIsRefusedPermanently) {
  Scope s(&graph_);
  auto x = ops::Const(s, Tensor::FromVector(std::vector<double>(512, 1.5)));
  auto y = ops::Add(s, x, x);
  int64_t peak = 0;
  {
    auto probe = StartServer("adm-probe:1", 0);
    peak = StaticPeak(*probe, {y.name()});
    probe->Shutdown();
  }
  ASSERT_GT(peak, 0);

  auto tight = StartServer("adm-tight:1", peak - 1);
  auto r = RemoteTask(&router_, "adm-tight:1", WireProtocol::kRdma)
               .RunStep({}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_FALSE(IsTransientResourceExhausted(r.status()))
      << "a step whose static peak can never fit must not be retried";
  EXPECT_EQ(tight->serving_stats().rejected_oversize, 1);
  EXPECT_EQ(tight->serving_stats().admitted, 0);
  tight->Shutdown();

  auto exact = StartServer("adm-exact:1", peak);
  auto ok = RemoteTask(&router_, "adm-exact:1", WireProtocol::kRdma)
                .RunStep({}, {y.name()});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_DOUBLE_EQ((*ok)[0].data<double>()[511], 3.0);
  EXPECT_EQ(exact->serving_stats().rejected_oversize, 0);
  EXPECT_EQ(exact->serving_stats().completed, 1);
  exact->Shutdown();
}

TEST_F(OomServerAdmissionTest, UnplannedStepWaitsForThePlannedStepInFlight) {
  // Planned step: a statically shaped Add plus a _Recv that parks the step
  // in flight until the test sends its gate tensor.
  Scope s(&graph_);
  auto c = ops::Const(s, Tensor::FromVector(std::vector<double>(64, 2.0)));
  auto sum = ops::Add(s, c, c);
  auto gate = ops::Recv(s, "adm_bytes_gate");
  constexpr int64_t kBudget = 1 << 20;
  auto server = StartServer("adm-queue:1", kBudget);
  const int64_t planned_peak = StaticPeak(*server, {sum.name(), gate.name()});
  ASSERT_GT(planned_peak, 0);
  ASSERT_LT(planned_peak, kBudget);

  Status planned_status, unplanned_status;
  std::thread planned([&] {
    auto token = CancellationToken::WithTimeout(10000);
    planned_status = RemoteTask(&router_, "adm-queue:1", WireProtocol::kRdma)
                         .RunStep({}, {sum.name(), gate.name()}, {}, false,
                                  token.get())
                         .status();
  });
  EXPECT_TRUE(WaitFor([&] { return server->serving_stats().inflight == 1; }));

  // Unplanned step: an Assign whose `var` names no Variable node. GraphCheck
  // reports GC016 (an ERROR) on the step that schedules it and the default
  // warn mode still runs it, but no memory plan is computed while the step
  // has errors.
  Graph extra;
  Scope xs(&extra);
  auto seed = ops::Const(xs, Tensor::FromVector(std::vector<double>(4, 1.0)),
                         "stray_seed");
  Node* stray = xs.AddNode("Assign", {seed.name()},
                           {{"var", wire::AttrValue::Str("no_such_var")}},
                           "stray_assign");
  EXPECT_TRUE(RemoteTask(&router_, "adm-queue:1", WireProtocol::kRdma)
                  .ExtendGraph(extra.ToGraphDef())
                  .ok());
  EXPECT_EQ(StaticPeak(*server, {}, {stray->name()}), 0);

  // A slot is free, but the unplanned step is charged the whole budget and
  // the planned step holds part of it: the unplanned step must queue.
  std::thread unplanned([&] {
    auto token = CancellationToken::WithTimeout(10000);
    unplanned_status =
        RemoteTask(&router_, "adm-queue:1", WireProtocol::kRdma)
            .RunStep({}, {}, {stray->name()}, false, token.get())
            .status();
  });
  EXPECT_TRUE(WaitFor([&] { return server->serving_stats().queued == 1; }))
      << "the unplanned step was admitted beside the planned one";
  EXPECT_EQ(server->serving_stats().inflight, 1);
  EXPECT_EQ(server->serving_stats().inflight_bytes, planned_peak);

  EXPECT_TRUE(RemoteTask(&router_, "adm-queue:1", WireProtocol::kRdma)
                  .RendezvousSend("adm_bytes_gate", Tensor::Scalar(1.0))
                  .ok());
  planned.join();
  unplanned.join();
  EXPECT_TRUE(planned_status.ok()) << planned_status.ToString();
  EXPECT_TRUE(unplanned_status.ok()) << unplanned_status.ToString();
  const ServingStats stats = server->serving_stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected_oversize, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
  server->Shutdown();
}

TEST_F(OomServerAdmissionTest, StrayWriterLeavesUnrelatedStepsPlanned) {
  // The bad Assign (GC016: its `var` names no Variable) is in the graph
  // before any step compiles. Only a step that schedules it loses its plan.
  Scope s(&graph_);
  auto seed = ops::Const(s, Tensor::FromVector(std::vector<double>(4, 1.0)),
                         "stray_seed");
  Node* stray = s.AddNode("Assign", {seed.name()},
                          {{"var", wire::AttrValue::Str("no_such_var")}},
                          "stray_assign");
  auto c = ops::Const(s, Tensor::FromVector(std::vector<double>(64, 2.0)));
  auto sum = ops::Add(s, c, c);
  auto gate = ops::Recv(s, "adm_stray_gate");
  auto product = ops::Mul(s, c, c);
  constexpr int64_t kBudget = 1 << 20;
  auto server = StartServer("adm-stray:1", kBudget);
  EXPECT_EQ(StaticPeak(*server, {}, {stray->name()}), 0);
  const int64_t parked_peak = StaticPeak(*server, {sum.name(), gate.name()});
  const int64_t product_peak = StaticPeak(*server, {product.name()});
  ASSERT_GT(parked_peak, 0);
  ASSERT_GT(product_peak, 0);
  ASSERT_LE(parked_peak + product_peak, kBudget);

  Status parked_status;
  std::thread parked([&] {
    auto token = CancellationToken::WithTimeout(10000);
    parked_status = RemoteTask(&router_, "adm-stray:1", WireProtocol::kRdma)
                        .RunStep({}, {sum.name(), gate.name()}, {}, false,
                                 token.get())
                        .status();
  });
  EXPECT_TRUE(WaitFor([&] { return server->serving_stats().inflight == 1; }));
  EXPECT_EQ(server->serving_stats().inflight_bytes, parked_peak);

  // A second planned step is admitted beside the parked one and finishes
  // while it is still in flight. Had the parked step been charged the whole
  // budget, this one would queue until its deadline.
  auto token = CancellationToken::WithTimeout(5000);
  auto r = RemoteTask(&router_, "adm-stray:1", WireProtocol::kRdma)
               .RunStep({}, {product.name()}, {}, false, token.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[63], 4.0);
  }
  EXPECT_EQ(server->serving_stats().inflight, 1);
  EXPECT_EQ(server->serving_stats().completed, 1);

  EXPECT_TRUE(RemoteTask(&router_, "adm-stray:1", WireProtocol::kRdma)
                  .RendezvousSend("adm_stray_gate", Tensor::Scalar(1.0))
                  .ok());
  parked.join();
  EXPECT_TRUE(parked_status.ok()) << parked_status.ToString();
  const ServingStats stats = server->serving_stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
  server->Shutdown();
}

// ---- distributed: OOM as a wire status, step retry recovers ------------------

class OomDistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalAllocatorGuard::Reset();
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = {"oom-w0:1", "oom-w1:1"};
    def.jobs = {workers};
    spec_ = std::make_unique<ClusterSpec>(ClusterSpec::Create(def).value());
    ServerDef w0{*spec_, "worker", 0, 0};
    ServerDef w1{*spec_, "worker", 1, 0};
    w0_ = Server::Create(w0, &router_).value();
    w1_ = Server::Create(w1, &router_).value();
  }
  void TearDown() override { GlobalAllocatorGuard::Reset(); }

  DeviceName WorkerDev() {
    DeviceName d;
    d.job = "worker";
    d.task = 0;
    return d;
  }

  InProcessRouter router_;
  std::unique_ptr<ClusterSpec> spec_;
  std::unique_ptr<Server> w0_, w1_;
};

TEST_F(OomDistTest, TransientOomCrossesTheWireAsRetryableStatus) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{512}, "x");
  auto y = ops::Add(s, x, x);
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kRdma);  // NoRetry
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  const Tensor feed = Tensor::FromVector(std::vector<double>(512, 1.0));

  AllocFaultSpec spec;
  spec.every_nth = 1;
  AllocFaultInjector::Global().Install(spec);
  auto r = w0.RunStep({{"x", feed}}, {y.name()});
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status()))
      << "the transient bit must survive serialization: "
      << r.status().ToString();
  EXPECT_TRUE(IsRetryable(r.status()));

  // The worker is fully serviceable after the unwound step.
  auto r2 = w0.RunStep({{"x", feed}}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[0], 2.0);
}

TEST_F(OomDistTest, StepRetryRecoversFromTransientOom) {
  // A one-shot injected OOM (budgeted to cover exactly one allocation's
  // trim-retry pair) fails the first step attempt; the session unwinds the
  // step, classifies the transient kResourceExhausted as recoverable, and
  // the retried attempt — its injection budget spent — completes cleanly.
  // The whole graph is pinned to task 0 so the injector's failure budget is
  // consumed deterministically by one worker.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto x = ops::Placeholder(t0, DType::kF64, Shape{512}, "x");
  auto y = ops::Add(t0, x, x);
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Tensor feed = Tensor::FromVector(std::vector<double>(512, 3.0));

  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.max_failures = 2;  // both attempts of one allocation's retry loop
  AllocFaultInjector::Global().Install(spec);

  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.step_timeout_ms = 10000;
  FaultReport report;
  auto r = (*session)->Run({{"x", feed}}, {y.name()}, recovery, &report);
  AllocFaultInjector::Global().Disarm();
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 6.0);
  EXPECT_EQ(report.step_attempts, 2) << report.ToString();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.first_error.code(), Code::kResourceExhausted)
      << report.first_error.ToString();
}

TEST_F(OomDistTest, MpiVarAssignAddUnderPressureFailsCleanlyAndAppliesOnce) {
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kMpi);  // NoRetry
  constexpr int64_t kMib = 1 << 20;
  constexpr int64_t kN = kMib / static_cast<int64_t>(sizeof(double));
  const Tensor init = Tensor::FromVector(std::vector<double>(kN, 1.0));
  const Tensor delta = Tensor::FromVector(std::vector<double>(kN, 2.0));
  ASSERT_TRUE(w0.VarAssign("v", init).ok());

  // No headroom: the server's receive-side staging copy fails. 1 MiB plus
  // slack: the staging copy fits, the accumulate clone does not.
  for (int64_t headroom : {int64_t{0}, kMib + 64 * 1024}) {
    BufferPool::Global().Trim();
    MemoryLimiter::Process().set_limit(MemoryLimiter::Process().used() +
                                       headroom);
    const Status st = w0.VarAssignAdd("v", delta);
    MemoryLimiter::Process().set_limit(0);
    ASSERT_FALSE(st.ok()) << "headroom " << headroom;
    EXPECT_EQ(st.code(), Code::kResourceExhausted) << st.ToString();
    EXPECT_TRUE(IsTransientResourceExhausted(st))
        << "the transient bit must cross the wire: " << st.ToString();
    auto value = w0.VarRead("v");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_DOUBLE_EQ(value->data<double>()[0], 1.0) << "headroom " << headroom;
    EXPECT_DOUBLE_EQ(value->data<double>()[kN - 1], 1.0)
        << "headroom " << headroom;
  }

  // With the limit lifted a retry applies the delta exactly once.
  ASSERT_TRUE(w0.VarAssignAdd("v", delta).ok());
  auto value = w0.VarRead("v");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_DOUBLE_EQ(value->data<double>()[0], 3.0);
  EXPECT_DOUBLE_EQ(value->data<double>()[kN - 1], 3.0);
}

// A Dequeue response is copied out on the client after the server popped
// the element: a tensor produced by a worker step carries the worker
// device's allocator attribution, and the server's replay cache still holds
// the response, so the client detaches it with a copy. A failed copy must
// not look retryable: a retried Dequeue would wait for (or take) a
// different element.
TEST_F(OomDistTest, MpiDequeueCopyOomAfterThePopIsNotRetryable) {
  Graph g;
  Scope s(&g);
  auto push = ops::QueueEnqueue(
      s, "q", ops::Fill(s, DType::kF64, Shape{8192}, 7.0));
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kMpi);  // NoRetry
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  ASSERT_TRUE(w0.RunStep({}, {}, {push.node->name()}).ok());

  // Only tensor-sized allocations are eligible: the client's 64 KiB copy of
  // the response is the one that fails.
  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.min_bytes = 4096;
  AllocFaultInjector::Global().Install(spec);
  auto r = w0.Dequeue("q");
  const int64_t injected = AllocFaultInjector::Global().injected();
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_GT(injected, 0);
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted)
      << r.status().ToString();
  EXPECT_FALSE(IsRetryable(r.status()))
      << "the server already popped the element: " << r.status().ToString();
}

TEST_F(OomDistTest, MpiDequeueRetriesTheLocalCopyNotTheCall) {
  Graph g;
  Scope s(&g);
  auto push7 = ops::QueueEnqueue(
      s, "q", ops::Fill(s, DType::kF64, Shape{8192}, 7.0));
  auto push8 = ops::QueueEnqueue(
      s, "q", ops::Fill(s, DType::kF64, Shape{8192}, 8.0));
  RetryPolicy retry;
  retry.max_attempts = 4;
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kMpi, retry);
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  ASSERT_TRUE(w0.RunStep({}, {}, {push7.node->name()}).ok());
  ASSERT_TRUE(w0.RunStep({}, {}, {push8.node->name()}).ok());

  // Both attempts of the first copy's trim-retry loop fail. The copy is
  // retried on the response in hand; the Dequeue is not re-sent.
  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.min_bytes = 4096;
  spec.max_failures = 2;
  AllocFaultInjector::Global().Install(spec);
  const int64_t retries_before = w0.retries();
  auto first = w0.Dequeue("q");
  const int64_t injected = AllocFaultInjector::Global().injected();
  AllocFaultInjector::Global().Disarm();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(injected, 2);
  EXPECT_DOUBLE_EQ(first->data<double>()[0], 7.0);
  EXPECT_EQ(w0.retries(), retries_before);

  auto second = w0.Dequeue("q");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_DOUBLE_EQ(second->data<double>()[0], 8.0);
}

// A step the worker completed, whose fetch copy then fails on the client,
// must not be re-run by step-level recovery: its AssignAdd was applied.
TEST_F(OomDistTest, AppliedStepIsNotRerunWhenItsFetchCopyFails) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto counter = ops::Variable(t0, "counter", DType::kF64, Shape{8});
  auto big = ops::Variable(t0, "big", DType::kF64, Shape{8192});
  auto bump = ops::AssignAdd(
      t0, counter,
      ops::Const(t0, Tensor::FromVector(std::vector<double>(8, 1.0))));
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Written over the wire, the values carry no worker-device attribution,
  // so the worker fetches them without a copy.
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kRdma);
  ASSERT_TRUE(
      w0.VarAssign("counter", Tensor::FromVector(std::vector<double>(8))).ok());
  ASSERT_TRUE(
      w0.VarAssign("big", Tensor::FromVector(std::vector<double>(8192, 5.0)))
          .ok());

  // The worker's allocations in this step are 64 B; only the client's
  // 64 KiB copy of the fetched `big` value is eligible, and it always fails.
  // `big` is fetched first: a RunStep response carries its last fetch as a
  // view the client adopts without a copy, and every other fetch inline.
  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.min_bytes = 4096;
  AllocFaultInjector::Global().Install(spec);
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.step_timeout_ms = 10000;
  FaultReport report;
  auto r = (*session)->Run({}, {big.name(), bump.name()}, recovery, &report);
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted)
      << r.status().ToString();
  EXPECT_FALSE(IsRetryable(r.status())) << r.status().ToString();
  EXPECT_EQ(report.step_attempts, 1) << report.ToString();

  auto after = (*session)->Run({}, {counter.name()});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_DOUBLE_EQ((*after)[0].data<double>()[0], 1.0)
      << "the AssignAdd must be applied exactly once";
}

TEST_F(OomDistTest, ServerWideStepBudgetRejectsPermanently) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{4096}, "x");
  auto y = ops::Add(s, x, x);

  wire::ClusterDef def;
  wire::JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"oom-tight:1"};
  def.jobs = {worker};
  auto spec = ClusterSpec::Create(def).value();
  ServerDef sdef{spec, "worker", 0, 0};
  sdef.step_memory_limit_bytes = 1024;  // output needs 32 KB
  auto server = Server::Create(sdef, &router_).value();

  RemoteTask c(&router_, "oom-tight:1", WireProtocol::kRdma);
  ASSERT_TRUE(c.ExtendGraph(g.ToGraphDef()).ok());
  const Tensor feed = Tensor::FromVector(std::vector<double>(4096, 1.0));
  auto r = c.RunStep({{"x", feed}}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_FALSE(IsTransientResourceExhausted(r.status()))
      << "per-step budget breaches must not be marked retryable";
  server->Shutdown();
}

}  // namespace
}  // namespace tfhpc
