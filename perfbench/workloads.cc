#include "workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>

#include "apps/app_graphs.h"
#include "apps/cg.h"
#include "apps/tiled_matmul.h"
#include "core/rng.h"
#include "distrib/client.h"
#include "layers.h"

namespace perfbench {

using tfhpc::DType;
using tfhpc::Shape;
using tfhpc::Tensor;
using tfhpc::distrib::RemoteTask;
using tfhpc::distrib::WireProtocol;

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Workload::Fail(Phase* phase, const std::string& why) {
  ++phase->failed;
  Report(why);
}

void Workload::Report(const std::string& why) {
  if (reported_++ < 5) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", why.c_str());
  }
}

namespace {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

Metrics NoAdmissionControl() { return ServingDeltas({}, {}); }

// ---- cg_solve ----------------------------------------------------------------
// Independent distributed CG solves, one at a time (closed loop, one
// caller). Each solve boots its cluster, compiles the worker steps and runs
// about seven iterations of five tiny steps and three queue round trips per
// worker: executor dispatch, small RPCs and compilation dominate, not
// arithmetic (paper §VIII's latency-bound regime).
class CgSolve final : public Workload {
 public:
  CgSolve(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    options_.n = kN;
    options_.num_workers = 2;
    // A tolerance the solver reaches. With tolerance 0 RunCgFunctional runs
    // past convergence and returns OK with a NaN residual; the residual
    // check would count such a solve as failed.
    options_.tolerance = 1e-20;
  }

  void Setup() override {
    Phase warm;
    for (int i = 0; i < 8; ++i) Solve(Mix(seed_, 1, i), &warm, nullptr);
    if (warm.failed > 0) Die("cg_solve warm-up failed");
  }

  Phase Measure(double seconds, bool, Tracer* tracer) override {
    Phase p;
    auto prev = p.start;
    for (uint64_t i = 0; SecondsSince(p.start) < seconds; ++i) {
      p.lag_ms.push_back(MsBetween(prev, Clock::now()));
      Solve(Mix(seed_, 2, i), &p, tracer);
      prev = Clock::now();
    }
    p.elapsed_s = SecondsSince(p.start);
    p.throughput_ops_s = WindowedRate(p.done_s, window_s(), p.elapsed_s);
    p.extra = {{"cg.iterations", Median(iterations_), "count"},
               {"cg.iter_us", Median(iter_us_), "us"},
               {"cg.boot_ms", Median(boot_ms_), "ms"}};
    p.layer = NoAdmissionControl();
    iterations_.clear();
    iter_us_.clear();
    boot_ms_.clear();
    return p;
  }

  Metrics Probe(Tracer* tracer) override {
    constexpr int64_t rows = kN / 2;
    const Tensor a = tfhpc::RandomSpdMatrix(kN, seed_);
    Tensor block(DType::kF64, Shape{rows, kN});
    std::copy_n(a.data<double>().data(), rows * kN,
                block.mutable_data<double>());
    auto vec = [&](int64_t len, uint64_t stream) {
      Tensor t(DType::kF64, Shape{len});
      tfhpc::FillUniform(t, Mix(seed_, 3, stream));
      return t;
    };
    const Tensor p = vec(kN, 0), u = vec(rows, 1), v = vec(rows, 2);
    const Tensor ax = vec(kN, 3), ay = vec(kN, 4);
    Metrics m = ProbeSteps(
        [&](const tfhpc::Scope& scope) {
          const auto g = tfhpc::apps::BuildCgWorkerGraph(scope, rows, kN);
          const ProbeStep axpy{{{g.alpha, Tensor::Scalar(0.5)}, {g.ax, ax},
                                {g.ay, ay}},
                               {g.axpy},
                               {}};
          const ProbeStep dot{{{g.u, u}, {g.v, v}}, {g.dot}, {}};
          StepPlan plan;
          plan.init = {{{{g.a_feed, block}}, {}, {g.a_init}}};
          plan.steps = {{{{g.p, p}}, {g.ap}, {}}, dot, axpy, axpy, dot};
          return plan;
        },
        200, tracer);
    Append(&m, ProbeWire(u, tracer));
    Append(&m, ProbeRpc(u, p, tracer));
    Append(&m, ProbeLoadTile(work_dir_ + "/tiles", seed_, tracer));
    return m;
  }

 private:
  static constexpr int64_t kN = 256;

  void Solve(uint64_t seed, Phase* p, Tracer* tracer) {
    const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
    Span root(tracer, "op.cg_solve", 0, op);
    ++p->attempted;
    const auto t0 = Clock::now();
    auto r = [&] {
      Span s(tracer, "apps.RunCgFunctional", root.id(), op);
      return tfhpc::apps::RunCgFunctional(options_, seed, WireProtocol::kRdma);
    }();
    const double ms = MsBetween(t0, Clock::now());
    if (!r.ok()) return Fail(p, r.status().ToString());
    Span check(tracer, "check.cg_residual", root.id(), op);
    const std::string why = CheckCgSolution(kN, seed, r->solution);
    if (!why.empty()) return Fail(p, "cg_solve: " + why);
    p->Done(ms);
    iterations_.push_back(r->iterations);
    iter_us_.push_back(r->seconds / std::max(1, r->iterations) * 1e6);
    boot_ms_.push_back(ms - r->seconds * 1e3);
  }

  // The worker side of one CG iteration's reductions, replayed against a
  // queue server of the benchmark's own so its transport counters are
  // readable: the row-block slice out and the full vector back, then two
  // scalar round trips. The reducer's half runs locally on the server's
  // queues, as the app's reducer thread does.
  Metrics ProbeRpc(const Tensor& slice, const Tensor& full, Tracer* tracer) {
    tfhpc::distrib::InProcessRouter router;
    auto ps = StartServer(&router, "ps", "probe-ps:1", 0);
    RemoteTask client(&router, "probe-ps:1", WireProtocol::kRdma);
    auto queue = [&](const char* name) {
      auto q = ps->resources().LookupOrCreateQueue(name);
      if (!q.ok()) Die(q.status().ToString());
      return *q;
    };
    tfhpc::FIFOQueue* ap_in = queue("ap_in");
    tfhpc::FIFOQueue* ap_out = queue("ap_out");
    tfhpc::FIFOQueue* dot_in = queue("dot_in");
    tfhpc::FIFOQueue* dot_out = queue("dot_out");
    std::vector<double> call_us;
    auto timed = [&](const char* name, auto&& call) {
      Span span(tracer, name, 0, 0);
      const auto t0 = Clock::now();
      const tfhpc::Status s = call();
      call_us.push_back(UsSince(t0));
      if (!s.ok()) Die(s.ToString());
    };
    auto round_trip = [&](const Tensor& out, const Tensor& back,
                          tfhpc::FIFOQueue* in_q, tfhpc::FIFOQueue* out_q,
                          const char* in_name, const char* out_name) {
      timed("probe.client.Enqueue",
            [&] { return client.Enqueue(in_name, out); });
      if (!out_q->Enqueue(back).ok() || !in_q->Dequeue().ok()) {
        Die("local queue operation failed");
      }
      timed("probe.client.Dequeue",
            [&] { return client.Dequeue(out_name).status(); });
    };
    const Tensor scalar = Tensor::Scalar(1.0);
    const TransportCounts before = ReadTransport(router, WireProtocol::kRdma);
    for (int r = 0; r < 200; ++r) {
      round_trip(slice, full, ap_in, ap_out, "ap_in", "ap_out");
      for (int k = 0; k < 2; ++k) {
        round_trip(scalar, scalar, dot_in, dot_out, "dot_in", "dot_out");
      }
    }
    Metrics m = TransportPerCall(before,
                                 ReadTransport(router, WireProtocol::kRdma));
    m.push_back({"client.call_us", Median(call_us), "us"});
    ps->Shutdown();
    return m;
  }

  const uint64_t seed_;
  const std::string work_dir_;
  tfhpc::apps::CgOptions options_;
  std::vector<double> iterations_, iter_us_, boot_ms_;
};

// ---- serve_open ------------------------------------------------------------
// serving_load's signature: y = x * 2 followed by eight y = y + y.
tfhpc::Output BuildServeGraph(const tfhpc::Scope& s) {
  auto x = tfhpc::ops::Placeholder(s, DType::kF64, Shape{64}, "x");
  auto y = tfhpc::ops::Mul(s, x, tfhpc::ops::Const(s, Tensor::Scalar(2.0)));
  for (int i = 0; i < 8; ++i) y = tfhpc::ops::Add(s, y, y);
  return y;
}

// Open-loop RunRegisteredStep against one worker behind ServingController:
// four senders, each with its own client id and a seeded Poisson schedule,
// share one registered step, so admission, the small RPC path and
// concurrent dispatch over one cached Executable carry the load. A request
// is timed from its issue; how late the senders issued is reported apart
// (bench.generator_lag_ms), because their wake-ups from sleep run up to
// milliseconds late on a shared host and would otherwise leak into the
// next request's latency. The ladder, which is about backlog, times from
// the due time.
class ServeOpen final : public Workload {
 public:
  explicit ServeOpen(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    for (int i = 0; i < kFeeds; ++i) {
      Tensor x(DType::kF64, Shape{64});
      tfhpc::FillUniform(x, Mix(seed_, 4, i), -1.0, 1.0);
      feeds_.push_back(x);
    }
  }

  void Setup() override {
    fx_ = std::make_unique<Fixture>();
    fx_->server = StartServer(&fx_->router, "worker", kAddr, 0, kMaxInflight);
    RemoteTask setup(&fx_->router, kAddr, WireProtocol::kRdma);
    tfhpc::Graph g;
    const tfhpc::Output y = BuildServeGraph(tfhpc::Scope(&g));
    if (!setup.ExtendGraph(g.ToGraphDef()).ok()) Die("ExtendGraph failed");
    auto handle = setup.RegisterStep({"x"}, {y.name()});
    if (!handle.ok()) Die(handle.status().ToString());
    fx_->handle = *handle;
    for (int i = 0; i < kSenders; ++i) {
      fx_->senders.push_back(
          std::make_unique<RemoteTask>(&fx_->router, kAddr, WireProtocol::kRdma));
    }
    const Rung warm = RunRate(kReferenceRate, 0.05, 999, nullptr, kSenders);
    if (warm.failed > 0) Die("serve_open warm-up failed");
  }
  void Teardown() override { fx_.reset(); }

  double window_s() const override { return kWindow; }

  Phase Measure(double seconds, bool full, Tracer* tracer) override {
    Phase p;
    const tfhpc::ServingStats serving0 = fx_->server->serving_stats();
    const TransportCounts transport0 =
        ReadTransport(fx_->router, WireProtocol::kRdma);
    // Three kinds of window alternate, so a slow spell of the host hits
    // them alike: all senders open-loop at the reference rate, one sender closed-loop (the latency of a request on
    // an otherwise idle server), all senders closed-loop (capacity; not in
    // the traced run). The open-loop latency is reported but not gated: an
    // idle CPU between requests lets the host's other work evict this
    // one's caches, so it moved by up to 40% from run to run where the
    // closed loops moved by a few percent. For the same reason the traced
    // run's overhead is taken on the one-sender loop.
    const int kinds = full ? 3 : 2;
    const int cycles = std::max(
        1, static_cast<int>(seconds * (full ? kCycleShare : 1.0) /
                            (kinds * kWindow)));
    Rung ref, one;
    std::vector<double> capacity;
    auto add = [&](const Rung& r, int c, Rung* to) {
      p.attempted += r.attempted;
      p.failed += r.failed;
      for (size_t i = 0; i < r.latency_ms.size(); ++i) {
        to->latency_ms.push_back(r.latency_ms[i]);
        to->done_s.push_back(c * kWindow +
                             std::min(r.done_s[i], 0.999 * kWindow));
      }
      to->lag_ms.insert(to->lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    };
    for (int c = 0; c < cycles; ++c) {
      add(RunRate(kReferenceRate, kWindow, c, tracer, kSenders), c, &ref);
      add(RunRate(0, kWindow, cycles + c, tracer, 1), c, &one);
      if (!full) continue;
      Rung closed;
      add(RunRate(0, kWindow, 2 * cycles + c, nullptr, kSenders), c, &closed);
      capacity.push_back(static_cast<double>(closed.latency_ms.size()) /
                         kWindow);
    }
    p.layer = ServingDeltas(serving0, fx_->server->serving_stats());
    Append(&p.layer, TransportPerCall(
                         transport0,
                         ReadTransport(fx_->router, WireProtocol::kRdma)));
    p.layer.push_back({"client.call_us", Median(ref.latency_ms) * 1e3, "us"});
    p.lag_ms = ref.lag_ms;
    p.throughput_ops_s =
        full ? Median(capacity)
             : static_cast<double>(one.latency_ms.size()) / (cycles * kWindow);
    p.latency_ms = std::move(one.latency_ms);
    p.done_s = std::move(one.done_s);
    if (full) {
      p.extra = {{"reference.latency_p50_ms",
                  WindowedQuantile(ref.done_s, ref.latency_ms, kWindow, 0.5),
                  "ms"},
                 {"reference.latency_p99_ms",
                  WindowedQuantile(ref.done_s, ref.latency_ms, kWindow, 0.99),
                  "ms"}};
      Ladder(p.throughput_ops_s, &p);
    }
    p.elapsed_s = SecondsSince(p.start);
    return p;
  }

  Metrics Probe(Tracer* tracer) override {
    Metrics m = ProbeSteps(
        [&](const tfhpc::Scope& s) {
          StepPlan plan;
          plan.steps = {{{{"x", feeds_[0]}}, {BuildServeGraph(s).name()}, {}}};
          return plan;
        },
        300, tracer);
    Append(&m, ProbeWire(feeds_[0], tracer));
    Append(&m, ProbeLoadTile(work_dir_ + "/tiles", seed_, tracer));
    return m;
  }

 private:
  // max_rate_at_slo: the highest open-loop rate whose p99 stays within
  // the limit with no request left unsent. The ladder climbs from 40% to
  // 100% of the measured capacity in steps of 5% of it, and stops after
  // two failing rungs in a row.
  void Ladder(double capacity, Phase* p) {
    double max_rate = 0;
    int misses = 0;
    for (int k = 0; k <= kLadderRungs && misses < 2; ++k) {
      const double rate = capacity * (kLadderFrom + kLadderStep * k);
      const Rung r = RunRate(rate, kRungSeconds, 1000 + k, nullptr, kSenders);
      p->attempted += r.attempted;
      p->failed += r.failed;
      const double p99 = Quantile(r.due_latency_ms, 0.99);
      const bool pass = r.failed == 0 && r.unsent == 0 && p99 <= kSloP99Ms;
      misses = pass ? 0 : misses + 1;
      if (pass) max_rate = rate;
    }
    p->extra.push_back({"max_rate_at_slo", max_rate, "1/s"});
    p->extra.push_back(
        {"max_rate_at_slo.share_of_capacity", max_rate / capacity, "ratio"});
  }

  static constexpr const char* kAddr = "serve:1";
  static constexpr int kSenders = 4;
  static constexpr int kFeeds = 64;
  static constexpr int kMaxInflight = 2;
  static constexpr int64_t kDeadlineMs = 1000;
  // Latency percentiles are reported at this fixed offered rate.
  static constexpr double kReferenceRate = 4000;
  static constexpr double kWindow = 0.5;
  // Share of an untraced run spent in reference and closed-loop windows;
  // the ladder takes the rest.
  static constexpr double kCycleShare = 0.75;
  static constexpr double kSloP99Ms = 5.0;
  static constexpr double kRungSeconds = 0.25;
  static constexpr double kLadderFrom = 0.40;
  static constexpr double kLadderStep = 0.05;
  static constexpr int kLadderRungs = 12;

  struct Fixture {
    tfhpc::distrib::InProcessRouter router;
    std::unique_ptr<tfhpc::distrib::Server> server;
    uint64_t handle = 0;
    std::vector<std::unique_ptr<RemoteTask>> senders;
  };

  struct Rung {
    std::vector<double> latency_ms;      // issue to completion
    std::vector<double> due_latency_ms;  // due time to completion
    std::vector<double> done_s, lag_ms;
    int64_t attempted = 0, failed = 0, unsent = 0;
  };

  // Offers `rate` requests/s for `seconds` from `senders` threads, each on
  // its own seeded Poisson schedule; rate 0 runs them closed-loop. A sender
  // that falls more than half the phase behind stops and counts its
  // remaining requests as unsent.
  Rung RunRate(double rate, double seconds, uint64_t stream, Tracer* tracer,
               int senders) {
    Rung total;
    std::mutex mu;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    const auto give_up = end + (end - start) / 2;
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
      threads.emplace_back([&, s] {
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        std::mt19937_64 rng(Mix(seed_, 5 + stream, s));
        std::exponential_distribution<double> gap(std::max(rate, 1.0) /
                                                  senders);
        auto next = [&](Clock::time_point t) {
          return t + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(gap(rng)));
        };
        RemoteTask& task = *fx_->senders[static_cast<size_t>(s)];
        Rung mine;
        for (auto due = rate > 0 ? next(start) : start; due < end;
             due = rate > 0 ? next(due) : Clock::now()) {
          if (Clock::now() > give_up) {
            ++mine.unsent;
            continue;
          }
          if (rate > 0) std::this_thread::sleep_until(due);
          const Tensor& x = feeds_[rng() % kFeeds];
          const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
          Span root(tracer, "op.serve_request", 0, op, s);
          ++mine.attempted;
          const auto issue = Clock::now();
          auto token = tfhpc::CancellationToken::WithTimeout(kDeadlineMs);
          auto r = [&] {
            Span call(tracer, "client.RunRegisteredStep", root.id(), op, s);
            return task.RunRegisteredStep(fx_->handle, {{"x", x}}, false,
                                          token.get());
          }();
          const auto done = Clock::now();
          std::string why;
          if (!r.ok()) {
            why = r.status().ToString();
          } else {
            Span check(tracer, "check.serve_output", root.id(), op, s);
            why = r->size() == 1 ? CheckServeOutput(x, (*r)[0])
                                 : "wrong number of fetches";
          }
          if (!why.empty()) {
            ++mine.failed;
            Report("serve_open: " + why);
            continue;
          }
          mine.latency_ms.push_back(MsBetween(issue, done));
          mine.due_latency_ms.push_back(MsBetween(due, done));
          mine.done_s.push_back(
              std::chrono::duration<double>(done - start).count());
          mine.lag_ms.push_back(MsBetween(due, issue));
        }
        std::lock_guard<std::mutex> lk(mu);
        auto append = [](std::vector<double>& to, const std::vector<double>& v) {
          to.insert(to.end(), v.begin(), v.end());
        };
        append(total.latency_ms, mine.latency_ms);
        append(total.done_s, mine.done_s);
        append(total.lag_ms, mine.lag_ms);
        append(total.due_latency_ms, mine.due_latency_ms);
        total.attempted += mine.attempted;
        total.failed += mine.failed;
        total.unsent += mine.unsent;
      });
    }
    for (auto& t : threads) t.join();
    return total;
  }

  const uint64_t seed_;
  const std::string work_dir_;
  std::vector<Tensor> feeds_;
  std::unique_ptr<Fixture> fx_;
};

// ---- stream_push.<protocol> ------------------------------------------------
// The paper's STREAM primitive: RemoteTask::VarAssignAdd of a seeded 1 MiB
// f32 vector into a parameter-server variable, the call RunStreamFunctional
// loops over, on one wire protocol. Large calls that bypass the executor,
// so the wire checksum, codec and transport staging dominate.
class StreamPush final : public Workload {
 public:
  StreamPush(uint64_t seed, WireProtocol proto, std::string work_dir)
      : seed_(seed), proto_(proto), work_dir_(std::move(work_dir)),
        update_(DType::kF32, Shape{kElements}) {
    std::mt19937_64 rng(Mix(seed_, 6, static_cast<uint64_t>(proto)));
    for (float& v : update_.mutable_span<float>()) {
      v = static_cast<float>(rng() % 64) / 64.0f;
    }
  }

  void Setup() override {
    fx_ = std::make_unique<Fixture>();
    fx_->server = StartServer(&fx_->router, "ps", kAddr, 0);
    fx_->client = std::make_unique<RemoteTask>(&fx_->router, kAddr, proto_);
    Phase warm;
    Reset();
    for (int i = 0; i < 8; ++i) Push(&warm, nullptr);
    Verify(&warm, nullptr);
    if (warm.failed > 0) Die("stream_push warm-up failed");
  }
  void Teardown() override { fx_.reset(); }

  Phase Measure(double seconds, bool, Tracer* tracer) override {
    Phase p;
    const TransportCounts before = ReadTransport(fx_->router, proto_);
    excluded_ = {};
    double push_s = 0;
    auto prev = p.start;
    while (SecondsSince(p.start) < seconds) {
      p.lag_ms.push_back(MsBetween(prev, Clock::now()));
      push_s += Push(&p, tracer);
      if (pending_ == kVerifyEvery) Verify(&p, tracer);
      prev = Clock::now();
    }
    Verify(&p, tracer);
    p.elapsed_s = SecondsSince(p.start);
    TransportCounts after = ReadTransport(fx_->router, proto_);
    after.calls -= excluded_.calls;
    after.bytes_copied -= excluded_.bytes_copied;
    after.bytes_serialized -= excluded_.bytes_serialized;
    after.views_forwarded -= excluded_.views_forwarded;
    const double ok = static_cast<double>(p.latency_ms.size());
    p.throughput_ops_s = WindowedRate(p.done_s, window_s(), p.elapsed_s);
    p.extra = {{std::string("push_mb_per_s.") +
                    tfhpc::distrib::WireProtocolName(proto_),
                ok * kBytes / push_s / 1e6, "MB/s"}};
    p.layer = TransportPerCall(before, after);
    Append(&p.layer, NoAdmissionControl());
    p.layer.push_back({"client.call_us", Median(p.latency_ms) * 1e3, "us"});
    return p;
  }

  Metrics Probe(Tracer* tracer) override {
    // The paper's STREAM graph (Listing 2) on an f64 vector of equal bytes.
    constexpr int64_t elements = kBytes / 8;
    Tensor src(DType::kF64, Shape{elements});
    tfhpc::FillUniform(src, seed_);
    Metrics m = ProbeSteps(
        [&](const tfhpc::Scope& scope) {
          const auto g = tfhpc::apps::BuildStreamPushGraph(scope, elements);
          StepPlan plan;
          plan.init = {{{{g.src, src}}, {}, {g.init}}};
          plan.steps = {{{{g.src, src}}, {}, {g.add}}};
          return plan;
        },
        100, tracer);
    Append(&m, ProbeWire(update_, tracer));
    Append(&m, ProbeLoadTile(work_dir_ + "/tiles", seed_, tracer));
    return m;
  }

 private:
  static constexpr const char* kAddr = "stream-ps:1";
  static constexpr int64_t kBytes = 1 << 20;
  static constexpr int64_t kElements = kBytes / 4;
  // Pushes between two reads of the accumulated variable.
  static constexpr int64_t kVerifyEvery = 256;

  struct Fixture {
    tfhpc::distrib::InProcessRouter router;
    std::unique_ptr<tfhpc::distrib::Server> server;
    std::unique_ptr<RemoteTask> client;
  };

  void Reset() {
    if (!fx_->client->VarAssign("stream", Tensor(DType::kF32, Shape{kElements}))
             .ok()) {
      Die("stream_push: VarAssign failed");
    }
    rounds_ = 0;
    pending_ = 0;
  }

  // One push; returns its call time in seconds.
  double Push(Phase* p, Tracer* tracer) {
    const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
    Span root(tracer, "op.stream_push", 0, op);
    ++p->attempted;
    const auto t0 = Clock::now();
    const tfhpc::Status s = [&] {
      Span call(tracer, "client.VarAssignAdd", root.id(), op);
      return fx_->client->VarAssignAdd("stream", update_);
    }();
    const double seconds = SecondsSince(t0);
    if (!s.ok()) {
      Fail(p, "stream_push: " + s.ToString());
      return seconds;
    }
    ++rounds_;
    ++pending_;
    p->Done(seconds * 1e3);
    return seconds;
  }

  // Reads the variable back and checks it. A wrong sum fails every push
  // since the last good check, and the variable starts over from zero.
  void Verify(Phase* p, Tracer* tracer) {
    const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
    Span root(tracer, "verify.stream_sum", 0, op);
    const TransportCounts before = ReadTransport(fx_->router, proto_);
    auto total = [&] {
      Span call(tracer, "client.VarRead", root.id(), op);
      return fx_->client->VarRead("stream");
    }();
    const TransportCounts after = ReadTransport(fx_->router, proto_);
    excluded_.calls += after.calls - before.calls;
    excluded_.bytes_copied += after.bytes_copied - before.bytes_copied;
    excluded_.bytes_serialized +=
        after.bytes_serialized - before.bytes_serialized;
    excluded_.views_forwarded += after.views_forwarded - before.views_forwarded;
    Span check(tracer, "check.stream_sum", root.id(), op);
    const std::string why = total.ok()
                                ? CheckStreamSum(update_, rounds_, *total)
                                : total.status().ToString();
    if (why.empty()) {
      pending_ = 0;
      return;
    }
    const int64_t lost = std::min<int64_t>(
        pending_, static_cast<int64_t>(p->latency_ms.size()));
    p->latency_ms.resize(p->latency_ms.size() - static_cast<size_t>(lost));
    p->done_s.resize(p->latency_ms.size());
    for (int64_t i = 0; i < lost; ++i) Fail(p, "stream_push: " + why);
    Reset();
  }

  const uint64_t seed_;
  const WireProtocol proto_;
  const std::string work_dir_;
  Tensor update_;
  std::unique_ptr<Fixture> fx_;
  int64_t rounds_ = 0;   // pushes accumulated since the variable was zeroed
  int64_t pending_ = 0;  // pushes since the last good check
  TransportCounts excluded_;  // traffic of the verification reads
};

// ---- matmul_tiles ------------------------------------------------------------
// apps::RunTiledMatmulFunctional at N = 1024, tile 256, 2 workers and 2
// reducers over RDMA, verified against a dense GEMM: the only workload that
// loads io (.npy tile loads), GEMM and large queue payloads.
class MatmulTiles final : public Workload {
 public:
  MatmulTiles(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    options_.n = 1024;
    options_.tile = kTile;
    options_.num_workers = 2;
    options_.num_reducers = 2;
  }

  void Setup() override {
    Phase warm;
    Multiply(Mix(seed_, 7, 0), &warm, nullptr);
    if (warm.failed > 0) Die("matmul_tiles warm-up failed");
  }

  Phase Measure(double seconds, bool, Tracer* tracer) override {
    Phase p;
    auto prev = p.start;
    for (uint64_t i = 0; SecondsSince(p.start) < seconds; ++i) {
      p.lag_ms.push_back(MsBetween(prev, Clock::now()));
      Multiply(Mix(seed_, 8, i), &p, tracer);
      prev = Clock::now();
    }
    p.elapsed_s = SecondsSince(p.start);
    p.throughput_ops_s = static_cast<double>(p.latency_ms.size()) / p.elapsed_s;
    p.extra = {{"gflops", Median(gflops_), "Gflop/s"},
               {"matmul.pipeline_ms", Median(pipeline_ms_), "ms"},
               {"matmul.outside_ms", Median(outside_ms_), "ms"}};
    p.layer = NoAdmissionControl();
    gflops_.clear();
    pipeline_ms_.clear();
    outside_ms_.clear();
    return p;
  }

  // A run holds a few dozen calls: too few for a p99, so the tail is p75.
  // Each call is long enough to span the host's short slow spells, so the
  // whole phase is one window.
  double tail_quantile() const override { return 0.75; }
  double window_s() const override { return 0; }

  Metrics Probe(Tracer* tracer) override {
    auto tile = [&](uint64_t stream) {
      Tensor t(DType::kF32, Shape{kTile, kTile});
      tfhpc::FillUniform(t, Mix(seed_, 9, stream));
      return t;
    };
    const Tensor a = tile(0), b = tile(1);
    Metrics m = ProbeSteps(
        [&](const tfhpc::Scope& scope) {
          const auto g = tfhpc::apps::BuildTiledMatmulGraph(scope, kTile);
          StepPlan plan;
          plan.steps = {{{{g.a, a}, {g.b, b}}, {g.product}, {}}};
          return plan;
        },
        30, tracer);
    Append(&m, ProbeWire(a, tracer));
    Append(&m, ProbeRpc(a, tracer));
    Append(&m, ProbeLoadTile(work_dir_ + "/tiles", seed_, tracer));
    return m;
  }

 private:
  static constexpr int64_t kTile = 256;

  void Multiply(uint64_t seed, Phase* p, Tracer* tracer) {
    const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
    Span root(tracer, "op.matmul_tiles", 0, op);
    ++p->attempted;
    tfhpc::apps::TiledMatmulOptions options = options_;
    options.shuffle_seed = seed | 1;  // 0 would select the unshuffled order
    const auto t0 = Clock::now();
    auto r = [&] {
      Span s(tracer, "apps.RunTiledMatmulFunctional", root.id(), op);
      return tfhpc::apps::RunTiledMatmulFunctional(
          options, work_dir_ + "/matmul", WireProtocol::kRdma,
          /*verify_dense=*/true);
    }();
    const double ms = MsBetween(t0, Clock::now());
    if (!r.ok()) return Fail(p, "matmul_tiles: " + r.status().ToString());
    p->Done(ms);
    gflops_.push_back(r->gflops);
    pipeline_ms_.push_back(r->seconds * 1e3);
    outside_ms_.push_back(ms - r->seconds * 1e3);
  }

  // A worker's push of one result tile into a reducer queue, against a
  // reducer server of the benchmark's own; the reducer's local dequeue
  // drains it.
  Metrics ProbeRpc(const Tensor& tile, Tracer* tracer) {
    tfhpc::distrib::InProcessRouter router;
    auto reducer = StartServer(&router, "reducer", "probe-reducer:1", 0);
    RemoteTask client(&router, "probe-reducer:1", WireProtocol::kRdma);
    auto q = reducer->resources().LookupOrCreateQueue("tiles");
    if (!q.ok()) Die(q.status().ToString());
    std::vector<double> call_us;
    const TransportCounts before = ReadTransport(router, WireProtocol::kRdma);
    for (int r = 0; r < 100; ++r) {
      Span span(tracer, "probe.client.Enqueue", 0, 0);
      const auto t0 = Clock::now();
      const tfhpc::Status s = client.Enqueue("tiles", tile);
      call_us.push_back(UsSince(t0));
      if (!s.ok() || !(*q)->Dequeue().ok()) Die("tile enqueue failed");
    }
    Metrics m = TransportPerCall(before,
                                 ReadTransport(router, WireProtocol::kRdma));
    m.push_back({"client.call_us", Median(call_us), "us"});
    reducer->Shutdown();
    return m;
  }

  const uint64_t seed_;
  const std::string work_dir_;
  tfhpc::apps::TiledMatmulOptions options_;
  std::vector<double> gflops_, pipeline_ms_, outside_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "cg_solve") return std::make_unique<CgSolve>(seed, work_dir);
  if (name == "serve_open") return std::make_unique<ServeOpen>(seed, work_dir);
  if (name == "stream_push.grpc") {
    return std::make_unique<StreamPush>(seed, WireProtocol::kGrpc, work_dir);
  }
  if (name == "stream_push.mpi") {
    return std::make_unique<StreamPush>(seed, WireProtocol::kMpi, work_dir);
  }
  if (name == "stream_push.rdma") {
    return std::make_unique<StreamPush>(seed, WireProtocol::kRdma, work_dir);
  }
  if (name == "matmul_tiles") {
    return std::make_unique<MatmulTiles>(seed, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
