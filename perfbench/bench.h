// Shared pieces of the repository benchmark: sample statistics, the span
// recorder of the traced run, metric records, and the independent output
// checkers (kept apart from the workloads so the self-test can feed them
// perturbed outputs).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// The host's speed drifts: slow spells of a few seconds come and go. So
// the benchmark cuts a phase into windows of `window_s` seconds by
// completion time (`done_s`), takes the statistic per window, and reports
// the median over the windows; a slow spell moves the windows it covers,
// not that median. window_s <= 0 takes the whole phase as one window.
//
// The q-quantile of the latencies, per window.
double WindowedQuantile(const std::vector<double>& done_s,
                        const std::vector<double>& latency, double window_s,
                        double q);
// Operations completed per second, per full window.
double WindowedRate(const std::vector<double>& done_s, double window_s,
                    double elapsed_s);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline void Append(Metrics* to, const Metrics& more) {
  to->insert(to->end(), more.begin(), more.end());
}

// One span of the traced run: a call the benchmark made into a layer of the
// program, or one executed node reported by the executor's own trace
// metadata. Spans of one operation share `op`; `parent` is the enclosing
// span's id (0 for an operation's root span).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  double start_us = 0;  // since the recorder was created
  double end_us = 0;
  int tid = 0;
};

// In-memory span store, written out as a Chrome trace when the run ends. A
// null Tracer pointer means tracing is off; Span then records nothing.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NextId() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++next_id_;
  }
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  void Add(SpanRecord span) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(span));
  }
  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }
  // Chrome trace-event JSON ("X" complete events); false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

// RAII span: records [construction, destruction) when `tracer` is non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t parent, uint64_t op,
       int tid = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

// ---- independent output checks ---------------------------------------------
// Each returns an empty string when the output is correct, otherwise the
// reason it is wrong.

// ||A x - b|| / ||b|| for A = RandomSpdMatrix(n, seed), b = ones must be
// finite and at most `max_relative_residual`.
inline constexpr double kCgMaxRelativeResidual = 1e-9;
std::string CheckCgSolution(int64_t n, uint64_t seed, const tfhpc::Tensor& x,
                            double* relative_residual = nullptr);

// The serving graph computes y = (x * 2) doubled eight times, i.e. 512 x,
// which is exact in binary floating point: the fetch must equal it bitwise.
inline constexpr double kServeScale = 512.0;
std::string CheckServeOutput(const tfhpc::Tensor& x, const tfhpc::Tensor& y);

// After `rounds` accumulating pushes of `update` into a zeroed variable the
// variable must hold rounds * update. Updates are multiples of 1/64 below 1,
// so the sums are exact in f32 for any realistic round count.
std::string CheckStreamSum(const tfhpc::Tensor& update, int64_t rounds,
                           const tfhpc::Tensor& total);

}  // namespace perfbench
