// The benchmark's workloads. Each one owns a fixture (servers, router,
// client handles, inputs generated from the run seed), measures operations
// through the program's public API, checks every operation's output, and
// probes the layers it loads for the traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// What one measured phase observed.
struct Phase {
  Clock::time_point start = Clock::now();
  std::vector<double> latency_ms;  // successful operations
  std::vector<double> done_s;      // their completion, since `start`
  std::vector<double> lag_ms;      // how late each operation was issued
  int64_t attempted = 0;
  int64_t failed = 0;
  double elapsed_s = 0;
  // Operations completed per second at the workload's capacity: measured
  // directly for closed loops, the highest rate meeting the latency limit
  // for the open loop.
  double throughput_ops_s = 0;
  Metrics extra;  // workload-specific end-to-end numbers
  Metrics layer;  // per-layer numbers observed on the real traffic

  void Done(double latency) {
    latency_ms.push_back(latency);
    done_s.push_back(SecondsSince(start));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the fixture and warms it up; Teardown releases it.
  virtual void Setup() = 0;
  virtual void Teardown() {}
  // Runs operations for about `seconds`. `full` selects the complete
  // end-to-end procedure (the open loop then also climbs its rate ladder);
  // spans go to `tracer` when it is non-null.
  virtual Phase Measure(double seconds, bool full, Tracer* tracer) = 0;
  // Per-layer calls on this workload's inputs: compile and cached steps of
  // its graph, the codecs on its payload, its RPCs, a tile load.
  virtual Metrics Probe(Tracer* tracer) = 0;
  // The latency percentile reported as latency_tail_ms: the highest one
  // with at least ten samples beyond it in a run.
  virtual double tail_quantile() const { return 0.99; }
  // The window of WindowedQuantile / WindowedRate: long enough to hold a
  // few hundred operations.
  virtual double window_s() const { return 1.0; }

  // Counts a failed operation; Report prints the first few reasons.
  void Fail(Phase* phase, const std::string& why);
  void Report(const std::string& why);

 private:
  std::atomic<int> reported_{0};
};

// Null when `name` is unknown. `work_dir` receives scratch files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir);

// splitmix64 over (seed, a, b): independent, reproducible sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

}  // namespace perfbench
