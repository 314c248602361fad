// Per-layer measurements for the traced run. The benchmark adds no tracing
// inside the program: it times calls into each module's public functions
// on a workload's own inputs and reads the program's public counters.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "distrib/server.h"
#include "graph/ops.h"

namespace perfbench {

// A one-task cluster: `job` task 0 at `addr`, served on `router`. Exits the
// process when the server cannot start (nothing can be measured then).
std::unique_ptr<tfhpc::distrib::Server> StartServer(
    tfhpc::distrib::InProcessRouter* router, const std::string& job,
    const std::string& addr, int num_gpus, int max_inflight_steps = 0);

// One session step of a workload's graph.
struct ProbeStep {
  std::map<std::string, tfhpc::Tensor> feeds;
  std::vector<std::string> fetches;
  std::vector<std::string> targets;
};
struct StepPlan {
  std::vector<ProbeStep> init;   // run once before timing (variable loads)
  std::vector<ProbeStep> steps;  // the steps of one operation, in order
};
// Appends the workload's graph to the scope and returns its steps.
using GraphBuilder = std::function<StepPlan(const tfhpc::Scope&)>;

// Compile path and step path of the graph: session.prepare_us (cold
// Session::Prepare of every step on a fresh session), session.step_us
// (cached RunPrepared), executor.dispatch_us[_per_node] (step time minus
// node time from RunOptions.trace metadata), kernels.node_us,
// kernels.gflops, and kernels.node_us.<op> per op kind.
Metrics ProbeSteps(const GraphBuilder& build, int reps, Tracer* tracer);

// PayloadChecksum, SerializeTensor and ParseTensor on `payload`:
// wire.checksum_gbps, wire.serialize_gbps, wire.parse_gbps.
Metrics ProbeWire(const tfhpc::Tensor& payload, Tracer* tracer);

// TileStore::LoadTile of 256 x 256 f32 tiles: io.load_tile_us.
Metrics ProbeLoadTile(const std::string& dir, uint64_t seed, Tracer* tracer);

struct TransportCounts {
  int64_t calls = 0;
  int64_t bytes_copied = 0;
  int64_t bytes_serialized = 0;
  int64_t views_forwarded = 0;
};
TransportCounts ReadTransport(const tfhpc::distrib::InProcessRouter& router,
                              tfhpc::distrib::WireProtocol proto);
// transport.*_per_call over the calls between two readings.
Metrics TransportPerCall(const TransportCounts& before,
                         const TransportCounts& after);
// serving.admitted / shed / expired_in_queue between two readings; pass
// equal readings for a path without admission control.
Metrics ServingDeltas(const tfhpc::ServingStats& before,
                      const tfhpc::ServingStats& after);

}  // namespace perfbench
