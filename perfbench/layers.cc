#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/rng.h"
#include "io/tile_store.h"
#include "wire/messages.h"

namespace perfbench {

using tfhpc::Tensor;
namespace distrib = tfhpc::distrib;

namespace {

// Keeps timed results observable so the calls cannot be dropped.
std::atomic<uint64_t> g_sink{0};

void Check(const tfhpc::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

std::unique_ptr<distrib::Server> StartServer(distrib::InProcessRouter* router,
                                             const std::string& job,
                                             const std::string& addr,
                                             int num_gpus,
                                             int max_inflight_steps) {
  tfhpc::wire::ClusterDef def;
  tfhpc::wire::JobDef j;
  j.name = job;
  j.task_addrs = {addr};
  def.jobs = {j};
  auto spec = distrib::ClusterSpec::Create(def);
  Check(spec.status(), "ClusterSpec::Create");
  const distrib::ServerDef sdef{.cluster = *spec,
                                .job = job,
                                .num_gpus = num_gpus,
                                .max_inflight_steps = max_inflight_steps,
                                .serving = {},
                                .alloc_faults = {}};
  auto server = distrib::Server::Create(sdef, router);
  Check(server.status(), "Server::Create");
  return std::move(*server);
}

Metrics ProbeSteps(const GraphBuilder& build, int reps, Tracer* tracer) {
  distrib::InProcessRouter router;
  auto server = StartServer(&router, "worker", "probe-worker:1", 1);
  const tfhpc::Scope scope =
      tfhpc::Scope(&server->graph()).WithDevice("/gpu:0");
  const StepPlan plan = build(scope);
  const double nsteps = static_cast<double>(plan.steps.size());

  auto prepare_all = [&](tfhpc::Session& session) {
    std::vector<std::shared_ptr<const tfhpc::Executable>> exes;
    for (const ProbeStep& step : plan.steps) {
      std::vector<std::string> keys;
      for (const auto& [key, value] : step.feeds) keys.push_back(key);
      auto exe = session.Prepare(keys, step.fetches, step.targets);
      Check(exe.status(), "Session::Prepare");
      exes.push_back(*exe);
    }
    return exes;
  };

  // Cold compile: a fresh session has an empty executable cache.
  std::vector<double> prepare_us;
  for (int r = 0; r < std::max(3, reps / 10); ++r) {
    auto session = server->NewSession();
    Span span(tracer, "probe.session.Prepare", 0, 0);
    const auto t0 = Clock::now();
    prepare_all(*session);
    prepare_us.push_back(UsSince(t0));
  }

  auto session = server->NewSession();
  for (const ProbeStep& step : plan.init) {
    Check(session->Run(step.feeds, step.fetches, step.targets).status(),
          "init step");
  }
  const auto exes = prepare_all(*session);
  auto run = [&](size_t i, const tfhpc::RunOptions& options,
                 tfhpc::RunMetadata* md) {
    Check(session->RunPrepared(*exes[i], plan.steps[i].feeds, options, md)
              .status(),
          "Session::RunPrepared");
  };
  for (int r = 0; r < 3; ++r) {
    for (size_t i = 0; i < exes.size(); ++i) run(i, {}, nullptr);
  }

  std::vector<double> step_us;
  for (int r = 0; r < reps; ++r) {
    Span span(tracer, "probe.session.RunPrepared", 0, 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < exes.size(); ++i) run(i, {}, nullptr);
    step_us.push_back(UsSince(t0) / nsteps);
  }

  // Node time from the executor's own trace metadata; dispatch is the
  // rest of the same traced step's wall time.
  std::vector<double> node_us, dispatch_us, nodes_per_step;
  std::map<std::string, std::vector<double>> per_op;
  double flops = 0, node_total_us = 0;
  tfhpc::RunOptions traced;
  traced.trace = true;
  for (int r = 0; r < reps; ++r) {
    double wall = 0, sum = 0, count = 0;
    for (size_t i = 0; i < exes.size(); ++i) {
      tfhpc::RunMetadata md;
      const uint64_t step_id = tracer != nullptr ? tracer->NextId() : 0;
      const double begin_us = tracer != nullptr ? tracer->NowUs() : 0;
      const auto t0 = Clock::now();
      run(i, traced, &md);
      wall += UsSince(t0);
      for (const tfhpc::NodeExecRecord& node : md.nodes) {
        const double us = node.end_us - node.start_us;
        sum += us;
        count += 1;
        flops += node.cost.flops;
        per_op[node.op].push_back(us);
        if (tracer != nullptr) {
          tracer->Add({tracer->NextId(), step_id, 0, "kernel." + node.op,
                       begin_us + node.start_us, begin_us + node.end_us, 1});
        }
      }
      if (tracer != nullptr) {
        tracer->Add({step_id, 0, 0, "probe.session.RunPrepared.traced",
                     begin_us, tracer->NowUs(), 0});
      }
    }
    node_total_us += sum;
    node_us.push_back(sum / nsteps);
    dispatch_us.push_back((wall - sum) / nsteps);
    nodes_per_step.push_back(count / nsteps);
  }

  const double dispatch = Median(dispatch_us);
  const double nodes = Median(nodes_per_step);
  Metrics m = {
      {"session.prepare_us", Median(prepare_us), "us"},
      {"session.step_us", Median(step_us), "us"},
      {"executor.dispatch_us", dispatch, "us"},
      {"executor.dispatch_us_per_node", nodes > 0 ? dispatch / nodes : 0,
       "us"},
      {"executor.nodes_per_step", nodes, "count"},
      {"kernels.node_us", Median(node_us), "us"},
      {"kernels.gflops", node_total_us > 0 ? flops / node_total_us / 1e3 : 0,
       "Gflop/s"},
  };
  for (auto& [op, us] : per_op) {
    m.push_back({"kernels.node_us." + op, Median(us), "us"});
  }
  return m;
}

Metrics ProbeWire(const Tensor& payload, Tracer* tracer) {
  const std::string bytes = tfhpc::wire::SerializeTensor(payload);
  const double size = static_cast<double>(bytes.size());
  // Each sample covers at least 1 MiB so tiny payloads are not clock noise.
  const int batch = std::max<int>(1, static_cast<int>((1 << 20) / size));
  auto gbps = [&](const char* name, auto&& call) {
    std::vector<double> s;
    for (int r = 0; r < 15; ++r) {
      Span span(tracer, name, 0, 0);
      const auto t0 = Clock::now();
      for (int b = 0; b < batch; ++b) call();
      s.push_back(SecondsSince(t0) / batch);
    }
    return size / Median(s) / 1e9;
  };
  return {
      {"wire.checksum_gbps", gbps("probe.wire.PayloadChecksum", [&] {
         g_sink += tfhpc::wire::PayloadChecksum(bytes);
       }), "GB/s"},
      {"wire.serialize_gbps", gbps("probe.wire.SerializeTensor", [&] {
         g_sink += tfhpc::wire::SerializeTensor(payload).size();
       }), "GB/s"},
      {"wire.parse_gbps", gbps("probe.wire.ParseTensor", [&] {
         auto t = tfhpc::wire::ParseTensor(bytes);
         Check(t.status(), "ParseTensor");
         g_sink += static_cast<uint64_t>(t->num_elements());
       }), "GB/s"},
      {"wire.payload_bytes", size, "B"},
  };
}

Metrics ProbeLoadTile(const std::string& dir, uint64_t seed, Tracer* tracer) {
  constexpr int64_t kTile = 256;
  Tensor matrix(tfhpc::DType::kF32, tfhpc::Shape{2 * kTile, 2 * kTile});
  tfhpc::FillUniform(matrix, seed);
  auto store = tfhpc::io::TileStore::Create(dir, matrix, kTile, kTile);
  Check(store.status(), "TileStore::Create");
  std::vector<double> us;
  for (int r = 0; r < 40; ++r) {
    Span span(tracer, "probe.io.LoadTile", 0, 0);
    const auto t0 = Clock::now();
    auto tile = store->LoadTile(r % 2, (r / 2) % 2);
    us.push_back(UsSince(t0));
    Check(tile.status(), "TileStore::LoadTile");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return {{"io.load_tile_us", Median(us), "us"}};
}

TransportCounts ReadTransport(const distrib::InProcessRouter& router,
                              distrib::WireProtocol proto) {
  const distrib::TransportStats& s = router.stats(proto);
  return {s.calls.load(), s.bytes_copied.load(), s.bytes_serialized.load(),
          s.views_forwarded.load()};
}

Metrics TransportPerCall(const TransportCounts& before,
                         const TransportCounts& after) {
  const double calls =
      std::max<double>(1, static_cast<double>(after.calls - before.calls));
  auto per = [&](int64_t a, int64_t b) {
    return static_cast<double>(b - a) / calls;
  };
  return {
      {"transport.calls", static_cast<double>(after.calls - before.calls),
       "count"},
      {"transport.bytes_copied_per_call",
       per(before.bytes_copied, after.bytes_copied), "B"},
      {"transport.bytes_serialized_per_call",
       per(before.bytes_serialized, after.bytes_serialized), "B"},
      {"transport.views_forwarded_per_call",
       per(before.views_forwarded, after.views_forwarded), "count"},
  };
}

Metrics ServingDeltas(const tfhpc::ServingStats& before,
                      const tfhpc::ServingStats& after) {
  return {
      {"serving.admitted", static_cast<double>(after.admitted - before.admitted),
       "count"},
      {"serving.shed", static_cast<double>(after.shed - before.shed), "count"},
      {"serving.expired_in_queue",
       static_cast<double>(after.expired_in_queue - before.expired_in_queue),
       "count"},
  };
}

}  // namespace perfbench
