// perfbench: the repository benchmark's measuring binary. run.py builds it
// and turns its record into the benchmark's result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//   perfbench --selftest
//
// An untraced run (--trace 0) sets the workload up three times, measures
// it for --seconds and reports the end-to-end metrics. A traced run
// (--trace 1) measures half the time untraced and half with spans around
// every operation and layer call, reads the public counters around the
// traced half, probes the workload's layers, and writes a Chrome trace.
// The last line of stdout is a JSON record of every metric; the exit code
// is 1 when any operation failed its check.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>

#include "apps/cg.h"
#include "bench.h"
#include "core/buffer.h"
#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

// Set-ups per process; setup_s is their median. On cg_solve and matmul_tiles
// the apps boot their cluster inside every call, so a set-up there is the
// warm-up calls and moves with the per-call cost.
constexpr int kSetups = 5;

// CPU time of every thread of the process, in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct AllocCounts {
  int64_t acquires, hits, failed;
};
AllocCounts ReadAlloc() {
  const tfhpc::BufferPool& pool = tfhpc::BufferPool::Global();
  return {pool.total_acquires(), pool.total_hits(),
          tfhpc::MemoryLimiter::Process().failed()};
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintRecord(const Args& args, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::string line = "{\"workload\": \"" + args.workload +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const std::string work_dir = args.out + "/work-" + args.workload + "-" +
                               std::to_string(getpid());
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed, work_dir);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) w->Teardown();
    const auto t0 = Clock::now();
    w->Setup();
    setup_s.push_back(SecondsSince(t0));
  }

  Metrics metrics;
  int64_t attempted = 0, failed = 0;
  if (!args.trace) {
    const double cpu0 = ProcessCpuSeconds();
    const Phase p = w->Measure(args.seconds, /*full=*/true, nullptr);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    attempted = p.attempted;
    failed = p.failed;
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms",
         WindowedQuantile(p.done_s, p.latency_ms, w->window_s(), 0.5), "ms"},
        {"latency_tail_ms",
         WindowedQuantile(p.done_s, p.latency_ms, w->window_s(),
                          w->tail_quantile()),
         "ms"},
        {"throughput_ops_s", p.throughput_ops_s, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"error_rate",
         static_cast<double>(p.failed) / std::max<int64_t>(1, p.attempted),
         "ratio"},
        {"tail_quantile", w->tail_quantile(), "ratio"},
        {"samples", static_cast<double>(p.latency_ms.size()), "count"},
        {"cpu_ms_per_op",
         cpu_s * 1e3 / static_cast<double>(std::max<int64_t>(1, p.attempted)),
         "ms"},
    };
    Append(&metrics, p.extra);
  } else {
    Tracer tracer;
    const Phase base = w->Measure(args.seconds / 2, /*full=*/false, nullptr);
    const AllocCounts a0 = ReadAlloc();
    const Phase p = w->Measure(args.seconds / 2, /*full=*/false, &tracer);
    const AllocCounts a1 = ReadAlloc();
    attempted = base.attempted + p.attempted;
    failed = base.failed + p.failed;
    const double ops = static_cast<double>(std::max<int64_t>(1, p.attempted));
    const int64_t acquires = a1.acquires - a0.acquires;
    metrics = p.layer;
    Append(&metrics, w->Probe(&tracer));
    Append(&metrics, {
        {"alloc.allocs_per_op", static_cast<double>(acquires) / ops, "count"},
        {"alloc.pool_hit_ratio",
         acquires > 0 ? static_cast<double>(a1.hits - a0.hits) / acquires : 0,
         "ratio"},
        {"alloc.failed", static_cast<double>(a1.failed - a0.failed), "count"},
        {"bench.generator_lag_ms", Quantile(base.lag_ms, 0.99), "ms"},
        {"bench.trace_overhead_pct",
         (Median(p.latency_ms) / Median(base.latency_ms) - 1) * 100, "%"},
        {"bench.spans", static_cast<double>(tracer.size()), "count"},
    });
    Append(&metrics, p.extra);
    const std::string trace_path = args.out + "/trace-" + args.workload +
                                   ".seed" + std::to_string(args.seed) +
                                   ".json";
    if (!tracer.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }
  w.reset();
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  PrintRecord(args, attempted, failed, metrics);
  return failed > 0 ? 1 : 0;
}

// The checkers must reject wrong outputs, not only accept right ones.
int SelfTest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("selftest: %-48s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };

  tfhpc::apps::CgOptions cg;
  cg.n = 64;
  cg.tolerance = 1e-20;
  auto solved = tfhpc::apps::RunCgFunctional(cg, 11,
                                             tfhpc::distrib::WireProtocol::kRdma);
  expect(solved.ok(), "cg: solve runs");
  if (solved.ok()) {
    const tfhpc::Tensor x = solved->solution;
    expect(CheckCgSolution(64, 11, x).empty(), "cg: accepts the solution");
    tfhpc::Tensor off = x.Clone();
    off.mutable_data<double>()[3] += 1e-6;
    expect(!CheckCgSolution(64, 11, off).empty(),
           "cg: rejects a perturbed solution");
    tfhpc::Tensor nan = x.Clone();
    nan.mutable_data<double>()[0] = std::nan("");
    expect(!CheckCgSolution(64, 11, nan).empty(), "cg: rejects a NaN solution");
    expect(!CheckCgSolution(64, 12, x).empty(),
           "cg: rejects the solution of another system");
  }

  tfhpc::Tensor x(tfhpc::DType::kF64, tfhpc::Shape{64});
  tfhpc::FillUniform(x, 3, -1.0, 1.0);
  tfhpc::Tensor y = x.Clone();
  for (double& v : y.mutable_span<double>()) v *= kServeScale;
  expect(CheckServeOutput(x, y).empty(), "serve: accepts 512 x");
  tfhpc::Tensor y_off = y.Clone();
  y_off.mutable_data<double>()[7] =
      std::nextafter(y.data<double>()[7], 1e300);
  expect(!CheckServeOutput(x, y_off).empty(), "serve: rejects a one-ulp error");
  expect(!CheckServeOutput(x, x).empty(), "serve: rejects the unscaled feed");

  tfhpc::Tensor u(tfhpc::DType::kF32, tfhpc::Shape{1024});
  std::mt19937_64 rng(5);
  for (float& v : u.mutable_span<float>()) {
    v = static_cast<float>(rng() % 64) / 64.0f;
  }
  tfhpc::Tensor total(tfhpc::DType::kF32, tfhpc::Shape{1024});
  for (int r = 0; r < 300; ++r) {
    auto t = total.mutable_span<float>();
    const auto d = u.data<float>();
    for (size_t i = 0; i < t.size(); ++i) t[i] += d[i];
  }
  expect(CheckStreamSum(u, 300, total).empty(), "stream: accepts the sum");
  expect(!CheckStreamSum(u, 301, total).empty(),
         "stream: rejects a sum one push short");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <dir> | --selftest\n");
    return 2;
  }
  return args.selftest ? perfbench::SelfTest() : perfbench::Run(args);
}
