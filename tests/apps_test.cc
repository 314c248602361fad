// End-to-end tests of the four paper applications: functional correctness
// through the full distributed stack, simulation-mode scaling sanity, and
// checkpoint-restart.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/verifier.h"
#include "apps/app_graphs.h"
#include "apps/cg.h"
#include "apps/fft.h"
#include "apps/stream.h"
#include "apps/tiled_matmul.h"
#include "core/rng.h"
#include "kernels/gemm.h"

namespace tfhpc::apps {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("tfhpc_apps_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// ---- STREAM ----------------------------------------------------------------

TEST(StreamFunctionalTest, AccumulationVerifiedOnAllProtocols) {
  for (auto proto : {distrib::WireProtocol::kGrpc, distrib::WireProtocol::kMpi,
                     distrib::WireProtocol::kRdma}) {
    auto r = RunStreamFunctional(/*elements=*/4096, /*rounds=*/5, proto);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->mbps, 0);
  }
}

TEST(StreamFunctionalTest, RejectsBadArgs) {
  EXPECT_FALSE(RunStreamFunctional(0, 5, distrib::WireProtocol::kRdma).ok());
  EXPECT_FALSE(RunStreamFunctional(16, 0, distrib::WireProtocol::kRdma).ok());
}

TEST(StreamSimTest, ProtocolOrderingMatchesFigure7) {
  StreamOptions opts;
  opts.message_bytes = 128 << 20;
  opts.rounds = 10;
  opts.gpu_resident = true;
  auto cfg = sim::TegnerConfig(sim::GpuKind::kK420);
  auto grpc = SimulateStream(cfg, sim::Protocol::kGrpc, opts);
  auto mpi = SimulateStream(cfg, sim::Protocol::kMpi, opts);
  auto rdma = SimulateStream(cfg, sim::Protocol::kRdma, opts);
  ASSERT_TRUE(grpc.ok() && mpi.ok() && rdma.ok());
  EXPECT_GT(rdma->mbps, mpi->mbps);
  EXPECT_GT(mpi->mbps, grpc->mbps);
}

TEST(StreamSimTest, BandwidthGrowsWithMessageSize) {
  // Fig. 7: larger transfers amortize latency; 128 MB >= 2 MB bandwidth.
  auto cfg = sim::KebnekaiseConfig(sim::GpuKind::kK80);
  auto at = [&](int64_t bytes) {
    StreamOptions opts;
    opts.message_bytes = bytes;
    opts.rounds = 10;
    auto r = SimulateStream(cfg, sim::Protocol::kRdma, opts);
    TFHPC_CHECK(r.ok());
    return r->mbps;
  };
  EXPECT_GE(at(128 << 20), at(2 << 20));
}

TEST(StreamSimTest, HostRdmaOnTegnerExceedsSixGBps) {
  StreamOptions opts;
  opts.message_bytes = 128 << 20;
  opts.rounds = 10;
  opts.gpu_resident = false;
  auto r = SimulateStream(sim::TegnerConfig(sim::GpuKind::kK420),
                          sim::Protocol::kRdma, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->mbps, 6000);  // paper: >6 GB/s, >50% of EDR
}

// ---- Tiled matmul -------------------------------------------------------------

TEST(TiledMatmulFunctionalTest, MatchesDenseGemm) {
  TempDir dir("matmul");
  TiledMatmulOptions opts;
  opts.n = 64;
  opts.tile = 16;
  opts.num_workers = 2;
  opts.num_reducers = 2;
  auto r = RunTiledMatmulFunctional(opts, dir.path(),
                                    distrib::WireProtocol::kRdma);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->gflops, 0);
}

TEST(TiledMatmulFunctionalTest, UnevenTilingStillCorrect) {
  TempDir dir("matmul_uneven");
  TiledMatmulOptions opts;
  opts.n = 50;  // 50 = 3 tiles of 20 with a 10-wide edge
  opts.tile = 20;
  opts.num_workers = 3;
  opts.num_reducers = 2;
  auto r = RunTiledMatmulFunctional(opts, dir.path(),
                                    distrib::WireProtocol::kMpi);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(TiledMatmulFunctionalTest, ShuffledDatasetStillCorrect) {
  // Accumulation commutes: a shuffled product order must give the same C.
  TempDir dir("matmul_shuffle");
  TiledMatmulOptions opts;
  opts.n = 48;
  opts.tile = 16;
  opts.num_workers = 3;
  opts.num_reducers = 2;
  opts.shuffle_seed = 1234;
  ASSERT_TRUE(RunTiledMatmulFunctional(opts, dir.path(),
                                       distrib::WireProtocol::kRdma)
                  .ok());
}

TEST(TiledMatmulFunctionalTest, SingleWorkerSingleReducer) {
  TempDir dir("matmul_single");
  TiledMatmulOptions opts;
  opts.n = 32;
  opts.tile = 16;
  opts.num_workers = 1;
  opts.num_reducers = 1;
  ASSERT_TRUE(RunTiledMatmulFunctional(opts, dir.path(),
                                       distrib::WireProtocol::kGrpc)
                  .ok());
}

TEST(TiledMatmulSimTest, ScalesOnTegnerK420) {
  // Fig. 8: ~2x from 2 to 4 K420 GPUs at 32k.
  auto run = [&](int gpus) {
    TiledMatmulOptions opts;
    opts.n = 32768;
    opts.tile = 4096;
    opts.num_workers = gpus;
    auto r = SimulateTiledMatmul(sim::TegnerConfig(sim::GpuKind::kK420),
                                 sim::Protocol::kRdma, opts);
    TFHPC_CHECK(r.ok()) << r.status().ToString();
    return r->gflops;
  };
  const double g2 = run(2), g4 = run(4);
  EXPECT_GT(g4 / g2, 1.6);
  EXPECT_LT(g4 / g2, 2.3);
}

TEST(TiledMatmulSimTest, KebnekaiseScalesWorseThanTegner) {
  // The paper's headline contrast: Kebnekaise K80 2->4 is ~1.4x while
  // Tegner is ~2x (NUMA/PCIe/NIC contention, Fig. 9).
  auto speedup = [&](sim::MachineConfig cfg, int64_t tile) {
    auto run = [&](int gpus) {
      TiledMatmulOptions opts;
      opts.n = 32768;
      opts.tile = tile;
      opts.num_workers = gpus;
      auto r = SimulateTiledMatmul(cfg, sim::Protocol::kRdma, opts);
      TFHPC_CHECK(r.ok());
      return r->gflops;
    };
    return run(4) / run(2);
  };
  const double tegner = speedup(sim::TegnerConfig(sim::GpuKind::kK420), 4096);
  const double keb = speedup(sim::KebnekaiseConfig(sim::GpuKind::kK80), 8192);
  EXPECT_LT(keb, tegner - 0.2);
}

TEST(TiledMatmulSimTest, TileTooLargeForGpuRejected) {
  TiledMatmulOptions opts;
  opts.n = 65536;
  opts.tile = 16384;  // 3 * 1 GiB working set > 1 GB K420
  opts.num_workers = 2;
  auto r = SimulateTiledMatmul(sim::TegnerConfig(sim::GpuKind::kK420),
                               sim::Protocol::kRdma, opts);
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted);
}

// ---- CG ----------------------------------------------------------------------

TEST(CgFunctionalTest, ConvergesAndSolves) {
  CgOptions opts;
  opts.n = 64;
  opts.num_workers = 2;
  opts.max_iterations = 200;
  opts.tolerance = 1e-18;
  auto r = RunCgFunctional(opts, /*seed=*/5, distrib::WireProtocol::kRdma);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LT(r->residual, 1e-12);
  // Independent check: ||A x - b||_inf small.
  Tensor a = RandomSpdMatrix(64, 5);
  std::vector<double> ax(64);
  blas::Gemv(a.data<double>().data(), r->solution.data<double>().data(),
             ax.data(), 64, 64);
  for (double v : ax) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(CgFunctionalTest, WorkerCountsAgree) {
  // 1, 2 and 4 workers must produce the same solution (replicated lockstep).
  Tensor solutions[3];
  int i = 0;
  for (int w : {1, 2, 4}) {
    CgOptions opts;
    opts.n = 32;
    opts.num_workers = w;
    opts.max_iterations = 64;
    opts.tolerance = 1e-20;
    auto r = RunCgFunctional(opts, 9, distrib::WireProtocol::kMpi);
    ASSERT_TRUE(r.ok()) << w << ": " << r.status().ToString();
    solutions[i++] = r->solution;
  }
  for (int64_t e = 0; e < 32; ++e) {
    EXPECT_NEAR(solutions[0].data<double>()[static_cast<size_t>(e)],
                solutions[1].data<double>()[static_cast<size_t>(e)], 1e-9);
    EXPECT_NEAR(solutions[0].data<double>()[static_cast<size_t>(e)],
                solutions[2].data<double>()[static_cast<size_t>(e)], 1e-9);
  }
}

TEST(CgFunctionalTest, CheckpointRestartResumes) {
  TempDir dir("cg_ckpt");
  const std::string ckpt = dir.path() + "/cg.ckpt";
  CgOptions opts;
  opts.n = 32;
  opts.num_workers = 2;
  opts.max_iterations = 100;
  opts.tolerance = 1e-22;
  opts.checkpoint_every = 5;
  opts.checkpoint_path = ckpt;

  // Phase 1: interrupted after 10 iterations.
  auto phase1 = RunCgFunctional(opts, 11, distrib::WireProtocol::kRdma,
                                /*interrupt_after=*/10);
  ASSERT_TRUE(phase1.ok()) << phase1.status().ToString();
  EXPECT_EQ(phase1->iterations, 10);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Phase 2: restarts from the checkpoint and converges.
  auto phase2 = RunCgFunctional(opts, 11, distrib::WireProtocol::kRdma);
  ASSERT_TRUE(phase2.ok()) << phase2.status().ToString();
  EXPECT_GT(phase2->iterations, 10);  // continued past the restored step
  EXPECT_LT(phase2->residual, 1e-10);

  // Reference: the same problem solved without interruption must agree.
  CgOptions fresh = opts;
  fresh.checkpoint_path.clear();
  fresh.checkpoint_every = 0;
  auto direct = RunCgFunctional(fresh, 11, distrib::WireProtocol::kRdma);
  ASSERT_TRUE(direct.ok());
  for (int64_t e = 0; e < 32; ++e) {
    EXPECT_NEAR(phase2->solution.data<double>()[static_cast<size_t>(e)],
                direct->solution.data<double>()[static_cast<size_t>(e)], 1e-8);
  }
}

TEST(CgFunctionalTest, ZeroToleranceStopsAtExactConvergence) {
  // Tolerance 0 runs until r.r or p.Ap reaches exactly zero. The solve must
  // stop there instead of dividing 0/0 and reporting a NaN residual.
  CgOptions opts;
  opts.n = 32;
  opts.num_workers = 2;
  opts.max_iterations = 400;
  opts.tolerance = 0;
  auto r = RunCgFunctional(opts, 5, distrib::WireProtocol::kRdma);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(std::isfinite(r->residual)) << r->residual;
  EXPECT_LT(r->residual, 1e-20);
  for (double v : r->solution.data<double>()) ASSERT_TRUE(std::isfinite(v));
}

TEST(CgFunctionalTest, RejectsIndivisibleSplit) {
  CgOptions opts;
  opts.n = 30;
  opts.num_workers = 4;
  EXPECT_FALSE(RunCgFunctional(opts, 1, distrib::WireProtocol::kRdma).ok());
}

TEST(CgSimTest, ScalingDropsOffWithMoreGpus) {
  // Fig. 10: 2->4 gives a good factor, 4->8 a weaker one (strong scaling).
  auto run = [&](int gpus) {
    CgOptions opts;
    opts.n = 32768;
    opts.num_workers = gpus;
    opts.max_iterations = 50;  // pattern repeats; 50 is representative
    auto r = SimulateCg(sim::KebnekaiseConfig(sim::GpuKind::kK80),
                        sim::Protocol::kRdma, opts);
    TFHPC_CHECK(r.ok()) << r.status().ToString();
    return r->gflops;
  };
  const double g2 = run(2), g4 = run(4), g8 = run(8);
  const double s24 = g4 / g2, s48 = g8 / g4;
  EXPECT_GT(s24, 1.2);
  EXPECT_LT(s48, s24);  // diminishing returns
}

TEST(CgSimTest, SmallProblemBarelyScalesOnV100) {
  // Fig. 10: 16384 shows little scaling, especially on V100s.
  auto run = [&](int gpus) {
    CgOptions opts;
    opts.n = 16384;
    opts.num_workers = gpus;
    opts.max_iterations = 50;
    auto r = SimulateCg(sim::KebnekaiseConfig(sim::GpuKind::kV100),
                        sim::Protocol::kRdma, opts);
    TFHPC_CHECK(r.ok());
    return r->gflops;
  };
  EXPECT_LT(run(4) / run(2), 1.45);
}

// ---- FFT ----------------------------------------------------------------------

TEST(FftFunctionalTest, MatchesSingleFft) {
  TempDir dir("fft");
  FftOptions opts;
  opts.signal_size = 1 << 12;
  opts.num_tiles = 8;
  opts.num_workers = 2;
  auto r = RunFftFunctional(opts, dir.path(), 3, distrib::WireProtocol::kRdma);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->spectrum.num_elements(), 1 << 12);
  EXPECT_GT(r->gflops, 0);
  EXPECT_GT(r->merge_seconds, 0);
}

TEST(FftFunctionalTest, WorkerCountDoesNotChangeResult) {
  Tensor spectra[2];
  int i = 0;
  for (int w : {1, 4}) {
    TempDir dir("fft_w" + std::to_string(w));
    FftOptions opts;
    opts.signal_size = 1 << 10;
    opts.num_tiles = 16;
    opts.num_workers = w;
    auto r = RunFftFunctional(opts, dir.path(), 7,
                              distrib::WireProtocol::kGrpc);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    spectra[i++] = r->spectrum;
  }
  const auto a = spectra[0].data<std::complex<double>>();
  const auto b = spectra[1].data<std::complex<double>>();
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_LT(std::abs(a[e] - b[e]), 1e-9);
  }
}

TEST(FftFunctionalTest, RejectsIndivisibleTiling) {
  FftOptions opts;
  opts.signal_size = 1000;
  opts.num_tiles = 7;
  opts.num_workers = 1;
  EXPECT_FALSE(
      RunFftFunctional(opts, "/tmp/x", 1, distrib::WireProtocol::kRdma).ok());
}

TEST(FftSimTest, TwoToFourGpusScalesThenFlattens) {
  // Fig. 11: 1.6-1.8x from 2->4 GPUs, flattening 4->8.
  auto run = [&](int gpus) {
    FftOptions opts;
    opts.signal_size = int64_t{1} << 31;
    opts.num_tiles = 128;
    opts.num_workers = gpus;
    auto r = SimulateFft(sim::TegnerConfig(sim::GpuKind::kK80),
                         sim::Protocol::kRdma, opts);
    TFHPC_CHECK(r.ok()) << r.status().ToString();
    return r->gflops;
  };
  const double g2 = run(2), g4 = run(4), g8 = run(8);
  EXPECT_GT(g4 / g2, 1.4);
  EXPECT_LT(g8 / g4, g4 / g2);  // flattens
}

TEST(FftSimTest, TileTooLargeRejected) {
  FftOptions opts;
  opts.signal_size = int64_t{1} << 31;
  opts.num_tiles = 16;  // 2^27 complex128 = 2 GiB tile > K420's 1 GB
  opts.num_workers = 2;
  EXPECT_EQ(SimulateFft(sim::TegnerConfig(sim::GpuKind::kK420),
                        sim::Protocol::kRdma, opts)
                .status()
                .code(),
            Code::kResourceExhausted);
}

// ---- GraphCheck over the application graphs --------------------------------

// Runs the static verifier against one step closure of an app graph and
// expects zero findings at WARNING or above — the shipped app graphs must
// be lint-clean, not merely runnable.
void ExpectCleanClosure(const Graph& g, std::vector<std::string> feeds,
                        std::vector<std::string> fetches,
                        std::vector<std::string> targets = {}) {
  analysis::AnalysisOptions opts;
  opts.feeds = std::move(feeds);
  opts.fetches = std::move(fetches);
  opts.targets = std::move(targets);
  const analysis::GraphAnalysis ga = analysis::VerifyGraph(g.ToGraphDef(), opts);
  EXPECT_EQ(analysis::CountAtLeast(ga.diagnostics, analysis::Severity::kWarning),
            0)
      << analysis::FormatDiagnostics(ga.diagnostics);
}

TEST(AppGraphLintTest, StreamPushStepsAreClean) {
  Graph g;
  Scope root(&g);
  const StreamGraph wg = BuildStreamPushGraph(root, 4096);
  ExpectCleanClosure(g, {wg.src}, {}, {wg.init});
  ExpectCleanClosure(g, {wg.src}, {}, {wg.add});
}

TEST(AppGraphLintTest, TiledMatmulStepIsClean) {
  Graph g;
  Scope root(&g);
  const TiledMatmulGraph wg = BuildTiledMatmulGraph(root, 64);
  ExpectCleanClosure(g, {wg.a, wg.b}, {wg.product});
}

TEST(AppGraphLintTest, CgWorkerStepsAreClean) {
  Graph g;
  Scope root(&g);
  const CgWorkerGraph wg = BuildCgWorkerGraph(root, 32, 128);
  ExpectCleanClosure(g, {wg.a_feed}, {}, {wg.a_init});
  ExpectCleanClosure(g, {wg.p}, {wg.ap});
  ExpectCleanClosure(g, {wg.u, wg.v}, {wg.dot});
  ExpectCleanClosure(g, {wg.alpha, wg.ax, wg.ay}, {wg.axpy});
}

TEST(AppGraphLintTest, FftWorkerStepIsClean) {
  Graph g;
  Scope root(&g);
  const FftWorkerGraph wg = BuildFftWorkerGraph(root, 256);
  ExpectCleanClosure(g, {wg.x}, {wg.spectrum});
}

TEST(AppGraphLintTest, AppGraphsAnnotateFully) {
  // Whole-graph inference must reach every node of every app graph with no
  // ERROR findings (the acceptance bar for static shape inference).
  const auto check = [](const Graph& g) {
    const analysis::GraphAnalysis ga = analysis::VerifyGraph(g.ToGraphDef());
    EXPECT_FALSE(ga.has_errors())
        << analysis::FormatDiagnostics(ga.diagnostics);
    EXPECT_EQ(ga.annotations.size(), g.ToGraphDef().nodes.size());
  };
  {
    Graph g;
    Scope root(&g);
    BuildStreamPushGraph(root, 1024);
    check(g);
  }
  {
    Graph g;
    Scope root(&g);
    BuildTiledMatmulGraph(root, 32);
    check(g);
  }
  {
    Graph g;
    Scope root(&g);
    BuildCgWorkerGraph(root, 16, 64);
    check(g);
  }
  {
    Graph g;
    Scope root(&g);
    BuildFftWorkerGraph(root, 128);
    check(g);
  }
}

}  // namespace
}  // namespace tfhpc::apps
