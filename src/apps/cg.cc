#include "apps/cg.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include "apps/app_graphs.h"
#include "core/rng.h"
#include "graph/ops.h"
#include "io/checkpoint.h"

namespace tfhpc::apps {
namespace {

Status ValidateOptions(const CgOptions& o) {
  if (o.n <= 0 || o.num_workers <= 0) {
    return InvalidArgument("cg: need n > 0 and workers > 0");
  }
  if (o.n % o.num_workers != 0) {
    return InvalidArgument("cg: n must be divisible by num_workers");
  }
  if (o.max_iterations <= 0) return InvalidArgument("cg: need iterations > 0");
  return Status::OK();
}

double PaperFlops(int64_t n, int iterations) {
  return static_cast<double>(iterations) * 2.0 * static_cast<double>(n) *
         static_cast<double>(n);
}

// Queue names of the Fig. 5 reducer: one incoming and one outgoing queue per
// reduction step and worker.
std::string ApIn(int w) { return "ap_in_" + std::to_string(w); }
std::string ApOut(int w) { return "ap_out_" + std::to_string(w); }
std::string DotIn(int w) { return "dot_in_" + std::to_string(w); }
std::string DotOut(int w) { return "dot_out_" + std::to_string(w); }

}  // namespace

Result<CgResult> SimulateCg(const sim::MachineConfig& cfg,
                            sim::Protocol protocol, const CgOptions& options) {
  TFHPC_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t n = options.n;
  const int W = options.num_workers;
  const int64_t rows = n / W;
  const int64_t slice_bytes = rows * n * 8;  // f64 row block
  if (cfg.gpu_model.mem_bytes > 0 &&
      slice_bytes + 4 * n * 8 > cfg.gpu_model.mem_bytes) {
    return ResourceExhausted("cg: row block of " + std::to_string(slice_bytes) +
                             " bytes does not fit " +
                             cfg.gpu_model.model_name);
  }

  // Workers on GPUs; the reducer task on an extra GPU-less node.
  sim::ClusterModel cm(cfg, W, /*extra_host_nodes=*/1);
  const int ps_node = cm.num_nodes() - 1;
  const sim::Loc ps = cm.HostLoc(ps_node);

  std::vector<sim::OpId> last(static_cast<size_t>(W), cm.Delay(0, {}));
  for (int it = 0; it < options.max_iterations; ++it) {
    // (1) local GEMV slices, pushed to the reducer's incoming queue. Each
    // worker's client dispatches the matvec step (overhead) first.
    std::vector<sim::OpId> arrive;
    for (int w = 0; w < W; ++w) {
      sim::OpId dispatch = cm.StepOverhead({last[static_cast<size_t>(w)]});
      sim::OpId gemv = cm.GpuCompute(
          w, 2.0 * static_cast<double>(rows) * static_cast<double>(n),
          slice_bytes, /*fp64=*/true, {dispatch}, "gemv");
      sim::OpId push = cm.Transfer(cm.GpuLoc(w), ps, rows * 8, protocol,
                                   {gemv}, "ap_push");
      arrive.push_back(cm.HostIngest(ps_node, 0, rows * 8, {push}, "drain"));
    }
    // (2) reducer concatenates and broadcasts the full Ap.
    sim::OpId concat = cm.HostCompute(ps_node, 0, static_cast<double>(n),
                                      2 * n * 8, arrive, "concat");
    std::vector<sim::OpId> have_ap;
    for (int w = 0; w < W; ++w) {
      have_ap.push_back(cm.Transfer(ps, cm.GpuLoc(w), n * 8, protocol,
                                    {concat}, "ap_bcast"));
    }
    // (3) two scalar reductions (p.Ap and, after updates, r.r) — each is a
    // partial dot on the GPU, an 8-byte push, a host sum, an 8-byte
    // broadcast (latency-dominated, exactly the Fig. 5 ping-pong).
    std::vector<sim::OpId> ready = have_ap;
    for (int round = 0; round < 2; ++round) {
      std::vector<sim::OpId> partials;
      for (int w = 0; w < W; ++w) {
        sim::OpId dispatch =
            cm.StepOverhead({ready[static_cast<size_t>(w)]});
        sim::OpId dot = cm.GpuCompute(w, 2.0 * static_cast<double>(rows),
                                      2 * rows * 8, true, {dispatch}, "dot");
        partials.push_back(
            cm.Transfer(cm.GpuLoc(w), ps, 8, protocol, {dot}, "dot_push"));
      }
      sim::OpId sum =
          cm.HostCompute(ps_node, 0, W, W * 8, partials, "dot_sum");
      std::vector<sim::OpId> got;
      for (int w = 0; w < W; ++w) {
        got.push_back(
            cm.Transfer(ps, cm.GpuLoc(w), 8, protocol, {sum}, "dot_bcast"));
      }
      if (round == 0) {
        // After alpha: three full-vector AXPY update steps (x, r, p).
        for (int w = 0; w < W; ++w) {
          sim::OpId dispatch =
              cm.StepOverhead({got[static_cast<size_t>(w)]});
          got[static_cast<size_t>(w)] = cm.GpuCompute(
              w, 3 * 2.0 * static_cast<double>(n), 3 * 3 * n * 8, true,
              {dispatch}, "axpy");
        }
      }
      ready = std::move(got);
    }
    last = ready;
  }

  TFHPC_ASSIGN_OR_RETURN(sim::ReplayResult replay, cm.Replay());
  CgResult result;
  result.seconds = replay.makespan;
  result.iterations = options.max_iterations;
  result.gflops = PaperFlops(n, options.max_iterations) / replay.makespan / 1e9;
  return result;
}

// ------------------------------------------------------------------------------
// Functional distributed CG.
// ------------------------------------------------------------------------------

namespace {

// Shared immutable problem data for one run.
struct CgProblem {
  Tensor a;  // n x n SPD
  Tensor b;  // n, all ones
};

struct CheckpointState {
  Tensor x, r, p;
  double rsold = 0;
  int64_t iteration = 0;
};

Status SaveState(const std::string& path, const CheckpointState& st) {
  std::map<std::string, Tensor> vars;
  vars["x"] = st.x;
  vars["r"] = st.r;
  vars["p"] = st.p;
  vars["rsold"] = Tensor::Scalar(st.rsold);
  vars["iteration"] = Tensor::Scalar<int64_t>(st.iteration);
  return io::SaveCheckpoint(path, vars);
}

Result<CheckpointState> LoadState(const std::string& path) {
  TFHPC_ASSIGN_OR_RETURN(auto vars, io::LoadCheckpoint(path));
  CheckpointState st;
  st.x = vars.at("x");
  st.r = vars.at("r");
  st.p = vars.at("p");
  st.rsold = vars.at("rsold").scalar<double>();
  st.iteration = vars.at("iteration").scalar<int64_t>();
  return st;
}

}  // namespace

Result<CgResult> RunCgFunctional(const CgOptions& options, uint64_t seed,
                                 distrib::WireProtocol protocol,
                                 int interrupt_after) {
  TFHPC_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t n = options.n;
  const int W = options.num_workers;
  const int64_t rows = n / W;

  CgProblem problem;
  problem.a = RandomSpdMatrix(n, seed);
  problem.b = Tensor(DType::kF64, Shape{n});
  for (auto& v : problem.b.mutable_span<double>()) v = 1.0;

  // Resume or cold-start state.
  CheckpointState st;
  const bool resuming = !options.checkpoint_path.empty() &&
                        std::filesystem::exists(options.checkpoint_path);
  if (resuming) {
    TFHPC_ASSIGN_OR_RETURN(st, LoadState(options.checkpoint_path));
  } else {
    st.x = Tensor(DType::kF64, Shape{n});  // zeros
    st.r = problem.b.Clone();
    st.p = problem.b.Clone();
    double rs = 0;
    for (double v : st.r.data<double>()) rs += v * v;
    st.rsold = rs;
    st.iteration = 0;
  }

  // ---- cluster: W workers (1 GPU each) + 1 ps hosting the reducer queues ----
  wire::ClusterDef cluster_def;
  {
    wire::JobDef ps;
    ps.name = "ps";
    ps.task_addrs = {"cg-ps:3333"};
    wire::JobDef workers;
    workers.name = "worker";
    for (int w = 0; w < W; ++w) {
      workers.task_addrs.push_back("cg-w" + std::to_string(w) + ":3333");
    }
    cluster_def.jobs = {ps, workers};
  }
  TFHPC_ASSIGN_OR_RETURN(distrib::ClusterSpec spec,
                         distrib::ClusterSpec::Create(cluster_def));
  distrib::InProcessRouter router;
  TFHPC_ASSIGN_OR_RETURN(auto ps_server,
                         distrib::Server::Create({spec, "ps", 0, 0}, &router));
  std::vector<std::unique_ptr<distrib::Server>> worker_servers;
  for (int w = 0; w < W; ++w) {
    TFHPC_ASSIGN_OR_RETURN(
        auto s, distrib::Server::Create({spec, "worker", w, 1}, &router));
    worker_servers.push_back(std::move(s));
  }

  const auto start = std::chrono::steady_clock::now();

  // Both workers and the reducer run the same loop-control logic on the same
  // broadcast values, so they stop at the same iteration.
  const double tol = options.tolerance;
  const int max_iter = options.max_iterations;
  const int64_t start_iter = st.iteration;

  // ---- the reducer (Fig. 5): runs against the ps server's queues -------------
  std::thread reducer_thread;
  Status reducer_status;
  reducer_thread = std::thread([&] {
    auto run = [&]() -> Status {
      ResourceMgr& rm = ps_server->resources();
      double rsnew = st.rsold;
      for (int64_t it = start_iter; it < max_iter; ++it) {
        // Vector reduction: gather slices, broadcast concatenation.
        Tensor full(DType::kF64, Shape{n});
        for (int w = 0; w < W; ++w) {
          TFHPC_ASSIGN_OR_RETURN(FIFOQueue * in,
                                 rm.LookupOrCreateQueue(ApIn(w)));
          TFHPC_ASSIGN_OR_RETURN(Tensor slice, in->Dequeue());
          if (slice.num_elements() != rows) {
            return Internal("reducer: bad slice length");
          }
          std::memcpy(full.mutable_data<double>() + w * rows, slice.raw_data(),
                      static_cast<size_t>(rows) * 8);
        }
        for (int w = 0; w < W; ++w) {
          TFHPC_ASSIGN_OR_RETURN(FIFOQueue * out,
                                 rm.LookupOrCreateQueue(ApOut(w)));
          TFHPC_RETURN_IF_ERROR(out->Enqueue(full));
        }
        // Two scalar reductions: p.Ap then rsnew. The workers stop without
        // the second when p.Ap is zero (see below), so the reducer does too.
        for (int round = 0; round < 2; ++round) {
          double sum = 0;
          for (int w = 0; w < W; ++w) {
            TFHPC_ASSIGN_OR_RETURN(FIFOQueue * in,
                                   rm.LookupOrCreateQueue(DotIn(w)));
            TFHPC_ASSIGN_OR_RETURN(Tensor partial, in->Dequeue());
            sum += partial.scalar<double>();
          }
          for (int w = 0; w < W; ++w) {
            TFHPC_ASSIGN_OR_RETURN(FIFOQueue * out,
                                   rm.LookupOrCreateQueue(DotOut(w)));
            TFHPC_RETURN_IF_ERROR(out->Enqueue(Tensor::Scalar(sum)));
          }
          if (round == 0 && sum == 0) return Status::OK();
          if (round == 1) rsnew = sum;
        }
        if (rsnew < tol || rsnew == 0) break;
        if (interrupt_after > 0 && it + 1 - start_iter >= interrupt_after) break;
      }
      return Status::OK();
    };
    reducer_status = run();
  });

  // ---- workers ------------------------------------------------------------------
  std::vector<Status> worker_status(static_cast<size_t>(W));
  std::vector<std::thread> worker_threads;
  std::vector<CheckpointState> final_states(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    worker_threads.emplace_back([&, w] {
      auto run = [&]() -> Status {
        distrib::Server* server = worker_servers[static_cast<size_t>(w)].get();
        TFHPC_ASSIGN_OR_RETURN(std::string ps_addr, spec.TaskAddress("ps", 0));
        distrib::RemoteTask ps(&router, ps_addr, protocol);

        // Loop-body graph (apps/app_graphs.h): the A row block lives in a
        // variable (loaded once; the paper's data-locality workaround for
        // the 2 GB GraphDef limit), the loop state is fed each step.
        Scope scope = Scope(&server->graph()).WithDevice("/gpu:0");
        const CgWorkerGraph wg = BuildCgWorkerGraph(scope, rows, n);
        auto session = server->NewSession();

        // Load this worker's row block into its variable.
        Tensor block(DType::kF64, Shape{rows, n});
        std::memcpy(block.raw_data(),
                    problem.a.data<double>().data() + w * rows * n,
                    static_cast<size_t>(rows * n) * 8);
        TFHPC_RETURN_IF_ERROR(
            session->Run({{"a_feed", block}}, {}, {wg.a_init})
                .status());

        // Replicated state (checkpoint-resumable).
        Tensor x = st.x.Clone(), r = st.r.Clone(), p = st.p.Clone();
        double rsold = st.rsold;
        int64_t it = start_iter;

        auto segment = [&](const Tensor& vec) {
          Tensor s(DType::kF64, Shape{rows});
          std::memcpy(s.raw_data(), vec.data<double>().data() + w * rows,
                      static_cast<size_t>(rows) * 8);
          return s;
        };

        for (; it < max_iter; ++it) {
          // (1) my slice of A*p -> reducer; get full Ap back.
          TFHPC_ASSIGN_OR_RETURN(std::vector<Tensor> mv,
                                 session->Run({{"p", p}}, {wg.ap}));
          TFHPC_RETURN_IF_ERROR(ps.Enqueue(ApIn(w), mv[0]));
          TFHPC_ASSIGN_OR_RETURN(Tensor full_ap, ps.Dequeue(ApOut(w)));

          // (2) partial p.Ap over my segment -> scalar reduce.
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> pap_part,
              session->Run({{"u", segment(p)}, {"v", mv[0]}}, {wg.dot}));
          TFHPC_RETURN_IF_ERROR(ps.Enqueue(DotIn(w), pap_part[0]));
          TFHPC_ASSIGN_OR_RETURN(Tensor pap_t, ps.Dequeue(DotOut(w)));
          const double pap = pap_t.scalar<double>();
          // p.Ap == 0 means p == 0 (A is SPD): the solve has converged
          // exactly and alpha would be 0/0.
          if (pap == 0) break;
          const double alpha = rsold / pap;

          // (3) x += alpha p;  r -= alpha Ap (both graph-side AXPYs).
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> xs,
              session->Run({{"alpha", Tensor::Scalar(alpha)},
                            {"ax", p},
                            {"ay", x}},
                           {wg.axpy}));
          x = xs[0];
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> rs,
              session->Run({{"alpha", Tensor::Scalar(-alpha)},
                            {"ax", full_ap},
                            {"ay", r}},
                           {wg.axpy}));
          r = rs[0];

          // (4) rsnew = r.r via partial dots.
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> rr_part,
              session->Run({{"u", segment(r)}, {"v", segment(r)}},
                           {wg.dot}));
          TFHPC_RETURN_IF_ERROR(ps.Enqueue(DotIn(w), rr_part[0]));
          TFHPC_ASSIGN_OR_RETURN(Tensor rsnew_t, ps.Dequeue(DotOut(w)));
          const double rsnew = rsnew_t.scalar<double>();

          // (5) p = r + (rsnew/rsold) p.
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> pn,
              session->Run({{"alpha", Tensor::Scalar(rsnew / rsold)},
                            {"ax", p},
                            {"ay", r}},
                           {wg.axpy}));
          p = pn[0];
          rsold = rsnew;

          // Checkpoint (worker 0 owns the file, like a chief task).
          const int64_t done = it + 1;
          if (w == 0 && options.checkpoint_every > 0 &&
              !options.checkpoint_path.empty() &&
              done % options.checkpoint_every == 0) {
            CheckpointState cs{x, r, p, rsold, done};
            TFHPC_RETURN_IF_ERROR(SaveState(options.checkpoint_path, cs));
          }

          if (rsnew < tol || rsnew == 0) {
            ++it;
            break;
          }
          if (interrupt_after > 0 && done - start_iter >= interrupt_after) {
            ++it;
            break;
          }
        }
        final_states[static_cast<size_t>(w)] =
            CheckpointState{x, r, p, rsold, it};
        return Status::OK();
      };
      worker_status[static_cast<size_t>(w)] = run();
    });
  }

  for (auto& t : worker_threads) t.join();
  // Unblock the reducer if a worker died mid-iteration.
  const bool workers_ok =
      std::all_of(worker_status.begin(), worker_status.end(),
                  [](const Status& s) { return s.ok(); });
  if (!workers_ok) ps_server->resources().CloseAllQueues();
  reducer_thread.join();
  const auto end = std::chrono::steady_clock::now();
  for (const Status& s : worker_status) TFHPC_RETURN_IF_ERROR(s);
  TFHPC_RETURN_IF_ERROR(reducer_status);

  const CheckpointState& fin = final_states[0];
  // Workers ran in lockstep on identical broadcasts: states must agree.
  for (int w = 1; w < W; ++w) {
    if (!final_states[static_cast<size_t>(w)].x.BitwiseEquals(fin.x)) {
      return Internal("cg: replicated states diverged across workers");
    }
  }

  // Persist the final checkpoint when interrupted so a rerun resumes.
  if (interrupt_after > 0 && !options.checkpoint_path.empty()) {
    TFHPC_RETURN_IF_ERROR(SaveState(options.checkpoint_path, fin));
  }

  if (!std::isfinite(fin.rsold)) {
    return Internal("cg: residual is not finite after " +
                    std::to_string(fin.iteration) + " iterations");
  }

  CgResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.iterations = static_cast<int>(fin.iteration);
  result.residual = fin.rsold;
  result.solution = fin.x;
  result.gflops =
      PaperFlops(n, static_cast<int>(fin.iteration - start_iter)) /
      result.seconds / 1e9;
  return result;
}

}  // namespace tfhpc::apps
