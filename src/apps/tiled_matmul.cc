#include "apps/tiled_matmul.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "apps/app_graphs.h"
#include "core/rng.h"
#include "graph/ops.h"
#include "io/dataset.h"
#include "kernels/gemm.h"
#include "wire/coded.h"

namespace tfhpc::apps {
namespace {

// A product task: C[i][j] += A[i][k] * B[k][j].
struct Product {
  int64_t i, j, k;
};

// Queue elements must be single tensors; a result tile travels with its
// target index as a serialized (i, j, TensorProto) triple in a u8 tensor.
Tensor EncodeTaggedTile(int64_t i, int64_t j, const Tensor& tile) {
  std::string buf;
  wire::CodedOutput co(&buf);
  co.WriteUInt64(1, static_cast<uint64_t>(i));
  co.WriteUInt64(2, static_cast<uint64_t>(j));
  co.WriteMessage(3, wire::SerializeTensor(tile));
  Tensor t(DType::kU8, Shape{static_cast<int64_t>(buf.size())});
  std::memcpy(t.raw_data(), buf.data(), buf.size());
  return t;
}

Status DecodeTaggedTile(const Tensor& t, int64_t* i, int64_t* j, Tensor* tile) {
  if (t.dtype() != DType::kU8) return InvalidArgument("tagged tile not u8");
  wire::CodedInput in(t.raw_data(), static_cast<size_t>(t.num_elements()));
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    uint64_t v = 0;
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *i = static_cast<int64_t>(v);
    } else if (field == 2) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *j = static_cast<int64_t>(v);
    } else if (field == 3) {
      const uint8_t* d;
      size_t s;
      TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
      TFHPC_ASSIGN_OR_RETURN(*tile, wire::ParseTensor(d, s));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return Status::OK();
}

Status ValidateOptions(const TiledMatmulOptions& o) {
  if (o.n <= 0 || o.tile <= 0 || o.tile > o.n) {
    return InvalidArgument("tiled matmul: need 0 < tile <= n");
  }
  if (o.num_workers <= 0 || o.num_reducers <= 0) {
    return InvalidArgument("tiled matmul: need workers and reducers");
  }
  return Status::OK();
}

double PaperFlops(int64_t n) {
  const double dn = static_cast<double>(n);
  return 2 * dn * dn * dn - dn * dn;
}

}  // namespace

Result<TiledMatmulResult> SimulateTiledMatmul(
    const sim::MachineConfig& cfg, sim::Protocol protocol,
    const TiledMatmulOptions& options) {
  TFHPC_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t t = options.tile;
  const int64_t tile_bytes = t * t * 4;  // f32
  // Working set on a GPU: two input tiles + one output.
  if (cfg.gpu_model.mem_bytes > 0 && 3 * tile_bytes > cfg.gpu_model.mem_bytes) {
    return ResourceExhausted("tile " + std::to_string(t) + " does not fit " +
                             cfg.gpu_model.model_name);
  }
  const int64_t grid = (options.n + t - 1) / t;

  sim::ClusterModel cm(cfg, options.num_workers);
  // Reducers live on the CPUs of the GPU nodes, round-robin.
  auto reducer_node = [&](int r) { return r % cm.num_nodes(); };

  // Per-worker input pipeline: tile loads are sequential within a worker
  // (single Dataset iterator) and run ahead of GPU compute (prefetching);
  // the worker's client loop, however, serializes step dispatch + result
  // push per product (one session invocation each).
  std::vector<sim::OpId> prev_load(static_cast<size_t>(options.num_workers));
  std::vector<sim::OpId> prev_step(static_cast<size_t>(options.num_workers));
  for (int w = 0; w < options.num_workers; ++w) {
    prev_load[static_cast<size_t>(w)] = cm.Delay(0, {});
    prev_step[static_cast<size_t>(w)] = cm.Delay(0, {});
  }

  int64_t task_index = 0;
  for (int64_t i = 0; i < grid; ++i) {
    for (int64_t j = 0; j < grid; ++j) {
      for (int64_t k = 0; k < grid; ++k, ++task_index) {
        const int w = static_cast<int>(task_index % options.num_workers);
        const sim::Loc gpu = cm.GpuLoc(w);
        const sim::Loc host = cm.HostLoc(gpu.node);

        sim::OpId load_a = cm.DiskRead(gpu.node, tile_bytes,
                                       {prev_load[static_cast<size_t>(w)]},
                                       "loadA");
        sim::OpId load_b = cm.DiskRead(gpu.node, tile_bytes, {load_a}, "loadB");
        prev_load[static_cast<size_t>(w)] = load_b;

        sim::OpId h2d_a =
            cm.Transfer(host, gpu, tile_bytes, sim::Protocol::kRdma, {load_a},
                        "h2dA");
        sim::OpId h2d_b =
            cm.Transfer(host, gpu, tile_bytes, sim::Protocol::kRdma, {load_b},
                        "h2dB");
        const double flops = 2.0 * static_cast<double>(t) * t * t;
        sim::OpId gemm = cm.GpuCompute(
            w, flops, 3 * tile_bytes, false,
            {h2d_a, h2d_b, prev_step[static_cast<size_t>(w)]}, "gemm");
        const int r = static_cast<int>((i * grid + j) % options.num_reducers);
        sim::OpId push = cm.Transfer(gpu, cm.HostLoc(reducer_node(r)),
                                     tile_bytes, protocol, {gemm}, "push");
        prev_step[static_cast<size_t>(w)] = cm.StepOverhead({push});
        // Single-threaded reducer: dequeue + decode + numpy accumulate per
        // tile — markedly slower than a store-only consumer.
        sim::OpId drained = cm.HostIngest(reducer_node(r), r, tile_bytes,
                                          {push}, "drain",
                                          /*bps=*/1.2e9);
        cm.HostCompute(reducer_node(r), /*lane=*/r,
                       static_cast<double>(t) * t, 3 * tile_bytes, {drained},
                       "accumulate");
      }
    }
  }

  TFHPC_ASSIGN_OR_RETURN(sim::ReplayResult replay, cm.Replay());
  TiledMatmulResult result;
  result.seconds = replay.makespan;
  result.gflops = PaperFlops(options.n) / replay.makespan / 1e9;
  return result;
}

Result<TiledMatmulResult> RunTiledMatmulFunctional(
    const TiledMatmulOptions& options, const std::string& work_dir,
    distrib::WireProtocol protocol, bool verify_dense) {
  TFHPC_RETURN_IF_ERROR(ValidateOptions(options));
  const int64_t n = options.n;
  const int64_t t = options.tile;
  const int64_t grid = (n + t - 1) / t;
  const int W = options.num_workers;
  const int R = options.num_reducers;

  // ---- pre-processing: random matrices tiled into .npy files --------------
  Tensor a(DType::kF32, Shape{n, n});
  Tensor b(DType::kF32, Shape{n, n});
  FillUniform(a, 101);
  FillUniform(b, 202);
  TFHPC_ASSIGN_OR_RETURN(io::TileStore store_a,
                         io::TileStore::Create(work_dir + "/A", a, t, t));
  TFHPC_ASSIGN_OR_RETURN(io::TileStore store_b,
                         io::TileStore::Create(work_dir + "/B", b, t, t));

  // ---- cluster: W workers + R reducers --------------------------------------
  wire::ClusterDef cluster_def;
  {
    wire::JobDef workers;
    workers.name = "worker";
    for (int w = 0; w < W; ++w) {
      workers.task_addrs.push_back("w" + std::to_string(w) + ":2222");
    }
    wire::JobDef reducers;
    reducers.name = "reducer";
    for (int r = 0; r < R; ++r) {
      reducers.task_addrs.push_back("r" + std::to_string(r) + ":2222");
    }
    cluster_def.jobs = {workers, reducers};
  }
  TFHPC_ASSIGN_OR_RETURN(distrib::ClusterSpec spec,
                         distrib::ClusterSpec::Create(cluster_def));
  distrib::InProcessRouter router;
  std::vector<std::unique_ptr<distrib::Server>> servers;
  for (int w = 0; w < W; ++w) {
    TFHPC_ASSIGN_OR_RETURN(
        auto s, distrib::Server::Create({spec, "worker", w, 1}, &router));
    servers.push_back(std::move(s));
  }
  for (int r = 0; r < R; ++r) {
    TFHPC_ASSIGN_OR_RETURN(
        auto s, distrib::Server::Create({spec, "reducer", r, 0}, &router));
    servers.push_back(std::move(s));
  }

  // ---- shared dataset of products -------------------------------------------
  std::vector<Product> products;
  for (int64_t i = 0; i < grid; ++i)
    for (int64_t j = 0; j < grid; ++j)
      for (int64_t k = 0; k < grid; ++k) products.push_back({i, j, k});
  io::WorkList<Product> dataset =
      options.shuffle_seed != 0
          ? io::WorkList<Product>(products, options.shuffle_seed)
          : io::WorkList<Product>(products);

  // Expected tile count per reducer (target parity partitioning).
  std::vector<int64_t> expected(static_cast<size_t>(R), 0);
  for (int64_t i = 0; i < grid; ++i)
    for (int64_t j = 0; j < grid; ++j)
      expected[static_cast<size_t>((i * grid + j) % R)] += grid;

  const auto start = std::chrono::steady_clock::now();

  // ---- workers: load tiles, matmul on their GPU via the graph, push ----------
  std::vector<Status> worker_status(static_cast<size_t>(W));
  std::vector<std::thread> worker_threads;
  for (int w = 0; w < W; ++w) {
    worker_threads.emplace_back([&, w] {
      auto run = [&]() -> Status {
        distrib::Server* server = servers[static_cast<size_t>(w)].get();
        // Per-worker graph (replicated, data parallelism): a @ b on the GPU.
        Scope scope = Scope(&server->graph()).WithDevice("/gpu:0");
        const TiledMatmulGraph wg = BuildTiledMatmulGraph(scope, t);
        auto session = server->NewSession();
        while (auto task = dataset.GetNext()) {
          TFHPC_ASSIGN_OR_RETURN(Tensor ta, store_a.LoadTile(task->i, task->k));
          TFHPC_ASSIGN_OR_RETURN(Tensor tb, store_b.LoadTile(task->k, task->j));
          TFHPC_ASSIGN_OR_RETURN(
              std::vector<Tensor> out,
              session->Run({{"a", ta}, {"b", tb}}, {wg.product}));
          const int r = static_cast<int>((task->i * grid + task->j) % R);
          TFHPC_ASSIGN_OR_RETURN(std::string addr,
                                 spec.TaskAddress("reducer", r));
          distrib::RemoteTask reducer(&router, addr, protocol);
          TFHPC_RETURN_IF_ERROR(reducer.Enqueue(
              "tiles", EncodeTaggedTile(task->i, task->j, out[0])));
        }
        return Status::OK();
      };
      worker_status[static_cast<size_t>(w)] = run();
    });
  }

  // ---- reducers: drain queues, accumulate tiles locally ("Numpy array") -----
  std::vector<Status> reducer_status(static_cast<size_t>(R));
  std::vector<std::map<std::pair<int64_t, int64_t>, Tensor>> reduced(
      static_cast<size_t>(R));
  std::vector<std::thread> reducer_threads;
  for (int r = 0; r < R; ++r) {
    reducer_threads.emplace_back([&, r] {
      auto run = [&]() -> Status {
        distrib::Server* self = servers[static_cast<size_t>(W + r)].get();
        TFHPC_ASSIGN_OR_RETURN(FIFOQueue * queue,
                               self->resources().LookupOrCreateQueue("tiles"));
        auto& acc = reduced[static_cast<size_t>(r)];
        for (int64_t c = 0; c < expected[static_cast<size_t>(r)]; ++c) {
          TFHPC_ASSIGN_OR_RETURN(Tensor tagged, queue->Dequeue());
          int64_t i = -1, j = -1;
          Tensor tile;
          TFHPC_RETURN_IF_ERROR(DecodeTaggedTile(tagged, &i, &j, &tile));
          auto key = std::make_pair(i, j);
          auto it = acc.find(key);
          if (it == acc.end()) {
            acc.emplace(key, tile.Clone());
          } else {
            Tensor& sum = it->second;
            auto dst = sum.mutable_span<float>();
            const auto src = tile.data<float>();
            for (size_t e = 0; e < dst.size(); ++e) dst[e] += src[e];
          }
        }
        return Status::OK();
      };
      reducer_status[static_cast<size_t>(r)] = run();
    });
  }

  for (auto& th : worker_threads) th.join();
  // If a worker died, reducers would wait forever for missing tiles: close
  // their queues so pending dequeues unwind with OutOfRange.
  const bool workers_ok =
      std::all_of(worker_status.begin(), worker_status.end(),
                  [](const Status& s) { return s.ok(); });
  if (!workers_ok) {
    for (int r = 0; r < R; ++r) {
      servers[static_cast<size_t>(W + r)]->resources().CloseAllQueues();
    }
  }
  for (auto& th : reducer_threads) th.join();
  const auto end = std::chrono::steady_clock::now();
  for (const Status& s : worker_status) TFHPC_RETURN_IF_ERROR(s);
  for (const Status& s : reducer_status) TFHPC_RETURN_IF_ERROR(s);

  // ---- assemble C and verify ---------------------------------------------------
  if (verify_dense) {
    Tensor c(DType::kF32, Shape{n, n});
    for (const auto& shard : reduced) {
      for (const auto& [key, tile] : shard) {
        const int64_t r0 = key.first * t;
        const int64_t c0 = key.second * t;
        const auto src = tile.data<float>();
        const int64_t th = tile.shape().dim(0);
        const int64_t tw = tile.shape().dim(1);
        for (int64_t rr = 0; rr < th; ++rr) {
          std::memcpy(c.mutable_data<float>() + (r0 + rr) * n + c0,
                      src.data() + rr * tw,
                      static_cast<size_t>(tw) * sizeof(float));
        }
      }
    }
    Tensor ref(DType::kF32, Shape{n, n});
    TFHPC_RETURN_IF_ERROR(blas::Gemm(a.data<float>().data(),
                                     b.data<float>().data(),
                                     ref.mutable_data<float>(), n, n, n));
    const auto got = c.data<float>();
    const auto want = ref.data<float>();
    for (int64_t e = 0; e < n * n; ++e) {
      const float scale = std::max(1.0f, std::abs(want[static_cast<size_t>(e)]));
      if (std::abs(got[static_cast<size_t>(e)] - want[static_cast<size_t>(e)]) >
          1e-3f * scale) {
        return Internal("tiled result mismatch at flat index " +
                        std::to_string(e));
      }
    }
  }

  TiledMatmulResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.gflops = PaperFlops(n) / result.seconds / 1e9;
  return result;
}

}  // namespace tfhpc::apps
