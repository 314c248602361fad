#include "distrib/server.h"

#include <chrono>
#include <optional>

namespace tfhpc::distrib {

// ----- ReplayCache -----------------------------------------------------------

int64_t ReplayCache::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReplayCache::ExpireLocked(int64_t now_ms) {
  if (options_.ttl_ms <= 0) return;
  // Recency order doubles as touch order (Lookup refreshes both), so the
  // LRU tail is always the stalest entry: sweep from there and stop at the
  // first live one.
  while (!lru_.empty()) {
    auto it = responses_.find(lru_.back());
    if (it == responses_.end()) {  // defensive; should not happen
      lru_.pop_back();
      continue;
    }
    if (now_ms - it->second.last_touch_ms < options_.ttl_ms) break;
    responses_.erase(it);
    lru_.pop_back();
    expirations_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ReplayCache::Lookup(uint64_t client_id, uint64_t request_id,
                         wire::RpcEnvelope* response) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t now = NowMs();
  ExpireLocked(now);
  auto it = responses_.find(Key{client_id, request_id});
  if (it == responses_.end()) return false;
  *response = it->second.response;
  it->second.last_touch_ms = now;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // refresh recency
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReplayCache::Insert(uint64_t client_id, uint64_t request_id,
                         const wire::RpcEnvelope& response) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t now = NowMs();
  ExpireLocked(now);
  const Key key{client_id, request_id};
  if (responses_.count(key)) return;
  while (responses_.size() >= std::max<size_t>(1, options_.max_entries)) {
    responses_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(key);
  responses_.emplace(key, Entry{response, lru_.begin(), now});
}

size_t ReplayCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return responses_.size();
}

// ----- Server ----------------------------------------------------------------

Result<std::unique_ptr<Server>> Server::Create(ServerDef def,
                                               InProcessRouter* router) {
  TFHPC_ASSIGN_OR_RETURN(std::string address,
                         def.cluster.TaskAddress(def.job, def.task));
  std::unique_ptr<Server> server(
      new Server(std::move(def), router, std::move(address)));
  TFHPC_RETURN_IF_ERROR(router->Register(
      server->address_, [raw = server.get()](const wire::RpcEnvelope& req) {
        return raw->Handle(req);
      }));
  return server;
}

namespace {
// Server-side client identities for outgoing rendezvous sends. Shares the
// id space with RemoteTask clients (both are "clients" to the receiver);
// starts high to stay visibly distinct in traces.
uint64_t NextServerClientId() {
  static std::atomic<uint64_t> next{1u << 20};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Step handles are unique across the process, so a server restarted at the
// same address never re-issues a handle a client still caches: the stale
// handle gets kNotFound instead of running another signature.
uint64_t NextStepHandle() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Server::Server(ServerDef def, InProcessRouter* router, std::string address)
    : def_(std::move(def)),
      router_(router),
      address_(std::move(address)),
      replay_cache_(ReplayCacheOptions{def_.replay_cache_entries,
                                       def_.replay_cache_ttl_ms}),
      send_client_id_(NextServerClientId()) {
  devices_ = DeviceMgr::CreateLocal(def_.job, def_.task, def_.num_gpus,
                                    def_.gpu_model);
  if (def_.alloc_faults.enabled()) {
    AllocFaultInjector::Global().Install(def_.alloc_faults);
  }
  if (def_.max_inflight_steps > 0) {
    ServingOptions so = def_.serving;
    so.max_inflight = def_.max_inflight_steps;
    serving_ = std::make_unique<ServingController>(so);
  }
  // One long-lived session shared by every step: compiled Executables (and
  // their placement/kernel work) survive across RunStep requests instead of
  // dying with a per-request session.
  session_ = NewSession();
  session_->set_max_cached_executables(
      std::max<size_t>(1, def_.max_registered_steps));
  // Give kernels a path to remote rendezvous (_Send with a target): a
  // RendezvousSend RPC over this server's configured protocol, retried
  // under def.send_retry. The receiver dedups on (client_id, request_id),
  // so a retry after a lost response does not double-deposit the tensor.
  resources_.set_remote_send([this](const std::string& addr,
                                    const std::string& key,
                                    const Tensor& tensor) -> Status {
    // View payload: over RDMA the tensor bytes cross by buffer reference
    // (end-to-end zero-copy _Send); MPI stages them once; gRPC flattens.
    return SendToPeer(addr, "RendezvousSend",
                      wire::EncodeQueuePayload(key, &tensor, 0));
  });
  // Batched variant for _PackedSend: every coalesced key/tensor pair of a
  // cross-task group crosses in ONE RendezvousSendPacked RPC, under the
  // same dedup and retry contract as the scalar path.
  resources_.set_remote_send_packed(
      [this](const std::string& addr, const std::vector<std::string>& keys,
             const std::vector<Tensor>& tensors) -> Status {
        if (keys.empty() || keys.size() != tensors.size()) {
          return InvalidArgument("packed send needs matching keys/tensors");
        }
        wire::TensorList list;
        for (size_t i = 0; i < keys.size(); ++i) {
          list.emplace_back(keys[i], tensors[i]);
        }
        return SendToPeer(addr, "RendezvousSendPacked",
                          wire::AppendTensorList("", list));
      });
}

Status Server::SendToPeer(const std::string& addr, const std::string& method,
                          wire::PayloadRef payload) {
  wire::RpcEnvelope req;
  req.method = method;
  req.client_id = send_client_id_;
  req.request_id =
      next_send_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.checksum = wire::PayloadChecksum(payload);
  req.payload = std::move(payload);
  // A retry reuses (client_id, request_id): the receiver's replay cache
  // answers a resent frame from the cached response instead of
  // re-depositing the tensors.
  return CallWithRetry(def_.send_retry, req.request_id, [&]() -> Status {
    TFHPC_ASSIGN_OR_RETURN(wire::RpcEnvelope resp,
                           router_->Call(addr, def_.protocol, req));
    return resp.status();
  });
}

void Server::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  router_->Unregister(address_);
  // Unblock anything parked on this server's queues or rendezvous.
  resources_.CloseAllQueues();
  resources_.rendezvous().Abort(
      Cancelled("server " + address_ + " shut down"));
}

Server::~Server() { Shutdown(); }

std::unique_ptr<Session> Server::NewSession() {
  DeviceName default_device;
  default_device.job = def_.job;
  default_device.task = def_.task;
  return std::make_unique<Session>(&graph_, devices_.get(), &resources_,
                                   default_device);
}

Result<std::shared_ptr<const Executable>> Server::PrepareLocked(
    const wire::RegisterStepRequest& sig) {
  std::lock_guard<std::mutex> lk(graph_mu_);
  return session_->Prepare(sig.feeds, sig.fetches, sig.targets);
}

wire::RpcEnvelope Server::Handle(const wire::RpcEnvelope& request) {
  wire::RpcEnvelope response;
  response.method = request.method;
  response.request_id = request.request_id;

  // Integrity first: a frame corrupted in flight must neither be applied
  // nor poison the dedup cache. The reject is kUnavailable so clients
  // retry the (uncorrupted) send.
  if (request.checksum != 0 &&
      wire::PayloadChecksum(request.payload) != request.checksum) {
    checksum_rejects_.fetch_add(1, std::memory_order_relaxed);
    const Status st = Unavailable("payload checksum mismatch for " +
                                  request.method + " (corrupted in flight)");
    response.status_code = static_cast<int32_t>(st.code());
    response.status_msg = st.message();
    return response;
  }

  // Exactly-once: a retried or network-duplicated request replays the
  // cached response instead of re-running a non-idempotent handler.
  if (request.client_id != 0 &&
      replay_cache_.Lookup(request.client_id, request.request_id, &response)) {
    response.request_id = request.request_id;
    return response;
  }

  // Deadline propagation: rebuild the step's token from the wire deadline
  // (absolute steady-clock ns — valid because the in-process cluster shares
  // one clock) and refuse already-expired work before dispatching. Refusing
  // up front is the cheap half of overload protection: an expired step
  // would burn a worker slot producing a result nobody is waiting for.
  std::unique_ptr<CancellationToken> token;
  if (request.deadline_ns != 0) {
    token = std::make_unique<CancellationToken>(
        CancellationToken::Clock::time_point(
            std::chrono::nanoseconds(request.deadline_ns)));
    Status expired = token->Check();
    if (!expired.ok()) {
      expired_rejects_.fetch_add(1, std::memory_order_relaxed);
      response.status_code = static_cast<int32_t>(Code::kDeadlineExceeded);
      response.status_msg =
          request.method + " arrived after its deadline; refused";
      if (request.client_id != 0) {
        replay_cache_.Insert(request.client_id, request.request_id, response);
      }
      return response;
    }
  }

  auto result = Dispatch(request.method, request.payload, request.client_id,
                         token.get());
  if (result.ok()) {
    response.payload = std::move(*result);
  } else {
    response.status_code = static_cast<int32_t>(result.status().code());
    response.status_msg = result.status().message();
    // kResourceExhausted crosses the wire with its taxonomy: the transient
    // bit tells the client's RetryPolicy whether backoff-and-retry is
    // worthwhile (pool pressure) or futile (fixed-budget breach).
    response.transient = IsTransientResourceExhausted(result.status());
  }
  // Cache successes and permanent errors. Retryable failures (a transient
  // kUnavailable from e.g. a remote send inside RunStep, or pool-pressure
  // kResourceExhausted) stay uncached so the client's retry of the same
  // request id re-runs the handler instead of replaying the stale error.
  if (request.client_id != 0 && !IsRetryable(response.status())) {
    replay_cache_.Insert(request.client_id, request.request_id, response);
  }
  return response;
}

Result<wire::PayloadRef> Server::Dispatch(const std::string& method,
                                          const wire::PayloadRef& payload,
                                          uint64_t client_id,
                                          CancellationToken* token) {
  // Graph and registration bodies are plain strings (never a view), so
  // Contiguous() hands back their head without a copy. Tensor frames
  // decode either representation through the wire codecs instead.
  std::string flat_scratch;

  if (method == "Ping") return payload;

  if (method == "ExtendGraph") {
    if (static_cast<int64_t>(payload.size()) > def_.max_graphdef_bytes) {
      return ResourceExhausted(
          "GraphDef of " + std::to_string(payload.size()) +
          " bytes exceeds the " + std::to_string(def_.max_graphdef_bytes) +
          "-byte ProtoBuf limit; keep loop state in variables and ship only "
          "the loop body (paper §IV)");
    }
    TFHPC_ASSIGN_OR_RETURN(
        wire::GraphDef def,
        wire::GraphDef::Parse(payload.Contiguous(&flat_scratch)));
    std::lock_guard<std::mutex> lk(graph_mu_);
    for (const auto& node_def : def.nodes) {
      TFHPC_ASSIGN_OR_RETURN(Node * n, graph_.AddNode(node_def));
      (void)n;
    }
    return wire::PayloadRef();
  }

  if (method == "RegisterStep") {
    TFHPC_ASSIGN_OR_RETURN(wire::RegisterStepRequest req,
                           wire::RegisterStepRequest::Parse(
                               payload.Contiguous(&flat_scratch)));
    TFHPC_ASSIGN_OR_RETURN(std::shared_ptr<const Executable> exe,
                           PrepareLocked(req));
    wire::RegisterStepResponse resp;
    resp.graph_version = exe->graph_version();
    {
      std::lock_guard<std::mutex> lk(steps_mu_);
      // FIFO eviction: drop the oldest handle; its client re-registers on
      // the resulting kNotFound.
      while (registered_steps_.size() >=
             std::max<size_t>(1, def_.max_registered_steps)) {
        registered_steps_.erase(registered_steps_.begin());
      }
      resp.handle = NextStepHandle();
      registered_steps_.emplace(
          resp.handle, RegisteredStep{std::move(req), std::move(exe)});
    }
    steps_registered_.fetch_add(1, std::memory_order_relaxed);
    return wire::PayloadRef(resp.Serialize());
  }

  if (method == "RunStep") {
    TFHPC_ASSIGN_OR_RETURN(wire::RunStepRequest req,
                           wire::RunStepRequest::Parse(payload));
    RegisteredStep step;
    {
      std::lock_guard<std::mutex> lk(steps_mu_);
      auto it = registered_steps_.find(req.step_handle);
      if (it == registered_steps_.end()) {
        return NotFound("unknown step handle " +
                        std::to_string(req.step_handle) +
                        " (worker restarted or handle evicted); "
                        "re-register the step");
      }
      step = it->second;
    }
    std::shared_ptr<const Executable> exe = step.executable;
    if (exe->stale(graph_)) {
      // The graph was extended after this step compiled: recompile the
      // registered signature transparently and re-pin the handle.
      TFHPC_ASSIGN_OR_RETURN(exe, PrepareLocked(step.signature));
      std::lock_guard<std::mutex> lk(steps_mu_);
      auto it = registered_steps_.find(req.step_handle);
      if (it != registered_steps_.end()) it->second.executable = exe;
    }
    RunOptions options;
    options.simulate = req.simulate;
    options.cancellation = token;
    options.step_memory_limit_bytes = def_.step_memory_limit_bytes;
    // Admission control: bounded in-flight steps with per-client fairness
    // AND a byte budget charged with the memory planner's static peak (an
    // upper bound sound under concurrency). A step with no bound (compiled
    // without a plan, or only dynamically shaped tensors) is charged the
    // whole budget and runs alone.
    // Excess load sheds with kUnavailable + retry-after, a queued step
    // whose deadline fires while waiting leaves with kDeadlineExceeded, and
    // a step whose peak can never fit the budget is refused with permanent
    // kResourceExhausted. Admission sits after executable resolution so the
    // bound exists; compiling an unadmitted step is paid once per
    // signature, not per run.
    std::optional<ServingController::Slot> slot;
    if (serving_ != nullptr) {
      const int64_t admission_bytes = exe->static_peak_bytes() > 0
                                          ? exe->static_peak_bytes()
                                          : def_.serving.max_estimated_bytes;
      slot.emplace(serving_.get(), std::to_string(client_id), token,
                   admission_bytes);
      TFHPC_RETURN_IF_ERROR(slot->status());
    }
    TFHPC_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                           session_->RunPrepared(*exe, req.feeds, options));
    wire::TensorList fetched;
    for (size_t i = 0; i < outputs.size(); ++i) {
      fetched.emplace_back(step.signature.fetches[i], std::move(outputs[i]));
    }
    return wire::AppendTensorList("", fetched);
  }

  if (method == "Enqueue") {
    std::string queue;
    Tensor tensor;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeQueuePayload(payload, &queue, &tensor, &capacity));
    if (!tensor.valid()) return InvalidArgument("Enqueue without tensor");
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, capacity));
    TFHPC_RETURN_IF_ERROR(q->Enqueue(std::move(tensor), token));
    return wire::PayloadRef();
  }

  if (method == "Dequeue") {
    std::string queue;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeQueuePayload(payload, &queue, nullptr, &capacity));
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, capacity));
    TFHPC_ASSIGN_OR_RETURN(Tensor t, q->Dequeue(token));
    return wire::SerializeTensorView(t);
  }

  if (method == "CloseQueue") {
    std::string queue;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeQueuePayload(payload, &queue, nullptr, &capacity));
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, 0));
    q->Close();
    return wire::PayloadRef();
  }

  if (method == "VarWrite") {
    std::string var;
    Tensor tensor;
    bool accumulate, want_value;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeVarPayload(payload, &var, &tensor, &accumulate,
                             &want_value));
    if (!tensor.valid()) return InvalidArgument("VarWrite without tensor");
    Variable* v = resources_.LookupOrCreateVariable(var);
    Tensor value;
    if (accumulate) {
      TFHPC_ASSIGN_OR_RETURN(value, v->Accumulate(tensor));
    } else {
      v->Write(tensor);
      value = tensor;
    }
    // The paper's STREAM explicitly avoids returning the value (it would
    // double the traffic); honour want_value.
    if (!want_value) return wire::PayloadRef();
    return wire::SerializeTensorView(value);
  }

  if (method == "AbortStep") {
    // Step cancellation: unblock every _Recv parked on this task (the
    // rendezvous stays poisoned until ResetStep) AND every thread blocked
    // in a queue Enqueue/Dequeue — including barrier waits parked inside
    // remote Dequeue handlers. Queues stay open: they are shared across
    // steps and tenants, so only the *waiters* fail, with kCancelled.
    const Status reason =
        Cancelled("step aborted" +
                  (payload.empty() ? ""
                                 : ": " + payload.Contiguous(&flat_scratch)));
    resources_.rendezvous().Abort(reason);
    resources_.CancelAllQueueWaiters(reason);
    return wire::PayloadRef();
  }

  if (method == "ResetStep") {
    resources_.rendezvous().Reset();
    return wire::PayloadRef();
  }

  if (method == "RendezvousSend") {
    std::string key;
    Tensor tensor;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeQueuePayload(payload, &key, &tensor, &capacity));
    if (!tensor.valid()) return InvalidArgument("RendezvousSend without tensor");
    TFHPC_RETURN_IF_ERROR(resources_.rendezvous().Send(key, std::move(tensor)));
    return wire::PayloadRef();
  }

  if (method == "RendezvousSendPacked") {
    wire::TensorList sends;
    TFHPC_RETURN_IF_ERROR(wire::ReadTensorList(payload, &sends));
    if (sends.empty()) {
      return InvalidArgument("RendezvousSendPacked without tensors");
    }
    for (auto& [key, tensor] : sends) {
      TFHPC_RETURN_IF_ERROR(
          resources_.rendezvous().Send(key, std::move(tensor)));
    }
    return wire::PayloadRef();
  }

  if (method == "VarSnapshot") {
    const std::map<std::string, Tensor> vars = resources_.VariableSnapshot();
    return wire::AppendTensorList("", {vars.begin(), vars.end()});
  }

  if (method == "VarRestore") {
    wire::TensorList vars;
    TFHPC_RETURN_IF_ERROR(wire::ReadTensorList(payload, &vars));
    resources_.RestoreVariables({vars.begin(), vars.end()});
    return wire::PayloadRef();
  }

  if (method == "VarRead") {
    std::string var;
    bool accumulate, want_value;
    TFHPC_RETURN_IF_ERROR(
        wire::DecodeVarPayload(payload, &var, nullptr, &accumulate,
                             &want_value));
    Variable* v = resources_.LookupOrCreateVariable(var);
    TFHPC_ASSIGN_OR_RETURN(Tensor t, v->Read());
    return wire::SerializeTensorView(t);
  }

  return Unimplemented("unknown method '" + method + "'");
}

}  // namespace tfhpc::distrib
