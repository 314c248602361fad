#include "distrib/client.h"

namespace tfhpc::distrib {

namespace {
// Process-unique client ids; id 0 is reserved for "no dedup".
uint64_t NextClientId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

RemoteTask::RemoteTask(InProcessRouter* router, std::string addr,
                       WireProtocol proto, RetryPolicy retry)
    : router_(router),
      addr_(std::move(addr)),
      proto_(proto),
      retry_(retry),
      client_id_(NextClientId()) {}

Result<wire::PayloadRef> RemoteTask::Call(const std::string& method,
                                          wire::PayloadRef payload,
                                          CancellationToken* token) {
  wire::RpcEnvelope req;
  req.method = method;
  req.client_id = client_id_;
  // One request id per *logical* call: every retry below resends the same
  // id, so the server's dedup cache replays (not re-applies) ops whose
  // response was lost in flight.
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.checksum = wire::PayloadChecksum(payload);
  req.payload = std::move(payload);

  // Deadline propagation: refuse expired work client-side, stamp the
  // absolute deadline on the wire, and spend retries from the remaining
  // step budget instead of re-arming the full policy deadline per call.
  RetryPolicy effective = retry_;
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) {
      return Status(ts.code(), addr_ + "/" + method + ": " + ts.message());
    }
    if (token->has_deadline()) {
      req.deadline_ns = token->deadline_ns();
      effective = ClampToRemaining(effective, token->remaining_ms());
    }
  }

  wire::PayloadRef out;
  int64_t retries = 0;
  Status st = CallWithRetry(
      effective, req.request_id,
      [&]() -> Status {
        // Re-check per attempt: a token cancelled mid-retry (peer failure,
        // deadline) stops the loop here — kCancelled/kDeadlineExceeded are
        // non-retryable, so this attempt's status is final.
        if (token != nullptr) {
          Status ts = token->Check();
          if (!ts.ok()) return ts;
        }
        auto r = router_->Call(addr_, proto_, req);
        if (!r.ok()) return r.status();
        TFHPC_RETURN_IF_ERROR(r->status());
        out = std::move(r->payload);
        return Status::OK();
      },
      &retries);
  retries_.fetch_add(retries, std::memory_order_relaxed);
  if (!st.ok()) {
    return Status(st.code(), addr_ + "/" + method + ": " + st.message());
  }
  return out;
}

Status RemoteTask::DecodeApplied(const std::string& method,
                                 CancellationToken* token,
                                 const std::function<Status()>& decode) {
  RetryPolicy policy = retry_;
  if (token != nullptr && token->has_deadline()) {
    policy = ClampToRemaining(policy, token->remaining_ms());
  }
  RetryState state(policy, client_id_);
  for (;;) {
    Status st = decode();
    if (!IsTransientResourceExhausted(st)) return st;
    Status final;
    if (!state.BackoffAndRetry(st, &final)) {
      return PermanentResourceExhausted(
          Status(st.code(), addr_ + "/" + method +
                                ": response lost after the call was applied: " +
                                st.message()));
    }
  }
}

Status RemoteTask::Ping() {
  auto r = Call("Ping", "hello");
  if (!r.ok()) return r.status();
  if (*r != "hello") return Internal("ping payload corrupted");
  return Status::OK();
}

Status RemoteTask::Enqueue(const std::string& queue, const Tensor& tensor,
                           int64_t capacity, CancellationToken* token) {
  auto r = Call("Enqueue", wire::EncodeQueuePayload(queue, &tensor, capacity),
                token);
  return r.ok() ? Status::OK() : r.status();
}

Result<Tensor> RemoteTask::Dequeue(const std::string& queue, int64_t capacity,
                                   CancellationToken* token) {
  TFHPC_ASSIGN_OR_RETURN(
      wire::PayloadRef payload,
      Call("Dequeue", wire::EncodeQueuePayload(queue, nullptr, capacity),
           token));
  Tensor t;
  TFHPC_RETURN_IF_ERROR(DecodeApplied("Dequeue", token, [&]() -> Status {
    TFHPC_ASSIGN_OR_RETURN(t, wire::ParseTensor(payload));
    return Status::OK();
  }));
  // In-process zero-copy transports hand back the server's buffer: release
  // the payload's reference so a sole-owner tensor detaches in place, then
  // sever any server-device allocator attribution before the tensor escapes
  // to the caller (who may outlive the server).
  payload = wire::PayloadRef();
  TFHPC_RETURN_IF_ERROR(DecodeApplied(
      "Dequeue", token, [&]() { return t.DetachFromAllocator(); }));
  return t;
}

Status RemoteTask::CloseQueue(const std::string& queue) {
  auto r = Call("CloseQueue", wire::EncodeQueuePayload(queue, nullptr, 0));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::VarAssign(const std::string& var, const Tensor& tensor) {
  auto r = Call("VarWrite",
                wire::EncodeVarPayload(var, &tensor, /*accumulate=*/false,
                                 /*want_value=*/false));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::VarAssignAdd(const std::string& var, const Tensor& tensor) {
  auto r = Call("VarWrite",
                wire::EncodeVarPayload(var, &tensor, /*accumulate=*/true,
                                 /*want_value=*/false));
  return r.ok() ? Status::OK() : r.status();
}

Result<Tensor> RemoteTask::VarRead(const std::string& var) {
  TFHPC_ASSIGN_OR_RETURN(
      wire::PayloadRef payload,
      Call("VarRead", wire::EncodeVarPayload(var, nullptr, false, false)));
  TFHPC_ASSIGN_OR_RETURN(Tensor t, wire::ParseTensor(payload));
  // The view may alias the live server-side variable: detach (copying if
  // still shared) so the result neither aliases mutable server state nor
  // keeps a pointer into the server device's allocator accounting.
  payload = wire::PayloadRef();
  TFHPC_RETURN_IF_ERROR(t.DetachFromAllocator());
  return t;
}

Result<std::map<std::string, Tensor>> RemoteTask::VarSnapshot() {
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload, Call("VarSnapshot", ""));
  wire::TensorList vars;
  TFHPC_RETURN_IF_ERROR(wire::ReadTensorList(payload, &vars));
  // The trailing value may be a view of a live server variable: detach it
  // like VarRead does.
  payload = wire::PayloadRef();
  std::map<std::string, Tensor> snapshot;
  for (auto& [name, t] : vars) {
    TFHPC_RETURN_IF_ERROR(t.DetachFromAllocator());
    snapshot.emplace(std::move(name), std::move(t));
  }
  return snapshot;
}

Status RemoteTask::VarRestore(const std::map<std::string, Tensor>& vars) {
  auto r = Call("VarRestore",
                wire::AppendTensorList("", {vars.begin(), vars.end()}));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::RendezvousSend(const std::string& key,
                                  const Tensor& tensor) {
  auto r = Call("RendezvousSend", wire::EncodeQueuePayload(key, &tensor, 0));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::AbortStep(const std::string& reason) {
  auto r = Call("AbortStep", reason);
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::ResetStep() {
  auto r = Call("ResetStep", "");
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::ExtendGraph(const wire::GraphDef& def) {
  auto r = Call("ExtendGraph", def.Serialize());
  return r.ok() ? Status::OK() : r.status();
}

Result<std::vector<Tensor>> RemoteTask::RunStep(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, bool simulate,
    CancellationToken* token) {
  std::vector<std::string> feed_names;
  for (const auto& [name, tensor] : feeds) feed_names.push_back(name);
  std::atomic<uint64_t>* handle;
  {
    std::lock_guard<std::mutex> lk(steps_mu_);
    handle = &step_handles_[{feed_names, fetches, targets}];
  }
  return RunCachedStep(handle, feed_names, fetches, targets, feeds, simulate,
                       token);
}

Result<std::vector<Tensor>> RemoteTask::RunCachedStep(
    std::atomic<uint64_t>* handle, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const std::map<std::string, Tensor>& feeds, bool simulate,
    CancellationToken* token) {
  uint64_t h = handle->load();
  for (bool first = true;; first = false) {
    if (h == 0) {
      TFHPC_ASSIGN_OR_RETURN(h,
                             RegisterStep(feed_names, fetches, targets, token));
      handle->store(h);
    }
    auto r = RunRegisteredStep(h, feeds, simulate, token);
    if (!first || r.ok() || r.status().code() != Code::kNotFound) return r;
    h = 0;
  }
}

Result<uint64_t> RemoteTask::RegisterStep(
    const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, CancellationToken* token) {
  wire::RegisterStepRequest req;
  req.feeds = feed_names;
  req.fetches = fetches;
  req.targets = targets;
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload,
                         Call("RegisterStep", req.Serialize(), token));
  std::string scratch;
  TFHPC_ASSIGN_OR_RETURN(
      wire::RegisterStepResponse resp,
      wire::RegisterStepResponse::Parse(payload.Contiguous(&scratch)));
  if (resp.handle == 0) {
    return Internal(addr_ + "/RegisterStep returned a null handle");
  }
  return resp.handle;
}

Result<std::vector<Tensor>> RemoteTask::RunRegisteredStep(
    uint64_t handle, const std::map<std::string, Tensor>& feeds, bool simulate,
    CancellationToken* token) {
  wire::RunStepRequest req;
  req.feeds = feeds;
  req.simulate = simulate;
  req.step_handle = handle;
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload,
                         Call("RunStep", req.Serialize(), token));
  wire::TensorList fetched;
  TFHPC_RETURN_IF_ERROR(DecodeApplied("RunStep", token, [&]() {
    return wire::ReadTensorList(payload, &fetched);
  }));
  // As in Dequeue: the trailing fetch may hold the server's buffer, so drop
  // the payload's reference first and detach each tensor.
  payload = wire::PayloadRef();
  std::vector<Tensor> out;
  for (auto& [name, t] : fetched) out.push_back(std::move(t));
  TFHPC_RETURN_IF_ERROR(DecodeApplied("RunStep", token, [&]() -> Status {
    for (Tensor& t : out) TFHPC_RETURN_IF_ERROR(t.DetachFromAllocator());
    return Status::OK();
  }));
  return out;
}

}  // namespace tfhpc::distrib
