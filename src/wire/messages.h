// Message schemas serialized with the protobuf wire format (wire/coded.h):
// tensors, graph definitions, cluster definitions, RPC envelopes and every
// RPC body of the worker service. These correspond to TensorFlow's
// TensorProto / NodeDef / GraphDef / ClusterDef and the framing used by its
// gRPC worker service; field numbers are local to tfhpc but the encoding
// rules are protobuf-compatible (unknown fields are skipped on parse).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "wire/coded.h"
#include "wire/payload.h"

namespace tfhpc::wire {

// ---- TensorProto ----------------------------------------------------------
// field 1: dtype (varint)      field 2: dims (repeated varint)
// field 3: content (bytes)     field 4: is_meta (bool)
//
// SerializeTensorView is the one encoder: the header fields and the field-3
// tag + length prefix go into the payload head, and the tensor's buffer is
// *referenced* as the view (the content bytes are never copied).
// SerializeTensor is its Flatten(). ParseTensor is the one parser, over head
// bytes plus an optional view: content inside the head is copied once into
// a pooled, uninitialized buffer; content that is a view spanning its whole
// buffer is adopted without a copy (a sub-view copies once).
PayloadRef SerializeTensorView(const Tensor& t);
std::string SerializeTensor(const Tensor& t);
Result<Tensor> ParseTensor(const void* data, size_t size);
Result<Tensor> ParseTensor(const std::string& data);
Result<Tensor> ParseTensor(const PayloadRef& p);
// The dtype and shape of a serialized tensor as a meta tensor. The same
// parser and checks as ParseTensor, but the content is never copied, so
// reading a header allocates nothing.
Result<Tensor> ParseTensorMeta(const std::string& data);

// ---- Tensor fields inside frames --------------------------------------------
// The RPC bodies that carry tensors (queue, variable and rendezvous frames)
// are messages with one TensorProto field. These helpers are the only code
// that knows where that tensor's content lives in a frame.

// Appends `t` as length-delimited field `field` to the frame `head` and
// returns the frame. The content rides as a view, so the tensor must be the
// frame's last field.
PayloadRef AppendTensorField(std::string head, uint32_t field, const Tensor& t);

// Reads a tensor field whose tag (wire type `wt`) `in` just consumed. `in`
// reads the head of `frame`, or any bytes with no view when `frame` is null.
// Inline frames take the field in any position; in a view frame the tensor
// message is the rest of the head followed by the whole view, so the field
// must end the frame.
Result<Tensor> ReadTensorField(CodedInput& in, WireType wt,
                               const PayloadRef* frame = nullptr);

// A (name = 1, tensor = 2) entry written as length-delimited field `field`:
// the inline element of a tensor list (below). The reader takes `in` just
// past the entry's tag and rejects an entry without a name.
void WriteNamedTensor(CodedOutput& co, uint32_t field, const std::string& name,
                      const Tensor& t);
Status ReadNamedTensor(CodedInput& in, std::string* name, Tensor* t);

// ---- Tensor lists -----------------------------------------------------------
// The one name -> tensor list frame: RunStep feeds and fetches, variable
// snapshots and restores, packed rendezvous sends. Every entry but the last
// is an inline named entry (field 1); the last is its name (field 2) and
// its tensor (field 3, AppendTensorField), so the list's trailing tensor
// crosses as a view. An empty list adds no field.
using TensorList = std::vector<std::pair<std::string, Tensor>>;

// Appends `list` to the frame `head` (the frame's other fields) and returns
// the frame.
PayloadRef AppendTensorList(std::string head, const TensorList& list);

// A reader for the frame fields around a list: called with the field's tag
// consumed, it must consume the value.
using FieldReader =
    std::function<Status(CodedInput& in, uint32_t field, WireType wt)>;

// Reads the list entries of `frame` into `*list`. Other fields go to
// `other`, or are skipped when it is null. Refuses an entry without a name,
// a trailing name without its tensor or the reverse, inline entries with no
// trailing one, and a view frame whose view holds no trailing tensor.
Status ReadTensorList(const PayloadRef& frame, TensorList* list,
                      const FieldReader& other = nullptr);

// ---- AttrValue -------------------------------------------------------------
// A graph-attribute value: exactly one of the members is meaningful.
struct AttrValue {
  enum class Kind { kNone, kInt, kFloat, kString, kType, kShape, kBool };
  Kind kind = Kind::kNone;
  int64_t i = 0;
  double f = 0;
  std::string s;
  DType type = DType::kInvalid;
  Shape shape;
  bool b = false;

  static AttrValue Int(int64_t v);
  static AttrValue Float(double v);
  static AttrValue Str(std::string v);
  static AttrValue Type(DType v);
  static AttrValue OfShape(Shape v);
  static AttrValue Bool(bool v);

  bool operator==(const AttrValue& o) const;

  std::string Serialize() const;
  static Result<AttrValue> Parse(const void* data, size_t size);
};

// ---- NodeDef / GraphDef -----------------------------------------------------
struct NodeDef {
  std::string name;                 // field 1
  std::string op;                   // field 2
  std::vector<std::string> inputs;  // field 3; "^name" = control dependency
  std::string device;               // field 4; e.g. "/job:worker/task:0/gpu:0"
  std::map<std::string, AttrValue> attrs;  // field 5 (nested key=1, value=2)

  std::string Serialize() const;
  static Result<NodeDef> Parse(const void* data, size_t size);
  bool operator==(const NodeDef& o) const;
};

struct GraphDef {
  std::vector<NodeDef> nodes;  // field 1
  int64_t version = 1;         // field 2

  std::string Serialize() const;
  static Result<GraphDef> Parse(const std::string& data);
};

// ---- ClusterDef -------------------------------------------------------------
struct JobDef {
  std::string name;                     // field 1
  std::vector<std::string> task_addrs;  // field 2: index in vector == task id

  std::string Serialize() const;
  static Result<JobDef> Parse(const void* data, size_t size);
};

struct ClusterDef {
  std::vector<JobDef> jobs;  // field 1

  std::string Serialize() const;
  static Result<ClusterDef> Parse(const std::string& data);
};

// ---- RegisterStep ------------------------------------------------------------
// Compile-once distributed steps: the client registers one partition's run
// signature (feed names — no tensor values — plus fetches and targets) with
// the owning worker, which compiles it to an Executable and returns a step
// handle. Subsequent RunStep calls carry the handle and the feed tensors
// only, so the worker executes its cached plan without re-pruning or
// re-walking the graph.
struct RegisterStepRequest {
  std::vector<std::string> feeds;    // field 1: feed keys ("node[:slot]")
  std::vector<std::string> fetches;  // field 2
  std::vector<std::string> targets;  // field 3

  std::string Serialize() const;
  static Result<RegisterStepRequest> Parse(const std::string& data);
};

struct RegisterStepResponse {
  uint64_t handle = 0;        // field 1: worker-local step handle (never 0)
  int64_t graph_version = 0;  // field 2: worker graph version compiled against

  std::string Serialize() const;
  static Result<RegisterStepResponse> Parse(const std::string& data);
};

// ---- RunStep ----------------------------------------------------------------
// Runs a registered step: its handle, the simulate bit and the feeds as a
// tensor list. A frame without a handle is refused: every step is
// registered first. The response is the fetched tensors as a tensor list
// named by the registered fetches.
struct RunStepRequest {
  bool simulate = false;                // field 4
  uint64_t step_handle = 0;             // field 5
  std::map<std::string, Tensor> feeds;  // tensor list (fields 1-3)

  PayloadRef Serialize() const;
  static Result<RunStepRequest> Parse(const PayloadRef& frame);
};

// ---- Queue, variable and rendezvous frames ----------------------------------
// The tensor is framed last and its content rides as a buffer view
// (AppendTensorField), so RDMA forwards the sender's buffer and MPI/gRPC
// flatten the frame. The decoders take either representation
// (ReadTensorField); a null `tensor` means the method takes none, and a
// frame that carries one anyway is refused.
//   queue (Enqueue, Dequeue, CloseQueue, RendezvousSend): name = 1,
//     tensor = 2, capacity = 3
//   var (VarWrite, VarRead): name = 1, tensor = 2, accumulate = 3,
//     want_value = 4
PayloadRef EncodeQueuePayload(const std::string& queue, const Tensor* tensor,
                              int64_t capacity);
Status DecodeQueuePayload(const PayloadRef& payload, std::string* queue,
                          Tensor* tensor, int64_t* capacity);

PayloadRef EncodeVarPayload(const std::string& var, const Tensor* tensor,
                            bool accumulate, bool want_value);
Status DecodeVarPayload(const PayloadRef& payload, std::string* var,
                        Tensor* tensor, bool* accumulate, bool* want_value);

// ---- RPC envelope ------------------------------------------------------------
// Framing for the in-process transports: one envelope per message.
struct RpcEnvelope {
  std::string method;    // field 1 (e.g. "RecvTensor", "Enqueue")
  uint64_t request_id = 0;  // field 2
  PayloadRef payload;    // field 3 (method-specific serialized body)
  int32_t status_code = 0;  // field 4 (tfhpc::Code as int)
  std::string status_msg;   // field 5
  // Fault-tolerance fields. (client_id, request_id) identifies one logical
  // call: retried sends reuse the pair so servers can deduplicate
  // non-idempotent ops. client_id == 0 means "no dedup" (legacy callers).
  uint64_t client_id = 0;  // field 6
  // wire::PayloadChecksum of payload: CRC32C with a presence bit (bit 32),
  // set by senders so servers can reject frames corrupted in flight with a
  // retryable error. A stamped checksum is never 0; 0 means "unchecked".
  uint64_t checksum = 0;  // field 7
  // Absolute steady-clock deadline (ns since clock epoch) for this call;
  // 0 = none. Absolute works because the in-process cluster shares one
  // clock — a real deployment would carry a relative budget plus a
  // clock-skew bound. Servers refuse already-expired requests with
  // kDeadlineExceeded before dispatching and bound blocking work by it.
  uint64_t deadline_ns = 0;  // field 8
  // For status_code == kResourceExhausted: true when the exhaustion is
  // transient (pool pressure that may clear — retryable after backoff),
  // false when permanent (the request itself exceeds a fixed budget).
  // Carried explicitly so the taxonomy survives the RPC boundary even if a
  // server rewrites the status message.
  bool transient = false;  // field 9

  // The call's outcome as a Status: OK when status_code is 0, otherwise
  // the code and message, with the transient bit re-applied to
  // kResourceExhausted so RetryPolicy can tell pool pressure (retryable)
  // from a fixed-budget breach (permanent). The one decoder of the wire
  // status fields.
  Status status() const;

  std::string Serialize() const;
  static Result<RpcEnvelope> Parse(const std::string& data);
};

}  // namespace tfhpc::wire
