// Tests for the distributed runtime: cluster specs, transports (protocol
// staging semantics), servers (queue/variable/graph services), client
// proxies, and the paper's parameter-server + reducer patterns end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>
#include <thread>

#include "cluster/slurm.h"
#include "distrib/client.h"
#include "distrib/server.h"
#include "graph/ops.h"

// The largest operator-new request made on this thread since the last reset.
// Tensor buffers come from the pool (aligned_alloc), so around a decode only
// an intermediate std::string copy of the frame or the tensor message shows
// up here.
thread_local size_t largest_new_on_thread = 0;

void* operator new(std::size_t size) {
  largest_new_on_thread = std::max(largest_new_on_thread, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the inlined free() with the
// operator new at a call site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tfhpc::distrib {
namespace {

wire::ClusterDef TwoTaskCluster() {
  wire::ClusterDef def;
  wire::JobDef ps;
  ps.name = "ps";
  ps.task_addrs = {"t01n01:8888"};
  wire::JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"t01n02:8888", "t01n03:8888"};
  def.jobs = {ps, worker};
  return def;
}

// ---- ClusterSpec -------------------------------------------------------------

TEST(ClusterSpecTest, LookupAndCounts) {
  auto spec = ClusterSpec::Create(TwoTaskCluster());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->NumTasks("worker"), 2);
  EXPECT_EQ(spec->NumTasks("ps"), 1);
  EXPECT_EQ(spec->NumTasks("nope"), 0);
  EXPECT_EQ(spec->TotalTasks(), 3);
  EXPECT_EQ(spec->TaskAddress("worker", 1).value(), "t01n03:8888");
  EXPECT_FALSE(spec->TaskAddress("worker", 5).ok());
  EXPECT_FALSE(spec->TaskAddress("gone", 0).ok());
}

TEST(ClusterSpecTest, ValidationRejectsBadDefs) {
  wire::ClusterDef empty;
  EXPECT_FALSE(ClusterSpec::Create(empty).ok());

  wire::ClusterDef dup = TwoTaskCluster();
  dup.jobs[1].task_addrs.push_back("t01n01:8888");  // duplicate address
  EXPECT_FALSE(ClusterSpec::Create(dup).ok());

  wire::ClusterDef noport = TwoTaskCluster();
  noport.jobs[0].task_addrs[0] = "hostonly";
  EXPECT_FALSE(ClusterSpec::Create(noport).ok());
}

// ---- Transport staging semantics -----------------------------------------------

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(router_
                    .Register("echo:1",
                              [](const wire::RpcEnvelope& req) {
                                wire::RpcEnvelope resp;
                                resp.method = req.method;
                                resp.request_id = req.request_id;
                                resp.payload = req.payload;
                                return resp;
                              })
                    .ok());
  }
  InProcessRouter router_;
};

TEST_F(TransportTest, PayloadSurvivesEveryProtocol) {
  std::string payload(4096, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  for (WireProtocol p :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    wire::RpcEnvelope req;
    req.method = "Echo";
    req.request_id = 9;
    req.payload = payload;
    auto resp = router_.Call("echo:1", p, req);
    ASSERT_TRUE(resp.ok()) << WireProtocolName(p);
    EXPECT_EQ(resp->payload, payload) << WireProtocolName(p);
    EXPECT_EQ(resp->request_id, 9u);
  }
}

TEST_F(TransportTest, StagingCopyCountsDifferByProtocol) {
  const int64_t n = 1 << 20;
  wire::RpcEnvelope req;
  req.method = "Echo";
  req.payload = std::string(static_cast<size_t>(n), 'x');

  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kRdma, req).ok());
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kMpi, req).ok());
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kGrpc, req).ok());

  // RDMA: exactly one payload copy, payload never protobuf-serialized.
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_copied.load(), n);
  EXPECT_LT(router_.stats(WireProtocol::kRdma).bytes_serialized.load(), 256);
  // MPI: two payload copies (staging + wire).
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).bytes_copied.load(), 2 * n);
  EXPECT_LT(router_.stats(WireProtocol::kMpi).bytes_serialized.load(), 256);
  // gRPC: the whole envelope is serialized (>= payload bytes).
  EXPECT_GE(router_.stats(WireProtocol::kGrpc).bytes_serialized.load(), n);
}

TEST_F(TransportTest, ViewPayloadsFollowProtocolStagingSemantics) {
  const int64_t n = 1 << 18;  // 256K f32 = 1 MB of tensor content
  Tensor t(DType::kF32, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    t.mutable_data<float>()[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  wire::PayloadRef view = wire::SerializeTensorView(t);
  ASSERT_TRUE(view.is_view());
  const int64_t content = static_cast<int64_t>(view.view_size());
  const int64_t total = static_cast<int64_t>(view.size());
  ASSERT_GE(content, t.bytes());

  auto send = [&](WireProtocol p) {
    wire::RpcEnvelope req;
    req.method = "Echo";
    req.payload = view;
    auto resp = router_.Call("echo:1", p, req);
    ASSERT_TRUE(resp.ok()) << WireProtocolName(p);
    // Representation-independent equality: the delivered payload decodes to
    // the same tensor whether it crossed as a view or as flattened bytes.
    EXPECT_EQ(wire::PayloadChecksum(resp->payload), wire::PayloadChecksum(view))
        << WireProtocolName(p);
  };

  // RDMA: the buffer reference crosses — zero payload copy bytes.
  router_.ResetStats();
  send(WireProtocol::kRdma);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_copied.load(), 0);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).views_forwarded.load(), 1);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_forwarded.load(), content);

  // MPI: registered memory is staged exactly once (vs 2x for inline bytes).
  router_.ResetStats();
  send(WireProtocol::kMpi);
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).bytes_copied.load(), total);
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).views_forwarded.load(), 0);

  // gRPC: views change nothing — the envelope is flattened into protobuf
  // exactly as inline bytes are (same serialized and copied byte counts).
  router_.ResetStats();
  send(WireProtocol::kGrpc);
  const int64_t grpc_view_ser =
      router_.stats(WireProtocol::kGrpc).bytes_serialized.load();
  const int64_t grpc_view_cp =
      router_.stats(WireProtocol::kGrpc).bytes_copied.load();
  router_.ResetStats();
  wire::RpcEnvelope inline_req;
  inline_req.method = "Echo";
  inline_req.payload = view.Flatten();
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kGrpc, inline_req).ok());
  EXPECT_EQ(router_.stats(WireProtocol::kGrpc).bytes_serialized.load(),
            grpc_view_ser);
  EXPECT_EQ(router_.stats(WireProtocol::kGrpc).bytes_copied.load(),
            grpc_view_cp);
  EXPECT_GE(grpc_view_ser, total);
}

TEST_F(TransportTest, ViewAndInlinePayloadsAreWireIdentical) {
  Tensor t(DType::kF64, Shape{257});  // odd size: exercises framing edges
  for (int i = 0; i < 257; ++i) t.mutable_data<double>()[i] = i * 0.25;
  wire::PayloadRef view = wire::SerializeTensorView(t);
  ASSERT_TRUE(view.is_view());
  EXPECT_EQ(view.Flatten(), wire::SerializeTensor(t));
  EXPECT_EQ(wire::PayloadChecksum(view),
            wire::PayloadChecksum(wire::SerializeTensor(t)));
  // And both representations parse back to the same tensor.
  auto parsed = wire::ParseTensor(view);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->shape(), t.shape());
  EXPECT_DOUBLE_EQ(parsed->data<double>()[256], 64.0);
}

TEST_F(TransportTest, UnknownAddressUnavailable) {
  wire::RpcEnvelope req;
  req.method = "Echo";
  EXPECT_EQ(router_.Call("ghost:1", WireProtocol::kRdma, req).status().code(),
            Code::kUnavailable);
}

// ---- Tensor frame codecs -------------------------------------------------------------

// One tensor-carrying frame kind: the fields before its tensor, the tensor's
// field number and the frame's decoder (nullptr tensor = method takes none).
struct FrameKind {
  const char* name;
  std::string prefix;
  uint32_t tensor_field;
  std::function<Status(const wire::PayloadRef&, Tensor*)> decode;
};

std::vector<FrameKind> TensorFrameKinds() {
  auto fields = [](uint32_t name_field, const std::string& name) {
    std::string head;
    wire::CodedOutput(&head).WriteString(name_field, name);
    return head;
  };
  return {
      {"queue", fields(1, "q"), 2,
       [](const wire::PayloadRef& p, Tensor* t) {
         std::string queue;
         int64_t capacity;
         return wire::DecodeQueuePayload(p, &queue, t, &capacity);
       }},
      {"var", fields(1, "v"), 2,
       [](const wire::PayloadRef& p, Tensor* t) {
         std::string var;
         bool accumulate, want_value;
         return wire::DecodeVarPayload(p, &var, t, &accumulate, &want_value);
       }},
      // The tensor list (RunStep feeds and fetches, VarSnapshot/VarRestore,
      // RendezvousSendPacked): its trailing tensor is the framed-last field.
      {"tensor_list", fields(2, "k"), 3,
       [](const wire::PayloadRef& p, Tensor* t) {
         wire::TensorList list;
         TFHPC_RETURN_IF_ERROR(wire::ReadTensorList(p, &list));
         if (list.size() != 1 || list[0].first != "k") {
           return InvalidArgument("tensor list: wrong entries");
         }
         if (t != nullptr) *t = list[0].second;
         return Status::OK();
       }},
  };
}

Tensor Ramp(int64_t n) {
  Tensor t(DType::kF32, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    t.mutable_data<float>()[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  return t;
}

// `frame`'s view under a different head.
wire::PayloadRef WithHead(const wire::PayloadRef& frame, std::string head) {
  return wire::PayloadRef::View(std::move(head), frame.buffer(),
                                frame.view_offset(), frame.view_size());
}

TEST(FrameCodecTest, ViewAndInlineFramesDecodeToTheSameTensor) {
  const Tensor t = Ramp(300);
  for (const FrameKind& k : TensorFrameKinds()) {
    wire::PayloadRef frame =
        wire::AppendTensorField(k.prefix, k.tensor_field, t);
    ASSERT_TRUE(frame.is_view()) << k.name;
    Tensor from_view, from_inline;
    ASSERT_TRUE(k.decode(frame, &from_view).ok()) << k.name;
    frame.Detach();
    ASSERT_TRUE(k.decode(frame, &from_inline).ok()) << k.name;
    EXPECT_TRUE(from_view.BitwiseEquals(t)) << k.name;
    EXPECT_TRUE(from_inline.BitwiseEquals(t)) << k.name;
  }
}

TEST(FrameCodecTest, InlineTensorFieldNeedNotBeLast) {
  const Tensor t = Ramp(7);
  for (const FrameKind& k : TensorFrameKinds()) {
    std::string head;
    wire::CodedOutput(&head).WriteMessage(k.tensor_field,
                                          wire::SerializeTensor(t));
    head += k.prefix;  // the name/key field follows the tensor
    Tensor got;
    ASSERT_TRUE(k.decode(wire::PayloadRef(head), &got).ok()) << k.name;
    EXPECT_TRUE(got.BitwiseEquals(t)) << k.name;
  }
}

TEST(FrameCodecTest, MalformedViewFramesAreRejected) {
  const Tensor t = Ramp(64);
  for (const FrameKind& k : TensorFrameKinds()) {
    const wire::PayloadRef frame =
        wire::AppendTensorField(k.prefix, k.tensor_field, t);
    Tensor got;

    // The tensor view does not terminate the frame: a field follows the
    // tensor header in the head.
    std::string trailing = frame.head();
    wire::CodedOutput(&trailing).WriteUInt64(9, 1);
    Status st = k.decode(WithHead(frame, trailing), &got);
    EXPECT_EQ(st.code(), Code::kInvalidArgument)
        << k.name << ": " << st.ToString();

    // The content length in the tensor header differs from the view size
    // (the outer field length still spans head rest + view).
    std::string tensor_head;
    wire::CodedOutput th(&tensor_head);
    th.WriteUInt64(1, static_cast<uint64_t>(DType::kF32));
    th.WriteUInt64(2, 64);
    th.WriteTag(3, wire::WireType::kLengthDelimited);
    th.WriteVarint(frame.view_size() - 4);
    std::string mismatched = k.prefix;
    wire::CodedOutput mo(&mismatched);
    mo.WriteTag(k.tensor_field, wire::WireType::kLengthDelimited);
    mo.WriteVarint(tensor_head.size() + frame.view_size());
    mismatched += tensor_head;
    st = k.decode(WithHead(frame, mismatched), &got);
    EXPECT_EQ(st.code(), Code::kInvalidArgument)
        << k.name << ": " << st.ToString();

    // A truncated head: the tensor header lost its last bytes, or the head
    // ends inside the tensor field's length prefix.
    const std::string short_header =
        frame.head().substr(0, frame.head().size() - 2);
    st = k.decode(WithHead(frame, short_header), &got);
    EXPECT_EQ(st.code(), Code::kInvalidArgument)
        << k.name << ": " << st.ToString();
    const std::string no_length = frame.head().substr(0, k.prefix.size() + 1);
    st = k.decode(WithHead(frame, no_length), &got);
    EXPECT_EQ(st.code(), Code::kOutOfRange) << k.name << ": " << st.ToString();
  }
}

TEST(FrameCodecTest, MethodsWithoutTensorRefuseOne) {
  // Dequeue, CloseQueue and VarRead take no tensor. A frame that carries one
  // is refused whether it arrives as a view or inline.
  const Tensor t = Ramp(16);
  for (const FrameKind& k : TensorFrameKinds()) {
    if (std::string(k.name) == "tensor_list") continue;  // always a tensor
    wire::PayloadRef frame =
        wire::AppendTensorField(k.prefix, k.tensor_field, t);
    EXPECT_EQ(k.decode(frame, nullptr).code(), Code::kInvalidArgument)
        << k.name;
    frame.Detach();
    EXPECT_EQ(k.decode(frame, nullptr).code(), Code::kInvalidArgument)
        << k.name;
  }
}

TEST(FrameCodecTest, TensorListCarriesItsTrailingTensorAsAView) {
  const Tensor a = Ramp(3), b = Ramp(5), c = Ramp(300);
  wire::PayloadRef frame =
      wire::AppendTensorList("", {{"a", a}, {"b:1", b}, {"c", c}});
  ASSERT_TRUE(frame.is_view());
  for (int flat = 0; flat < 2; ++flat) {
    if (flat == 1) frame.Detach();
    wire::TensorList list;
    ASSERT_TRUE(wire::ReadTensorList(frame, &list).ok());
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].first, "a");
    EXPECT_EQ(list[1].first, "b:1");
    EXPECT_EQ(list[2].first, "c");
    EXPECT_TRUE(list[0].second.BitwiseEquals(a));
    EXPECT_TRUE(list[1].second.BitwiseEquals(b));
    EXPECT_TRUE(list[2].second.BitwiseEquals(c));
    // Only the view frame's trailing tensor adopts the sender's buffer.
    EXPECT_EQ(list[2].second.raw_data() == c.raw_data(), flat == 0);
    EXPECT_NE(list[0].second.raw_data(), a.raw_data());
  }
  // The empty list is the empty frame.
  wire::TensorList list;
  ASSERT_TRUE(wire::ReadTensorList(wire::AppendTensorList("", {}), &list).ok());
  EXPECT_TRUE(list.empty());
}

TEST(FrameCodecTest, TensorListRefusesABrokenTail) {
  const Tensor t = Ramp(4);
  auto refused = [](const wire::PayloadRef& frame) {
    wire::TensorList list;
    return wire::ReadTensorList(frame, &list).code() == Code::kInvalidArgument;
  };
  std::string entry;
  wire::CodedOutput eo(&entry);
  wire::WriteNamedTensor(eo, 1, "a", t);
  std::string name_only;
  wire::CodedOutput(&name_only).WriteString(2, "b");
  // Inline entries with no trailing entry, a trailing name without its
  // tensor, a trailing tensor without its name, a view no field reads.
  EXPECT_TRUE(refused(wire::PayloadRef(entry)));
  EXPECT_TRUE(refused(wire::PayloadRef(entry + name_only)));
  EXPECT_TRUE(refused(wire::AppendTensorField(entry, 3, t)));
  EXPECT_TRUE(refused(wire::PayloadRef::View("", t.buffer(), 0, t.bytes())));
}

TEST(FrameCodecTest, InlineDecodeCopiesContentOnlyIntoTheTensor) {
  const Tensor t = Ramp(1 << 18);  // 1 MiB of content
  wire::PayloadRef frame = wire::EncodeVarPayload("v", &t, true, false);
  frame.Detach();
  std::string var;
  Tensor got;
  bool accumulate, want_value;
  largest_new_on_thread = 0;
  ASSERT_TRUE(
      wire::DecodeVarPayload(frame, &var, &got, &accumulate, &want_value).ok());
  // No std::string of the frame or of the tensor message was built.
  EXPECT_LT(largest_new_on_thread, 4096u);
  EXPECT_TRUE(got.BitwiseEquals(t));
  EXPECT_NE(got.raw_data(), t.raw_data());
}

TEST_F(TransportTest, RdmaVarWriteDecodesToTheSendersBuffer) {
  const Tensor t = Ramp(1 << 16);
  const void* decoded = nullptr;
  bool equal = false;
  ASSERT_TRUE(router_
                  .Register("decode:1",
                            [&](const wire::RpcEnvelope& req) {
                              std::string var;
                              Tensor got;
                              bool accumulate, want_value;
                              EXPECT_TRUE(wire::DecodeVarPayload(req.payload, &var,
                                                           &got, &accumulate,
                                                           &want_value)
                                              .ok());
                              decoded = got.raw_data();
                              equal = got.BitwiseEquals(t);
                              return wire::RpcEnvelope();
                            })
                  .ok());
  wire::RpcEnvelope req;
  req.method = "VarWrite";
  req.payload = wire::EncodeVarPayload("v", &t, false, false);

  // RDMA: the decoded tensor adopts the sender's buffer (zero copies).
  ASSERT_TRUE(router_.Call("decode:1", WireProtocol::kRdma, req).ok());
  EXPECT_EQ(decoded, t.raw_data());
  EXPECT_TRUE(equal);

  // MPI stages the frame once; the decode copies the content into a fresh
  // pooled buffer.
  ASSERT_TRUE(router_.Call("decode:1", WireProtocol::kMpi, req).ok());
  EXPECT_NE(decoded, t.raw_data());
  EXPECT_TRUE(equal);
}

// ---- Server + client ---------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = ClusterSpec::Create(TwoTaskCluster());
    ASSERT_TRUE(spec.ok());
    ServerDef ps_def{*spec, "ps", 0, /*num_gpus=*/0};
    ServerDef w0_def{*spec, "worker", 0, /*num_gpus=*/1};
    ServerDef w1_def{*spec, "worker", 1, /*num_gpus=*/1};
    ps_ = Server::Create(ps_def, &router_).value();
    w0_ = Server::Create(w0_def, &router_).value();
    w1_ = Server::Create(w1_def, &router_).value();
  }

  RemoteTask Client(const std::string& addr,
                    WireProtocol p = WireProtocol::kRdma) {
    return RemoteTask(&router_, addr, p);
  }

  InProcessRouter router_;
  std::unique_ptr<Server> ps_, w0_, w1_;
};

TEST_F(ServerTest, PingAllTasks) {
  for (const char* addr : {"t01n01:8888", "t01n02:8888", "t01n03:8888"}) {
    EXPECT_TRUE(Client(addr).Ping().ok()) << addr;
  }
}

TEST_F(ServerTest, DuplicateBindRejected) {
  auto spec = ClusterSpec::Create(TwoTaskCluster()).value();
  ServerDef dup{spec, "ps", 0, 0};
  EXPECT_FALSE(Server::Create(dup, &router_).ok());
}

TEST_F(ServerTest, RemoteVariableAssignAddIsTheStreamPush) {
  auto client = Client("t01n01:8888");
  Tensor v = Tensor::FromVector(std::vector<double>{1, 2, 3});
  ASSERT_TRUE(client.VarAssignAdd("acc", v).ok());
  ASSERT_TRUE(client.VarAssignAdd("acc", v).ok());
  auto r = client.VarRead("acc");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->data<double>()[2], 6.0);
}

TEST_F(ServerTest, RemoteVariableAssignOverwrites) {
  auto client = Client("t01n01:8888");
  ASSERT_TRUE(client.VarAssign("x", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(client.VarAssign("x", Tensor::Scalar(5.0)).ok());
  EXPECT_DOUBLE_EQ(client.VarRead("x")->scalar<double>(), 5.0);
}

TEST_F(ServerTest, RdmaVarAssignCrossesWithZeroPayloadCopies) {
  auto client = Client("t01n01:8888", WireProtocol::kRdma);
  const int64_t n = 1 << 16;
  Tensor big(DType::kF32, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    big.mutable_data<float>()[static_cast<size_t>(i)] =
        static_cast<float>(i % 97);
  }
  router_.ResetStats();
  ASSERT_TRUE(client.VarAssign("zc", big).ok());
  const TransportStats& st = router_.stats(WireProtocol::kRdma);
  // End to end: the tensor rode as a buffer view, never staged.
  EXPECT_EQ(st.bytes_copied.load(), 0);
  EXPECT_EQ(st.views_forwarded.load(), 1);
  EXPECT_GE(st.bytes_forwarded.load(), big.bytes());
  // And the server adopted real data, not a dangling reference.
  auto r = client.VarRead("zc");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(big));
}

TEST_F(ServerTest, GrpcVarAssignKeepsItsSerializeAndCopyCosts) {
  auto client = Client("t01n01:8888", WireProtocol::kGrpc);
  const int64_t n = 1 << 16;
  Tensor big(DType::kF32, Shape{n});
  router_.ResetStats();
  ASSERT_TRUE(client.VarAssign("gc", big).ok());
  const TransportStats& st = router_.stats(WireProtocol::kGrpc);
  // gRPC cannot exploit views: full envelope serialization + the wire copy,
  // both at least payload-sized (Fig. 7's costly end of the ordering).
  EXPECT_GE(st.bytes_serialized.load(), big.bytes());
  EXPECT_GE(st.bytes_copied.load(), big.bytes());
  EXPECT_EQ(st.views_forwarded.load(), 0);
}

TEST_F(ServerTest, ReadMissingVariableFails) {
  auto r = Client("t01n01:8888").VarRead("ghost");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kFailedPrecondition);
}

TEST_F(ServerTest, RemoteQueueRoundTrip) {
  auto w0 = Client("t01n02:8888");
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2});
  ASSERT_TRUE(w0.Enqueue("inbox", t).ok());
  auto r = w0.Dequeue("inbox");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST_F(ServerTest, QueueBlocksAcrossClients) {
  // Reducer pattern (Fig. 5): a consumer blocks on the PS queue until a
  // producer on another "task" pushes.
  std::thread producer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto c = Client("t01n01:8888");
    ASSERT_TRUE(c.Enqueue("reduce_in", Tensor::Scalar(2.5)).ok());
  });
  auto consumer = Client("t01n01:8888");
  auto r = consumer.Dequeue("reduce_in");
  producer.join();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 2.5);
}

TEST_F(ServerTest, CloseQueueUnblocksDequeue) {
  std::thread closer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(Client("t01n01:8888").CloseQueue("doomed").ok());
  });
  auto r = Client("t01n01:8888").Dequeue("doomed");
  closer.join();
  EXPECT_EQ(r.status().code(), Code::kOutOfRange);
}

TEST_F(ServerTest, ClosedQueueDrainsThenOutOfRange) {
  // TF's closed-queue contract: pending elements drain, then kOutOfRange.
  auto c = Client("t01n01:8888");
  ASSERT_TRUE(c.Enqueue("drainq", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(c.Enqueue("drainq", Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(c.CloseQueue("drainq").ok());
  EXPECT_DOUBLE_EQ(c.Dequeue("drainq")->scalar<double>(), 1.0);
  EXPECT_DOUBLE_EQ(c.Dequeue("drainq")->scalar<double>(), 2.0);
  EXPECT_EQ(c.Dequeue("drainq").status().code(), Code::kOutOfRange);
  // And it stays that way.
  EXPECT_EQ(c.Dequeue("drainq").status().code(), Code::kOutOfRange);
}

TEST_F(ServerTest, EnqueueAfterCloseFailsCleanly) {
  auto c = Client("t01n01:8888");
  ASSERT_TRUE(c.Enqueue("closedq", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(c.CloseQueue("closedq").ok());
  auto st = c.Enqueue("closedq", Tensor::Scalar(2.0));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kCancelled);
  // The element enqueued before the close is still drainable.
  EXPECT_DOUBLE_EQ(c.Dequeue("closedq")->scalar<double>(), 1.0);
}

TEST_F(ServerTest, ConcurrentCloseVsDequeueNeverHangs) {
  // Many consumers parked on an empty queue race a close: every dequeue
  // must return (value or kOutOfRange), and nothing may hang. Repeated to
  // shake out interleavings.
  for (int round = 0; round < 5; ++round) {
    const std::string q = "race_" + std::to_string(round);
    constexpr int kConsumers = 4;
    std::vector<std::thread> consumers;
    std::vector<Status> results(kConsumers);
    for (int i = 0; i < kConsumers; ++i) {
      consumers.emplace_back([this, &results, i, q] {
        results[i] = Client("t01n01:8888").Dequeue(q).status();
      });
    }
    // One element for at most one consumer; then close under contention.
    ASSERT_TRUE(Client("t01n01:8888").Enqueue(q, Tensor::Scalar(1.0)).ok());
    ASSERT_TRUE(Client("t01n01:8888").CloseQueue(q).ok());
    for (auto& t : consumers) t.join();
    int got_value = 0;
    for (const Status& st : results) {
      if (st.ok()) {
        ++got_value;
      } else {
        EXPECT_EQ(st.code(), Code::kOutOfRange) << st.ToString();
      }
    }
    EXPECT_LE(got_value, 1);
  }
}

TEST_F(ServerTest, ResetStatsZeroesAllProtocols) {
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kGrpc).Ping().ok());
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kMpi).Ping().ok());
  EXPECT_GT(router_.stats(WireProtocol::kGrpc).calls.load(), 0);
  router_.ResetStats();
  for (WireProtocol p :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    EXPECT_EQ(router_.stats(p).calls.load(), 0) << WireProtocolName(p);
    EXPECT_EQ(router_.stats(p).payload_bytes.load(), 0);
    EXPECT_EQ(router_.stats(p).bytes_copied.load(), 0);
    EXPECT_EQ(router_.stats(p).bytes_serialized.load(), 0);
    EXPECT_EQ(router_.stats(p).total_faults(), 0);
  }
  // Stats keep counting after a reset (per-phase measurement).
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kRdma).Ping().ok());
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).calls.load(), 1);
}

TEST_F(ServerTest, ExtendGraphAndRunStep) {
  // Client builds a graph locally, ships it to worker 0, runs a step with a
  // feed — the TF client/worker split.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{2}, "x");
  auto two = ops::Const(s, Tensor::Scalar(2.0));
  auto y = ops::Mul(s, x, two);

  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  auto r = client.RunStep(
      {{"x", Tensor::FromVector(std::vector<double>{3, 4})}}, {y.name()});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 8.0);
}

TEST_F(ServerTest, RunStepSimulateReturnsMeta) {
  Graph g;
  Scope s(&g);
  auto a = ops::RandomUniform(s, Shape{256, 256}, DType::kF32, 1);
  auto b = ops::RandomUniform(s, Shape{256, 256}, DType::kF32, 2);
  auto c = ops::MatMul(s, a, b);
  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  auto r = client.RunStep({}, {c.name()}, {}, /*simulate=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].is_meta());
  EXPECT_EQ((*r)[0].shape(), Shape({256, 256}));
}

TEST_F(ServerTest, RunStepErrorsPropagateWithAddress) {
  auto client = Client("t01n02:8888");
  auto r = client.RunStep({}, {"no_such_node"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
  EXPECT_NE(r.status().message().find("t01n02:8888"), std::string::npos);
}

TEST_F(ServerTest, RunStepRegistersItsSignatureOnce) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{2}, "x");
  auto y = ops::Neg(s, x);
  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  const Tensor feed = Tensor::FromVector(std::vector<double>{1, 2});
  for (int i = 0; i < 3; ++i) {
    auto r = client.RunStep({{"x", feed}}, {y.name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], -2.0);
  }
  EXPECT_EQ(w0_->steps_registered(), 1);
  // A second handle on the same task caches its own registration.
  ASSERT_TRUE(Client("t01n02:8888").RunStep({{"x", feed}}, {y.name()}).ok());
  EXPECT_EQ(w0_->steps_registered(), 2);
}

TEST_F(ServerTest, RestartedWorkerNeverReissuesACachedHandle) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto neg = ops::Neg(s, x);
  auto twice = ops::Add(s, x, x);
  const Tensor three = Tensor::Scalar(3.0);
  auto a = Client("t01n02:8888");
  ASSERT_TRUE(a.ExtendGraph(g.ToGraphDef()).ok());
  ASSERT_TRUE(a.RunStep({{"x", three}}, {neg.name()}).ok());

  // The worker restarts at the same address, and another client registers
  // a different step there first.
  w0_.reset();
  auto spec = ClusterSpec::Create(TwoTaskCluster()).value();
  w0_ = Server::Create({spec, "worker", 0, /*num_gpus=*/1}, &router_).value();
  auto b = Client("t01n02:8888");
  ASSERT_TRUE(b.ExtendGraph(g.ToGraphDef()).ok());
  ASSERT_TRUE(b.RunStep({{"x", three}}, {twice.name()}).ok());

  // `a`'s cached handle is unknown to the new worker, so `a` re-registers
  // and runs its own step, not `b`'s.
  auto r = a.RunStep({{"x", three}}, {neg.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), -3.0);
}

// Over RDMA the trailing tensor of a RunStep or VarSnapshot list crosses as
// a view of the sender's buffer. The views must not let either side observe
// the other's later writes.
TEST_F(ServerTest, RdmaFetchedVariableDoesNotSeeALaterAssignAdd) {
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "alias_v", DType::kF64, Shape{4096});
  auto bump = ops::AssignAdd(
      s, v, ops::Const(s, Tensor::FromVector(std::vector<double>(4096, 1.0))));
  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  ASSERT_TRUE(client
                  .VarAssign("alias_v",
                             Tensor::FromVector(std::vector<double>(4096, 5.0)))
                  .ok());
  auto fetched = client.RunStep({}, {v.name()});
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const Tensor before = (*fetched)[0];
  EXPECT_EQ(before.buffer()->stats(), nullptr) << "detached from the device";

  ASSERT_TRUE(client.RunStep({}, {}, {bump.name()}).ok());
  EXPECT_DOUBLE_EQ(before.data<double>()[4095], 5.0);
  auto after = client.RunStep({}, {v.name()});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_DOUBLE_EQ((*after)[0].data<double>()[4095], 6.0);
}

TEST_F(ServerTest, RdmaVarSnapshotDoesNotSeeALaterVarWrite) {
  auto client = Client("t01n01:8888");
  ASSERT_TRUE(
      client.VarAssign("a", Tensor::FromVector(std::vector<double>(8, 1.0)))
          .ok());
  ASSERT_TRUE(
      client.VarAssign("b", Tensor::FromVector(std::vector<double>(4096, 2.0)))
          .ok());
  auto snap = client.VarSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->size(), 2u);

  const Tensor delta = Tensor::FromVector(std::vector<double>(4096, 1.0));
  ASSERT_TRUE(client.VarAssignAdd("b", delta).ok());
  ASSERT_TRUE(client.VarAssign("a", Tensor::FromVector(std::vector<double>(8)))
                  .ok());
  EXPECT_DOUBLE_EQ(snap->at("a").data<double>()[7], 1.0);
  EXPECT_DOUBLE_EQ(snap->at("b").data<double>()[4095], 2.0);
  EXPECT_DOUBLE_EQ(client.VarRead("b")->data<double>()[4095], 3.0);

  // And the snapshot restores through the same list frame.
  ASSERT_TRUE(client.VarRestore(*snap).ok());
  EXPECT_DOUBLE_EQ(client.VarRead("b")->data<double>()[4095], 2.0);
  EXPECT_DOUBLE_EQ(client.VarRead("a")->data<double>()[7], 1.0);
}

TEST_F(ServerTest, RdmaFeedIsNotMutatedByAnInPlaceKernel) {
  // Neg forwards its input buffer in place when it holds the only
  // reference. The feed arrives as a view of the client's buffer, which the
  // client still holds, so the kernel must allocate instead.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{4096}, "x");
  auto y = ops::Neg(s, x);
  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  const Tensor feed = Tensor::FromVector(std::vector<double>(4096, 3.0));
  auto r = client.RunStep({{"x", feed}}, {y.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[4095], -3.0);
  EXPECT_DOUBLE_EQ(feed.data<double>()[4095], 3.0);
  EXPECT_NE((*r)[0].raw_data(), feed.raw_data());
}

TEST_F(ServerTest, ExtendGraphEnforcesProtobufLimit) {
  // The paper's §IV 2 GB GraphDef ceiling, shrunk for testability.
  auto spec = ClusterSpec::Create(TwoTaskCluster()).value();
  InProcessRouter router;
  ServerDef sd{spec, "ps", 0, 0};
  sd.max_graphdef_bytes = 128;  // tiny limit
  auto server = Server::Create(sd, &router).value();
  RemoteTask client(&router, "t01n01:8888", WireProtocol::kRdma);

  // A graph with a fat constant exceeds the limit...
  Graph big;
  Scope s(&big);
  ops::Const(s, Tensor(DType::kF64, Shape{64}), "fat");
  auto st = client.ExtendGraph(big.ToGraphDef());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_NE(st.message().find("loop body"), std::string::npos);

  // ...while the paper's workaround (state in variables, tiny loop body)
  // fits: declare the variable, feed the fat data at Run time.
  Graph small;
  Scope s2(&small);
  auto v = ops::Variable(s2, "state", DType::kF64, Shape{64});
  (void)v;
  EXPECT_TRUE(client.ExtendGraph(small.ToGraphDef()).ok());
}

TEST_F(ServerTest, ExtendGraphRejectsBadDefs) {
  auto client = Client("t01n02:8888");
  wire::GraphDef def;
  wire::NodeDef n;
  n.name = "orphan_add";
  n.op = "Add";
  n.inputs = {"missing1", "missing2"};
  def.nodes.push_back(n);
  EXPECT_FALSE(client.ExtendGraph(def).ok());
}

TEST_F(ServerTest, WorkerGraphsAreIsolated) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "only_on_w0");
  ASSERT_TRUE(Client("t01n02:8888").ExtendGraph(g.ToGraphDef()).ok());
  EXPECT_TRUE(Client("t01n02:8888").RunStep({}, {"only_on_w0"}).ok());
  EXPECT_FALSE(Client("t01n03:8888").RunStep({}, {"only_on_w0"}).ok());
}

TEST_F(ServerTest, ServerSessionSharesResourcesWithService) {
  // A graph-level variable written through a local server session must be
  // visible to remote VarRead — one ResourceMgr per task.
  Scope s(&w0_->graph());
  auto v = ops::Variable(s, "wvar", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(11.0)));
  ASSERT_TRUE(w0_->NewSession()->Run({}, {init.name()}).ok());
  auto r = Client("t01n02:8888").VarRead("wvar");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 11.0);
}

TEST_F(ServerTest, EndToEndParameterServerPattern) {
  // Two workers each compute a partial sum on their own graph and push it to
  // the PS variable; the driver reads the total — the paper's data-parallel
  // skeleton, exercised over all three protocols.
  for (WireProtocol proto :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    const std::string var = std::string("total_") + WireProtocolName(proto);
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([this, w, proto, var] {
        auto ps = RemoteTask(&router_, "t01n01:8888", proto);
        Tensor partial = Tensor::Scalar(static_cast<double>((w + 1) * 10));
        ASSERT_TRUE(ps.VarAssignAdd(var, partial).ok());
      });
    }
    for (auto& t : workers) t.join();
    auto total = Client("t01n01:8888").VarRead(var);
    ASSERT_TRUE(total.ok());
    EXPECT_DOUBLE_EQ(total->scalar<double>(), 30.0);
  }
}

// ---- Resolver-to-cluster integration ------------------------------------------------

TEST(ResolverIntegrationTest, ResolverSpecBootsServers) {
  cluster::SlurmClusterResolver resolver({{"ps", 1}, {"worker", 2}},
                                         "t02n[01-03]", 1, 1);
  auto def = resolver.ClusterSpec();
  ASSERT_TRUE(def.ok());
  auto spec = ClusterSpec::Create(*def);
  ASSERT_TRUE(spec.ok());
  InProcessRouter router;
  std::vector<std::unique_ptr<Server>> servers;
  for (const std::string& job : spec->JobNames()) {
    for (int t = 0; t < spec->NumTasks(job); ++t) {
      ServerDef sd{*spec, job, t, 1};
      auto server = Server::Create(sd, &router);
      ASSERT_TRUE(server.ok());
      servers.push_back(std::move(*server));
    }
  }
  EXPECT_TRUE(
      RemoteTask(&router, "t02n02:8888", WireProtocol::kRdma).Ping().ok());
  EXPECT_TRUE(
      RemoteTask(&router, "t02n03:8888", WireProtocol::kGrpc).Ping().ok());
}

}  // namespace
}  // namespace tfhpc::distrib
