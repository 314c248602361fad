#include "distrib/barrier.h"

namespace tfhpc::distrib {

QueueBarrier::QueueBarrier(InProcessRouter* router,
                           std::string coordinator_addr, WireProtocol protocol,
                           std::string name, int num_workers)
    : router_(router),
      coordinator_addr_(std::move(coordinator_addr)),
      protocol_(protocol),
      name_(std::move(name)),
      num_workers_(num_workers) {
  TFHPC_CHECK_GT(num_workers_, 0);
}

Result<int64_t> QueueBarrier::Arrive(int worker_id, CancellationToken* token) {
  if (worker_id < 0 || worker_id >= num_workers_) {
    return InvalidArgument("barrier '" + name_ + "': bad worker id " +
                           std::to_string(worker_id));
  }
  RemoteTask coordinator(router_, coordinator_addr_, protocol_);
  // Token carries the worker id (the coordinator only counts them, but ids
  // make debugging stuck barriers possible).
  TFHPC_ASSIGN_OR_RETURN(Tensor id, Tensor::TryCreate(DType::kI64, Shape{}));
  *id.mutable_data<int64_t>() = worker_id;
  TFHPC_RETURN_IF_ERROR(
      coordinator.Enqueue(InQueue(), id, /*capacity=*/0, token));
  TFHPC_ASSIGN_OR_RETURN(
      Tensor round, coordinator.Dequeue(OutQueue(worker_id), /*capacity=*/0,
                                        token));
  return round.scalar<int64_t>();
}

Status QueueBarrier::RunCoordinator(InProcessRouter* router,
                                    const std::string& coordinator_addr,
                                    WireProtocol protocol,
                                    const std::string& name, int num_workers,
                                    int rounds) {
  RemoteTask self(router, coordinator_addr, protocol);
  const std::string in_queue = name + "/in";
  for (int64_t round = 0; round < rounds; ++round) {
    for (int arrived = 0; arrived < num_workers; ++arrived) {
      TFHPC_ASSIGN_OR_RETURN(Tensor token, self.Dequeue(in_queue));
      const int64_t id = token.scalar<int64_t>();
      if (id < 0 || id >= num_workers) {
        return Internal("barrier '" + name + "': stray token " +
                        std::to_string(id));
      }
    }
    for (int w = 0; w < num_workers; ++w) {
      TFHPC_ASSIGN_OR_RETURN(Tensor release,
                             Tensor::TryCreate(DType::kI64, Shape{}));
      *release.mutable_data<int64_t>() = round;
      TFHPC_RETURN_IF_ERROR(
          self.Enqueue(name + "/out_" + std::to_string(w), release));
    }
  }
  return Status::OK();
}

}  // namespace tfhpc::distrib
