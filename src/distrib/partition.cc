#include "distrib/partition.h"

#include <algorithm>
#include <set>

#include "wire/messages.h"

namespace tfhpc::distrib {
namespace {

// Builders accumulate NodeDefs per task; nodes keep their original names so
// feeds/fetches stay valid.
struct PartitionBuilder {
  std::vector<wire::NodeDef> nodes;
  std::set<std::string> names;
};

std::string EdgeKey(const std::string& producer, int slot,
                    const std::string& consumer_task) {
  return "edge/" + producer + ":" + std::to_string(slot) + "->" +
         consumer_task;
}

std::string RecvName(const std::string& producer, int slot) {
  return "_recv/" + producer + "_" + std::to_string(slot);
}

// Node names must not contain ':' (it would parse as an output slot), so
// task addresses embedded in generated names are sanitized.
std::string SanitizeForName(std::string s) {
  for (char& c : s) {
    if (c == ':') c = '_';
  }
  return s;
}

}  // namespace

Result<PartitionResult> PartitionGraph(const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const DeviceName& default_device) {
  return PartitionGraph(graph, cluster, default_device, PartitionOptions{});
}

Result<PartitionResult> PartitionGraph(const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const DeviceName& default_device,
                                       const PartitionOptions& options) {
  if (default_device.job.empty() || default_device.task < 0) {
    return InvalidArgument("partitioning needs a default job/task");
  }

  // Resolve every node's owning task address.
  std::map<int, std::string> task_of;  // node id -> addr
  PartitionResult result;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node* n = graph.node(id);
    TFHPC_ASSIGN_OR_RETURN(DeviceName requested,
                           DeviceName::Parse(n->requested_device()));
    const DeviceName resolved = requested.MergedWith(default_device);
    TFHPC_ASSIGN_OR_RETURN(std::string addr,
                           cluster.TaskAddress(resolved.job, resolved.task));
    task_of[id] = addr;
    result.node_task[n->name()] = addr;
  }

  std::map<std::string, PartitionBuilder> builders;
  // Data _Sends as created, in deterministic creation order — the raw
  // material for send coalescing. `send_index` points into
  // result.sends[src_task] (consumer sets fill in as the loop dedups).
  struct RawDataSend {
    std::string src_task;
    std::string dst_task;
    std::string key;
    std::string input_ref;  // "producer" or "producer:slot"
    std::string send_name;
    size_t send_index;
  };
  std::vector<RawDataSend> raw_sends;
  // (producer id, slot, dst task) -> recv node name, deduplicating sends.
  std::map<std::tuple<int, int, std::string>, std::string> edge_recv;
  // Same key -> (producer task, index into result.sends[task]) so every
  // consumer of a deduplicated send is recorded in its SendDef.
  std::map<std::tuple<int, int, std::string>, std::pair<std::string, size_t>>
      edge_send;

  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node* n = graph.node(id);
    const std::string& my_task = task_of[id];
    PartitionBuilder& mine = builders[my_task];

    wire::NodeDef def = n->def();
    // Rewire inputs whose producers live on other tasks.
    for (size_t i = 0; i < def.inputs.size(); ++i) {
      const InEdge& e = n->in_edges()[i];
      const std::string& src_task = task_of[e.node_id];
      if (src_task == my_task) continue;

      const Node* producer = graph.node(e.node_id);
      const int slot = e.control ? -1 : e.output_index;
      const auto key_tuple = std::make_tuple(e.node_id, slot, my_task);
      auto it = edge_recv.find(key_tuple);
      if (it == edge_recv.end()) {
        const std::string key = EdgeKey(producer->name(), slot, my_task);
        const std::string recv_name = RecvName(producer->name(), slot);
        std::string send_name;

        // Producer side: a _Send in the source partition.
        PartitionBuilder& theirs = builders[src_task];
        if (e.control) {
          // Control edge: ship a zero-scalar token gated on the producer.
          wire::NodeDef token;
          token.name = "_token/" + producer->name() + "/" + recv_name;
          token.op = "Const";
          token.device = producer->def().device;
          // Fallible: re-partitioning runs inside a recovering step.
          TFHPC_ASSIGN_OR_RETURN(Tensor zero,
                                 Tensor::TryCreate(DType::kI64, Shape{}));
          token.attrs["value"] =
              wire::AttrValue::Str(wire::SerializeTensor(zero));
          token.attrs["dtype"] = wire::AttrValue::Type(DType::kI64);
          token.inputs = {"^" + producer->name()};
          wire::NodeDef send;
          send.name = "_send/" + producer->name() + "/ctrl/" + SanitizeForName(my_task);
          send_name = send.name;
          send.op = "_Send";
          send.device = producer->def().device;
          send.inputs = {token.name};
          send.attrs["key"] = wire::AttrValue::Str(key);
          send.attrs["target"] = wire::AttrValue::Str(my_task);
          theirs.nodes.push_back(std::move(token));
          theirs.nodes.push_back(std::move(send));
        } else {
          wire::NodeDef send;
          send.name = "_send/" + producer->name() + "_" +
                      std::to_string(slot) + "/" + SanitizeForName(my_task);
          send_name = send.name;
          send.op = "_Send";
          send.device = producer->def().device;
          send.inputs = {slot == 0 ? producer->name()
                                   : producer->name() + ":" +
                                         std::to_string(slot)};
          send.attrs["key"] = wire::AttrValue::Str(key);
          send.attrs["target"] = wire::AttrValue::Str(my_task);
          theirs.nodes.push_back(std::move(send));
        }

        // Consumer side: a _Recv in this partition.
        wire::NodeDef recv;
        recv.name = recv_name;
        recv.op = "_Recv";
        recv.device = def.device;
        recv.attrs["key"] = wire::AttrValue::Str(key);
        mine.nodes.push_back(std::move(recv));
        it = edge_recv.emplace(key_tuple, recv_name).first;

        auto& sends = result.sends[src_task];
        sends.push_back(SendDef{send_name, producer->name(), e.control,
                                {n->name()}});
        edge_send.emplace(key_tuple,
                          std::make_pair(src_task, sends.size() - 1));
        if (!e.control) {
          raw_sends.push_back(RawDataSend{
              src_task, my_task, key,
              slot == 0 ? producer->name()
                        : producer->name() + ":" + std::to_string(slot),
              send_name, sends.size() - 1});
        }
      } else {
        const auto& [send_task, idx] = edge_send.at(key_tuple);
        result.sends[send_task][idx].consumers.push_back(n->name());
      }
      def.inputs[i] = e.control ? "^" + it->second : it->second;
    }
    mine.nodes.push_back(std::move(def));
  }

  if (options.coalesce_sends) {
    // Group data sends by (src task, dst task, consumer set) and collapse
    // each group of two or more into one _PackedSend carrying every
    // member's tensor. Consumer sets must match exactly — see
    // PartitionOptions::coalesce_sends for why that keeps pruning sound.
    std::map<std::string, std::vector<const RawDataSend*>> groups;
    for (const RawDataSend& rs : raw_sends) {
      std::vector<std::string> consumers =
          result.sends[rs.src_task][rs.send_index].consumers;
      std::sort(consumers.begin(), consumers.end());
      consumers.erase(std::unique(consumers.begin(), consumers.end()),
                      consumers.end());
      std::string gkey = rs.src_task + '\x1e' + rs.dst_task + '\x1e';
      for (const std::string& c : consumers) gkey += c + '\x1f';
      groups[gkey].push_back(&rs);
    }

    // src task -> names of member _Send nodes replaced by a packed node.
    std::map<std::string, std::set<std::string>> absorbed;
    // src task -> packed SendDefs to append after filtering members out.
    std::map<std::string, std::vector<SendDef>> packed_defs;
    std::map<std::string, int> pair_counter;  // "<src>\x1e<dst>" -> ordinal

    for (const auto& [gkey, members] : groups) {
      if (members.size() < 2) continue;
      const std::string& src_task = members.front()->src_task;
      const std::string& dst_task = members.front()->dst_task;
      PartitionBuilder& theirs = builders[src_task];

      const int ordinal = pair_counter[src_task + '\x1e' + dst_task]++;
      wire::NodeDef packed;
      packed.name = "_packed_send/" + SanitizeForName(src_task) + "/" +
                    SanitizeForName(dst_task) + "/" + std::to_string(ordinal);
      packed.op = "_PackedSend";
      std::string keys;
      SendDef merged;
      merged.name = packed.name;
      // Representative producer: the first member's (the full key list is in
      // the node's "keys" attr; SendDef.producer is diagnostic only).
      merged.producer = members.front()->input_ref.substr(
          0, members.front()->input_ref.find(':'));
      for (const RawDataSend* rs : members) {
        packed.inputs.push_back(rs->input_ref);
        if (!keys.empty()) keys += '\x1f';
        keys += rs->key;
        absorbed[src_task].insert(rs->send_name);
        const SendDef& member = result.sends[src_task][rs->send_index];
        merged.consumers.insert(merged.consumers.end(),
                                member.consumers.begin(),
                                member.consumers.end());
        // All members carry the same device family (their producers' task);
        // the packed node runs where the first member would have.
        if (packed.device.empty()) {
          for (const wire::NodeDef& nd : theirs.nodes) {
            if (nd.name == rs->send_name) {
              packed.device = nd.device;
              break;
            }
          }
        }
      }
      std::sort(merged.consumers.begin(), merged.consumers.end());
      merged.consumers.erase(
          std::unique(merged.consumers.begin(), merged.consumers.end()),
          merged.consumers.end());
      packed.attrs["keys"] = wire::AttrValue::Str(keys);
      packed.attrs["target"] = wire::AttrValue::Str(dst_task);
      theirs.nodes.push_back(std::move(packed));
      packed_defs[src_task].push_back(std::move(merged));
    }

    for (auto& [src_task, names] : absorbed) {
      std::vector<wire::NodeDef>& nodes = builders[src_task].nodes;
      nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                                 [&names](const wire::NodeDef& nd) {
                                   return names.count(nd.name) > 0;
                                 }),
                  nodes.end());
      std::vector<SendDef>& sends = result.sends[src_task];
      sends.erase(std::remove_if(sends.begin(), sends.end(),
                                 [&names](const SendDef& sd) {
                                   return names.count(sd.name) > 0;
                                 }),
                  sends.end());
      for (SendDef& sd : packed_defs[src_task]) {
        sends.push_back(std::move(sd));
      }
    }
  }

  // Order each partition topologically: recvs/tokens/sends were appended in
  // producer-before-consumer order EXCEPT sends appended to a partition
  // after later nodes were added. Rebuild order by (a) stable-partitioning:
  // Graph::FromGraphDef validates inputs-first, so sort by dependency with
  // a simple fixpoint insertion.
  for (auto& [addr, builder] : builders) {
    std::vector<wire::NodeDef> ordered;
    std::set<std::string> placed;
    std::vector<wire::NodeDef> pending = std::move(builder.nodes);
    while (!pending.empty()) {
      const size_t before = pending.size();
      std::vector<wire::NodeDef> still;
      for (auto& nd : pending) {
        bool ready = true;
        for (const std::string& input : nd.inputs) {
          std::string name = input;
          if (!name.empty() && name[0] == '^') name = name.substr(1);
          const size_t colon = name.find(':');
          if (colon != std::string::npos) name = name.substr(0, colon);
          if (!placed.count(name)) {
            ready = false;
            break;
          }
        }
        if (ready) {
          placed.insert(nd.name);
          ordered.push_back(std::move(nd));
        } else {
          still.push_back(std::move(nd));
        }
      }
      if (still.size() == before) {
        return Internal("partition for " + addr +
                        " has a dependency cycle after send/recv insertion");
      }
      pending = std::move(still);
    }
    wire::GraphDef part;
    part.nodes = std::move(ordered);
    result.partitions.emplace(addr, std::move(part));
  }
  return result;
}

}  // namespace tfhpc::distrib
