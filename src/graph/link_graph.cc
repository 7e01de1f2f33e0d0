#include "graph/link_graph.h"

namespace webevo::graph {

LinkGraph::LinkGraph(NodeId num_nodes) : num_nodes_(num_nodes) {}

Status LinkGraph::AddEdge(NodeId from, NodeId to) {
  if (finalized_) {
    return Status::FailedPrecondition("graph already finalized");
  }
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  edges_.push_back(Edge{from, to});
  return Status::Ok();
}

void LinkGraph::Finalize() {
  if (finalized_) return;
  out_offsets_.assign(num_nodes_ + 1, 0);
  in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    out_offsets_[n + 1] += out_offsets_[n];
    in_offsets_[n + 1] += in_offsets_[n];
  }
  out_targets_.resize(edges_.size());
  in_sources_.resize(edges_.size());
  std::vector<uint64_t> out_pos(out_offsets_.begin(),
                                out_offsets_.end() - 1);
  for (const Edge& e : edges_) out_targets_[out_pos[e.from]++] = e.to;
  // In-lists from the out-CSR in source order: each target's
  // predecessors come out ascending, the order in which a push over
  // sources reaches the target, so a pull over InNeighbors adds the
  // same terms in the same order.
  std::vector<uint64_t> in_pos(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId from = 0; from < num_nodes_; ++from) {
    for (uint64_t k = out_offsets_[from]; k < out_offsets_[from + 1]; ++k) {
      in_sources_[in_pos[out_targets_[k]]++] = from;
    }
  }
  finalized_ = true;
}

}  // namespace webevo::graph
