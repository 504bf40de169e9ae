#include "graph/failure.hpp"

#include "util/error.hpp"

namespace rbpc::graph {

namespace {

void set_bit(std::vector<bool>& bits, std::size_t idx, bool value,
             std::size_t& count) {
  if (idx >= bits.size()) {
    if (!value) return;  // already implicitly up
    bits.resize(idx + 1, false);
  }
  if (bits[idx] == value) return;
  bits[idx] = value;
  if (value) {
    ++count;
  } else {
    --count;
  }
}

}  // namespace

void FailureMask::fail_edge(EdgeId e) {
  set_bit(edge_failed_, e, true, failed_edge_count_);
}

void FailureMask::fail_node(NodeId v) {
  set_bit(node_failed_, v, true, failed_node_count_);
}

void FailureMask::restore_edge(EdgeId e) {
  set_bit(edge_failed_, e, false, failed_edge_count_);
}

void FailureMask::restore_node(NodeId v) {
  set_bit(node_failed_, v, false, failed_node_count_);
}

std::size_t FailureMask::removed_edge_count(const Graph& g) const {
  std::size_t removed = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!edge_alive(g, e)) ++removed;
  }
  return removed;
}

std::vector<EdgeId> FailureMask::failed_edges() const {
  std::vector<EdgeId> out;
  out.reserve(failed_edge_count_);
  for (std::size_t i = 0; i < edge_failed_.size(); ++i) {
    if (edge_failed_[i]) out.push_back(static_cast<EdgeId>(i));
  }
  return out;
}

std::vector<NodeId> FailureMask::failed_nodes() const {
  std::vector<NodeId> out;
  out.reserve(failed_node_count_);
  for (std::size_t i = 0; i < node_failed_.size(); ++i) {
    if (node_failed_[i]) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

FailureMask FailureMask::of_edges(std::initializer_list<EdgeId> edges) {
  FailureMask m;
  for (EdgeId e : edges) m.fail_edge(e);
  return m;
}

FailureMask FailureMask::of_edges(const std::vector<EdgeId>& edges) {
  FailureMask m;
  for (EdgeId e : edges) m.fail_edge(e);
  return m;
}

FailureMask FailureMask::of_nodes(std::initializer_list<NodeId> nodes) {
  FailureMask m;
  for (NodeId v : nodes) m.fail_node(v);
  return m;
}

FailureMask FailureMask::of_nodes(const std::vector<NodeId>& nodes) {
  FailureMask m;
  for (NodeId v : nodes) m.fail_node(v);
  return m;
}

const FailureMask& FailureMask::none() {
  static const FailureMask empty;
  return empty;
}

}  // namespace rbpc::graph
