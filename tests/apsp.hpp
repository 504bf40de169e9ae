// All-pairs shortest path distances via Floyd–Warshall.
//
// O(n^3) — an independent oracle for the property tests (cross-checking
// Dijkstra/BFS/bidirectional search and the tree caches) and for exact
// diameters on small gadgets. Test support only; the library computes
// distances with spf::shortest_tree.
#pragma once

#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "spf/metric.hpp"

namespace rbpc::spf {

class ApspMatrix {
 public:
  /// Runs Floyd–Warshall over the surviving network.
  ApspMatrix(const graph::Graph& g,
             const graph::FailureMask& mask = graph::FailureMask::none(),
             Metric metric = Metric::Weighted);

  /// kUnreachable when disconnected (or an endpoint is failed).
  graph::Weight dist(graph::NodeId u, graph::NodeId v) const;
  bool reachable(graph::NodeId u, graph::NodeId v) const;

  /// Largest finite distance (0 for empty/singleton graphs).
  graph::Weight diameter() const;

  std::size_t num_nodes() const { return n_; }

 private:
  std::size_t n_;
  std::vector<graph::Weight> d_;  // row-major n x n

  graph::Weight& at(graph::NodeId u, graph::NodeId v) {
    return d_[static_cast<std::size_t>(u) * n_ + v];
  }
  const graph::Weight& at(graph::NodeId u, graph::NodeId v) const {
    return d_[static_cast<std::size_t>(u) * n_ + v];
  }
};

}  // namespace rbpc::spf
