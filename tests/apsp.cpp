#include "apsp.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::spf {

using graph::NodeId;
using graph::Weight;

ApspMatrix::ApspMatrix(const graph::Graph& g, const graph::FailureMask& mask,
                       Metric metric)
    : n_(g.num_nodes()), d_(n_ * n_, graph::kUnreachable) {
  for (NodeId v = 0; v < n_; ++v) {
    if (mask.node_alive(v)) at(v, v) = 0;
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!mask.edge_alive(g, e)) continue;
    const auto& ed = g.edge(e);
    const Weight w = metric_weight(g, e, metric);
    at(ed.u, ed.v) = std::min(at(ed.u, ed.v), w);
    if (!g.directed()) at(ed.v, ed.u) = std::min(at(ed.v, ed.u), w);
  }
  for (NodeId k = 0; k < n_; ++k) {
    for (NodeId i = 0; i < n_; ++i) {
      const Weight dik = at(i, k);
      if (dik == graph::kUnreachable) continue;
      for (NodeId j = 0; j < n_; ++j) {
        const Weight dkj = at(k, j);
        if (dkj == graph::kUnreachable) continue;
        at(i, j) = std::min(at(i, j), dik + dkj);
      }
    }
  }
}

Weight ApspMatrix::dist(NodeId u, NodeId v) const {
  require(u < n_ && v < n_, "ApspMatrix::dist: node out of range");
  return at(u, v);
}

bool ApspMatrix::reachable(NodeId u, NodeId v) const {
  return dist(u, v) != graph::kUnreachable;
}

Weight ApspMatrix::diameter() const {
  Weight best = 0;
  for (const Weight w : d_) {
    if (w != graph::kUnreachable) best = std::max(best, w);
  }
  return best;
}

}  // namespace rbpc::spf
