// Shared-risk link groups (SRLGs): sets of links that fail together.
//
// Real outages are correlated — parallel spans in one conduit are cut by
// one backhoe, a regional power event takes down every link in a
// neighborhood. Multi-failure restoration (core/multi_failure.hpp) is
// exercised honestly only under such correlated failure sets: k
// independent uniform edge failures almost never stress the k-failure
// lemma bounds the way one shared-risk cut does.
//
// Two discovery modes build a catalog from topology alone:
//  * parallel spans — edges sharing both endpoints (multi-edges between
//    one router pair: the classic same-conduit risk group);
//  * regional groups — all edges within a BFS ball of a sampled center
//    router (a geographic outage footprint).
//
// The catalog then samples atomic failure sets, and plan_storm
// (chaos/storm.hpp) can fail whole groups at one timestamp via
// StormConfig::srlg_groups / srlg_bias.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace rbpc::chaos {

/// One shared-risk group: the member links fail atomically.
struct SrlgGroup {
  enum class Kind {
    ParallelSpan,  ///< multi-edges between one router pair
    Regional,      ///< BFS edge-ball around a center router
  };
  Kind kind = Kind::Regional;
  /// Center router for Regional groups (kInvalidNode for spans).
  graph::NodeId center = graph::kInvalidNode;
  /// Member links, ascending, no duplicates.
  std::vector<graph::EdgeId> edges;
};

/// All parallel-span groups of `g`: one group per router pair joined by
/// two or more parallel links. Deterministic (ascending by smallest edge).
std::vector<SrlgGroup> parallel_span_groups(const graph::Graph& g);

/// `count` regional groups: BFS edge-balls of hop radius `radius` around
/// centers sampled from `rng` (distinct centers while possible). Groups
/// are clipped to `max_edges` member links (closest-first) so one dense
/// hub cannot swallow the whole graph. Deterministic per (g, args, seed).
std::vector<SrlgGroup> regional_groups(const graph::Graph& g,
                                       std::size_t count, std::size_t radius,
                                       Rng& rng, std::size_t max_edges = 16);

/// A catalog of shared-risk groups over one topology.
class SrlgCatalog {
 public:
  /// Spans plus `regional_count` regional groups (see the free functions).
  static SrlgCatalog discover(const graph::Graph& g,
                              std::size_t regional_count, std::size_t radius,
                              Rng& rng, std::size_t max_edges = 16);

  explicit SrlgCatalog(std::vector<SrlgGroup> groups)
      : groups_(std::move(groups)) {}

  const std::vector<SrlgGroup>& groups() const { return groups_; }
  bool empty() const { return groups_.empty(); }
  std::size_t size() const { return groups_.size(); }

  /// A correlated failure set: the union of up to `max_groups` distinct
  /// groups sampled from `rng` (at least one; empty mask only when the
  /// catalog is empty). The storm/test axis for k >= 2 scenarios.
  graph::FailureMask sample_failure(std::size_t max_groups, Rng& rng) const;

 private:
  std::vector<SrlgGroup> groups_;
};

}  // namespace rbpc::chaos
