// Precomputed FEC update plans (paper Section 4.1).
//
// "To implement the restoration scheme, for each link in the network the
//  router has a set of changes to its FEC table. ... This process could be
//  computed online but will be fastest if pre-computed and indexed by the
//  specific link failure."
//
// A FecUpdatePlan holds, for one potential link failure, every FEC-table
// change needed network-wide: for each ordered pair whose base LSP crosses
// the link, the replacement chain of base-LSP pieces (as paths — mapping to
// LspIds is the controller's job, since ids are per-Network). Plans are
// valid for the single-failure case; multiple simultaneous failures fall
// back to online computation, exactly as in the paper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "graph/graph.hpp"

namespace rbpc::core {

/// One pair's FEC rewrite under a specific link failure.
struct FecUpdate {
  graph::NodeId src = graph::kInvalidNode;
  graph::NodeId dst = graph::kInvalidNode;
  /// Replacement concatenation; empty decomposition = the failure
  /// disconnects the pair (FEC entry must be withdrawn).
  Decomposition chain;
};

/// All FEC rewrites triggered by failing one link.
struct FecUpdatePlan {
  graph::EdgeId link = graph::kInvalidEdge;
  std::vector<FecUpdate> updates;
};

/// Computes the plan for failing `link`: for every ordered pair whose
/// canonical base LSP uses the link, the restoration decomposition (greedy
/// over `base`, which must be defined on the unfailed network).
///
/// O(n) SPF runs per link in the worst case — this is provisioning-time
/// work, traded for O(1) lookup at failure time.
FecUpdatePlan compute_fec_update_plan(BasePathSet& base, graph::EdgeId link);

}  // namespace rbpc::core
