// Failure-scenario generation replicating the paper's sampling methodology
// (Section 5): sample a random source/destination pair, take its provisioned
// base LSP, and fail every link (or interior router, or pair thereof) along
// it.
#pragma once

#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "spf/oracle.hpp"
#include "util/rng.hpp"

namespace rbpc::core {

enum class FailureClass {
  OneLink,
  TwoLinks,
  OneRouter,
  TwoRouters,
};

const char* to_string(FailureClass c);

/// One failure case derived from a sampled LSP.
struct Scenario {
  graph::FailureMask mask;
  std::vector<graph::EdgeId> failed_edges;
  std::vector<graph::NodeId> failed_nodes;
};

/// A sampled source/destination pair with its provisioned base LSP.
struct SamplePair {
  graph::NodeId src = graph::kInvalidNode;
  graph::NodeId dst = graph::kInvalidNode;
  graph::Path lsp;  ///< canonical base LSP between them
};

/// Draws a uniformly random connected pair (s != t) and its canonical base
/// LSP. Throws NoRouteError after too many failed attempts (graph too
/// fragmented).
SamplePair sample_pair(spf::DistanceOracle& oracle, Rng& rng);

/// All failure cases of class `cls` derived from the pair's LSP:
///  - OneLink:    each link of the LSP individually;
///  - TwoLinks:   each unordered pair of LSP links (capped at `max_cases`);
///  - OneRouter:  each interior router of the LSP;
///  - TwoRouters: each unordered pair of interior routers (capped).
/// Scenarios are deterministic given the pair; when capping applies, the
/// kept subset is sampled with `rng`.
std::vector<Scenario> scenarios_for(const SamplePair& pair, FailureClass cls,
                                    Rng& rng, std::size_t max_cases = 64);

}  // namespace rbpc::core
