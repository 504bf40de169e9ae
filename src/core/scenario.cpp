#include "core/scenario.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::NodeId;

const char* to_string(FailureClass c) {
  switch (c) {
    case FailureClass::OneLink:
      return "one link failure";
    case FailureClass::TwoLinks:
      return "two link failures";
    case FailureClass::OneRouter:
      return "one router failure";
    case FailureClass::TwoRouters:
      return "two router failures";
  }
  return "?";
}

SamplePair sample_pair(spf::DistanceOracle& oracle, Rng& rng) {
  const graph::Graph& g = oracle.graph();
  require(g.num_nodes() >= 2, "sample_pair: need at least two routers");
  constexpr int kMaxAttempts = 10000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    if (!oracle.mask().node_alive(s) || !oracle.mask().node_alive(t)) continue;
    graph::Path lsp = oracle.canonical_path(s, t);
    if (lsp.empty()) continue;  // disconnected pair
    return SamplePair{s, t, std::move(lsp)};
  }
  throw NoRouteError("sample_pair: could not find a connected pair");
}

namespace {

template <typename T>
std::vector<std::pair<T, T>> unordered_pairs(const std::vector<T>& items) {
  std::vector<std::pair<T, T>> out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      out.emplace_back(items[i], items[j]);
    }
  }
  return out;
}

template <typename T>
void cap_cases(std::vector<T>& cases, std::size_t max_cases, Rng& rng) {
  if (cases.size() <= max_cases) return;
  rng.shuffle(cases);
  cases.resize(max_cases);
}

}  // namespace

std::vector<Scenario> scenarios_for(const SamplePair& pair, FailureClass cls,
                                    Rng& rng, std::size_t max_cases) {
  require(!pair.lsp.empty(), "scenarios_for: sample has no LSP");
  require(max_cases >= 1, "scenarios_for: max_cases must be >= 1");
  std::vector<Scenario> out;

  const std::vector<EdgeId>& links = pair.lsp.edges();
  // Interior routers only: failing an endpoint makes restoration moot.
  std::vector<NodeId> interior(pair.lsp.nodes().begin() + 1,
                               pair.lsp.nodes().end() - 1);

  switch (cls) {
    case FailureClass::OneLink: {
      for (EdgeId e : links) {
        Scenario sc;
        sc.mask.fail_edge(e);
        sc.failed_edges = {e};
        out.push_back(std::move(sc));
      }
      break;
    }
    case FailureClass::TwoLinks: {
      auto pairs = unordered_pairs(links);
      cap_cases(pairs, max_cases, rng);
      for (const auto& [e1, e2] : pairs) {
        Scenario sc;
        sc.mask.fail_edge(e1);
        sc.mask.fail_edge(e2);
        sc.failed_edges = {e1, e2};
        out.push_back(std::move(sc));
      }
      break;
    }
    case FailureClass::OneRouter: {
      for (NodeId v : interior) {
        Scenario sc;
        sc.mask.fail_node(v);
        sc.failed_nodes = {v};
        out.push_back(std::move(sc));
      }
      break;
    }
    case FailureClass::TwoRouters: {
      auto pairs = unordered_pairs(interior);
      cap_cases(pairs, max_cases, rng);
      for (const auto& [v1, v2] : pairs) {
        Scenario sc;
        sc.mask.fail_node(v1);
        sc.mask.fail_node(v2);
        sc.failed_nodes = {v1, v2};
        out.push_back(std::move(sc));
      }
      break;
    }
  }
  return out;
}

}  // namespace rbpc::core
