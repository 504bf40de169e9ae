#include "core/controller.hpp"

#include <algorithm>
#include <string>

#include "spf/bypass.hpp"
#include "spf/spf.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::NodeId;
using graph::Path;
using mpls::Label;
using mpls::LspId;

RbpcController::RbpcController(const graph::Graph& g, spf::Metric metric,
                               LabelPlan plan)
    : g_(g),
      metric_(metric),
      plan_(plan),
      trees_(g, spf::SpfOptions{.metric = metric, .padded = true},
             spf::TreePoolOptions{.max_views = 1}),
      base_(trees_.base()),
      net_(g),
      degrade_stale_(
          obs::MetricsRegistry::global().counter("ctl.degrade.stale_fec")),
      degrade_no_route_(
          obs::MetricsRegistry::global().counter("ctl.degrade.no_route")) {
  require(!g.directed(), "RbpcController: undirected networks only");
}

DegradeStats RbpcController::degrade_stats() const {
  DegradeStats s;
  s.stale_fec = degrade_stale_.value();
  s.no_route = degrade_no_route_.value();
  s.degraded_pairs = stale_pairs_.size();
  return s;
}

std::uint64_t RbpcController::pair_key(NodeId u, NodeId v) const {
  return static_cast<std::uint64_t>(u) * g_.num_nodes() + v;
}

void RbpcController::provision() {
  require(!provisioned_, "RbpcController::provision called twice");
  provisioned_ = true;
  const NodeId n = g_.num_nodes();

  // One-hop LSPs per link direction (Theorem 2's loose-edge connectors).
  edge_lsp_.assign(g_.num_edges(), {mpls::kInvalidLsp, mpls::kInvalidLsp});
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const graph::Edge& ed = g_.edge(e);
    edge_lsp_[e][0] = net_.provision_lsp(Path::from_parts(g_, {ed.u, ed.v}, {e}));
    edge_lsp_[e][1] = net_.provision_lsp(Path::from_parts(g_, {ed.v, ed.u}, {e}));
  }

  if (plan_ == LabelPlan::PerPair) {
    // One canonical base LSP per connected ordered pair: the path to v in
    // u's padded unfailed tree.
    for (NodeId u = 0; u < n; ++u) {
      const std::shared_ptr<const spf::ShortestPathTree> tree =
          trees_.base().tree(u);
      for (NodeId v = 0; v < n; ++v) {
        if (u != v && tree->reachable(v)) {
          pair_lsp_[pair_key(u, v)] =
              net_.provision_lsp(tree->path_to(g_, v));
        }
      }
    }
  } else {
    // One merged tree per destination: the padded unfailed tree rooted at
    // the destination (undirected + symmetric padding => its parent
    // pointers are every router's canonical next hop toward it).
    std::vector<NodeId> parent(n);
    std::vector<EdgeId> parent_edge(n);
    for (NodeId dest = 0; dest < n; ++dest) {
      const std::shared_ptr<const spf::ShortestPathTree> tree =
          trees_.base().tree(dest);
      for (NodeId v = 0; v < n; ++v) {
        parent[v] = tree->parent(v);
        parent_edge[v] = tree->parent_edge(v);
      }
      net_.provision_merged_tree(dest, parent, parent_edge);
    }
  }

  // Default FEC entries: the pair's base path as a single label.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && base_.connected(u, v)) {
        set_route(u, v, {base_label(u, v)}, /*is_default=*/true);
      }
    }
  }
}

LspId RbpcController::pair_lsp(NodeId u, NodeId v) const {
  auto it = pair_lsp_.find(pair_key(u, v));
  return it == pair_lsp_.end() ? mpls::kInvalidLsp : it->second;
}

Label RbpcController::base_label(NodeId u, NodeId v) const {
  if (plan_ == LabelPlan::Merged) return net_.merged_label(u, v);
  const LspId id = pair_lsp(u, v);
  return id == mpls::kInvalidLsp ? mpls::kInvalidLabel
                                 : net_.lsp(id).ingress_label();
}

std::vector<Label> RbpcController::push_stack(const Decomposition& d) const {
  // Bottom-first: the LAST piece's label goes deepest.
  std::vector<Label> stack;
  stack.reserve(d.pieces.size());
  for (std::size_t i = d.pieces.size(); i-- > 0;) {
    const Path& piece = d.pieces[i];
    if (d.is_base[i]) {
      const Label l = base_label(piece.source(), piece.target());
      RBPC_ASSERT(l != mpls::kInvalidLabel);
      // Greedy membership against the canonical set compares for equality,
      // so a per-pair piece must be exactly the provisioned path.
      RBPC_ASSERT(plan_ == LabelPlan::Merged ||
                  net_.lsp(pair_lsp(piece.source(), piece.target())).path ==
                      piece);
      stack.push_back(l);
    } else {
      RBPC_ASSERT(piece.hops() == 1);
      const EdgeId e = piece.edge(0);
      const int dir = piece.source() == g_.edge(e).u ? 0 : 1;
      stack.push_back(
          net_.lsp(edge_lsp_[e][static_cast<std::size_t>(dir)]).ingress_label());
    }
  }
  return stack;
}

void RbpcController::set_route(NodeId u, NodeId v, std::vector<Label> push,
                               bool is_default) {
  const std::uint64_t key = pair_key(u, v);
  if (push.empty()) {
    net_.lsr_mutable(u).clear_fec(v);
    broken_pairs_.insert(key);
    dirty_pairs_.erase(key);
    return;
  }
  mpls::FecEntry entry;
  entry.push = std::move(push);
  net_.lsr_mutable(u).set_fec(v, std::move(entry));
  broken_pairs_.erase(key);
  if (is_default) {
    dirty_pairs_.erase(key);
  } else {
    dirty_pairs_.insert(key);
  }
}

bool RbpcController::base_path_alive(NodeId u, NodeId v) {
  const std::shared_ptr<const spf::ShortestPathTree> tree =
      trees_.base().tree(u);
  // edge_alive also requires both routers of the link, so the walk covers
  // every router on the path.
  for (NodeId x = v; x != u; x = tree->parent(x)) {
    if (!mask_.edge_alive(g_, tree->parent_edge(x))) return false;
  }
  return true;
}

void RbpcController::reroute_pair(NodeId u, NodeId v,
                                  const Decomposition* planned) {
  if (!base_.connected(u, v)) return;  // never connected: nothing to do
  const std::uint64_t key = pair_key(u, v);

  if (!mask_.node_alive(u) || !mask_.node_alive(v)) {
    // A dead endpoint cannot source or sink traffic — retention would only
    // feed a black hole, so this always clears.
    stale_pairs_.erase(key);
    set_route(u, v, {}, /*is_default=*/false);
    return;
  }
  if (mask_.empty() || base_path_alive(u, v)) {
    // Default base path is intact (or everything recovered): use it.
    stale_pairs_.erase(key);
    set_route(u, v, {base_label(u, v)}, /*is_default=*/true);
    return;
  }
  Decomposition online;
  if (planned == nullptr) {
    Path backup;
    trees_.route(u, v, mask_.failed_edges(), mask_.failed_nodes(), backup);
    if (!backup.empty()) online = greedy_decompose(base_, backup);
    planned = &online;
  }
  if (planned->empty()) {
    if (degrade_ && !broken_pairs_.contains(key)) {
      // Ladder rung 3: stale-view forwarding. Keep the installed entry; the
      // pair stays dirty so every later topology event re-attempts a clean
      // restoration.
      dirty_pairs_.insert(key);
      if (stale_pairs_.insert(key).second) degrade_stale_.inc();
      return;
    }
    // Ladder rung 4: no route under the view — clear the FEC entry.
    stale_pairs_.erase(key);
    if (!broken_pairs_.contains(key)) degrade_no_route_.inc();
    set_route(u, v, {}, /*is_default=*/false);
    return;
  }
  stale_pairs_.erase(key);
  set_route(u, v, push_stack(*planned), /*is_default=*/false);
}

void RbpcController::reroute_affected(EdgeId failed_edge, NodeId failed_node) {
  // Pairs off their default route may be affected by any topology change
  // (for the better on recovery, for the worse on failure).
  std::vector<std::uint64_t> keys(dirty_pairs_.begin(), dirty_pairs_.end());
  keys.insert(keys.end(), broken_pairs_.begin(), broken_pairs_.end());

  // A pair on its default route is hit when the failure lies on its base
  // path: in each source's unfailed tree, the subtree hanging below the
  // failed link (or router) is exactly the set of such destinations.
  const NodeId n = g_.num_nodes();
  const bool failure = failed_edge != graph::kInvalidEdge ||
                       failed_node != graph::kInvalidNode;
  std::vector<std::int8_t> below(failure ? n : 0);
  for (NodeId s = 0; failure && s < n; ++s) {
    const std::shared_ptr<const spf::ShortestPathTree> tree =
        trees_.base().tree(s);
    NodeId cut = failed_node;
    if (failed_edge != graph::kInvalidEdge) {
      const graph::Edge& ed = g_.edge(failed_edge);
      if (tree->parent_edge(ed.v) == failed_edge) {
        cut = ed.v;
      } else if (tree->parent_edge(ed.u) == failed_edge) {
        cut = ed.u;
      }
    }
    if (cut == graph::kInvalidNode || !tree->reachable(cut)) continue;
    // below[t]: -1 unknown, 0 outside the cut subtree, 1 inside; filled
    // along each parent walk so every node is resolved once.
    std::fill(below.begin(), below.end(), std::int8_t{-1});
    below[s] = 0;
    below[cut] = 1;
    for (NodeId t = 0; t < n; ++t) {
      if (t == s || !tree->reachable(t)) continue;
      NodeId a = t;
      while (below[a] < 0) a = tree->parent(a);
      for (NodeId b = t; below[b] < 0; b = tree->parent(b)) below[b] = below[a];
      if (below[t] == 1) keys.push_back(pair_key(s, t));
    }
  }

  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (std::uint64_t key : keys) {
    reroute_pair(static_cast<NodeId>(key / n), static_cast<NodeId>(key % n));
  }
}

void RbpcController::precompute_plan(EdgeId e) {
  require(provisioned_, "RbpcController: provision() first");
  plans_[e] = compute_fec_update_plan(base_, e);
}

void RbpcController::fail_link(EdgeId e) {
  require(provisioned_, "RbpcController: provision() first");
  require(!mask_.edge_failed(e), "fail_link: link already failed");
  mask_.fail_edge(e);
  net_.set_failures(mask_);

  // A precomputed plan covers the single-failure case exactly: it lists
  // every pair whose base path crosses `e` (no pair is off its default
  // route under the empty mask) with its restoration.
  if (mask_.failed_edge_count() == 1 && mask_.failed_node_count() == 0) {
    if (auto it = plans_.find(e); it != plans_.end()) {
      for (const FecUpdate& u : it->second.updates) {
        reroute_pair(u.src, u.dst, &u.chain);
      }
      return;
    }
  }
  reroute_affected(e, graph::kInvalidNode);
}

void RbpcController::recover_link(EdgeId e) {
  require(provisioned_, "RbpcController: provision() first");
  require(mask_.edge_failed(e), "recover_link: link is not failed");
  undo_local_patches(e);
  mask_.restore_edge(e);
  net_.set_failures(mask_);
  reroute_affected(graph::kInvalidEdge, graph::kInvalidNode);
}

void RbpcController::fail_router(NodeId v) {
  require(provisioned_, "RbpcController: provision() first");
  require(mask_.node_alive(v), "fail_router: router already failed");
  mask_.fail_node(v);
  net_.set_failures(mask_);
  reroute_affected(graph::kInvalidEdge, v);
}

void RbpcController::recover_router(NodeId v) {
  require(provisioned_, "RbpcController: provision() first");
  require(mask_.node_failed(v), "recover_router: router is not failed");
  for (const graph::Arc& a : g_.arcs(v)) undo_local_patches(a.edge);
  mask_.restore_node(v);
  net_.set_failures(mask_);
  reroute_affected(graph::kInvalidEdge, graph::kInvalidNode);
}

std::size_t RbpcController::local_patch_router(NodeId v) {
  require(provisioned_, "RbpcController: provision() first");
  require(mask_.node_failed(v),
          "local_patch_router: apply fail_router(v) first");
  std::size_t patched = 0;
  for (const graph::Arc& a : g_.arcs(v)) {
    patched += local_patch(a.edge, LocalMode::EndRoute);
  }
  return patched;
}

void RbpcController::splice(EdgeId e, NodeId at, Label in_label,
                            std::vector<Label> push) {
  const mpls::IlmEntry* old = net_.lsr(at).ilm(in_label);
  RBPC_ASSERT(old != nullptr);
  splices_.emplace(std::make_tuple(e, at, in_label), *old);
  mpls::IlmEntry spliced;
  spliced.push = std::move(push);
  spliced.out_interface = mpls::kLocalInterface;
  net_.lsr_mutable(at).set_ilm(in_label, std::move(spliced));
}

std::vector<Label> RbpcController::end_route_stack(NodeId from, NodeId to) {
  Path tail;
  trees_.route(from, to, mask_.failed_edges(), mask_.failed_nodes(), tail);
  if (tail.empty()) return {};
  return push_stack(greedy_decompose(base_, tail));
}

std::size_t RbpcController::local_patch(EdgeId e, LocalMode mode) {
  require(provisioned_, "RbpcController: provision() first");
  // A link is patchable when it is down for any reason the adjacent router
  // can detect — an explicit link failure or a dead far-end router (the
  // paper: "a node failure is equivalent to a failure of all incident
  // edges").
  require(!mask_.edge_alive(g_, e),
          "local_patch: apply fail_link/fail_router first (the adjacent "
          "router only patches links it has detected as down)");
  require(mode == LocalMode::EndRoute || plan_ == LabelPlan::PerPair,
          "local_patch: edge bypass resumes a per-pair LSP; the merged label "
          "plan has none");

  std::size_t patched = 0;
  if (plan_ == LabelPlan::Merged) {
    // Every router whose merged next hop toward some destination crosses
    // `e` end-routes that destination's traffic.
    for (NodeId dest = 0; dest < g_.num_nodes(); ++dest) {
      if (!mask_.node_alive(dest)) continue;
      const std::shared_ptr<const spf::ShortestPathTree> tree =
          trees_.base().tree(dest);
      for (NodeId r1 = 0; r1 < g_.num_nodes(); ++r1) {
        if (r1 == dest || tree->parent_edge(r1) != e) continue;
        const Label in_label = net_.merged_label(r1, dest);
        if (!mask_.node_alive(r1) || splices_.contains({e, r1, in_label})) {
          continue;
        }
        std::vector<Label> push = end_route_stack(r1, dest);
        if (push.empty()) continue;  // destination unreachable from R1
        splice(e, r1, in_label, std::move(push));
        ++patched;
      }
    }
    return patched;
  }

  Path bypass;
  if (mode == LocalMode::EdgeBypass) {
    bypass = spf::min_cost_bypass(g_, e, mask_, metric_);
  }
  for (LspId id : net_.lsps_using_edge(e)) {
    const mpls::LspRecord& lsp = net_.lsp(id);
    const auto& edges = lsp.path.edges();
    const auto pos = std::find(edges.begin(), edges.end(), e);
    RBPC_ASSERT(pos != edges.end());
    const std::size_t idx = static_cast<std::size_t>(pos - edges.begin());
    const NodeId r1 = lsp.path.node(idx);
    const Label in_label = lsp.labels[idx];
    if (!mask_.node_alive(r1) || splices_.contains({e, r1, in_label})) continue;

    std::vector<Label> push;  // bottom-first
    if (mode == LocalMode::EndRoute) {
      push = end_route_stack(r1, lsp.path.target());
      if (push.empty()) continue;  // destination unreachable from R1
    } else {
      if (bypass.empty()) continue;
      const Path detour = bypass.source() == r1 ? bypass : bypass.reversed();
      // Resume the original LSP at the far end of the failed link.
      const Label resume = lsp.labels[idx + 1];
      if (resume != mpls::kInvalidLabel) push.push_back(resume);
      const std::vector<Label> around =
          push_stack(greedy_decompose(base_, detour));
      push.insert(push.end(), around.begin(), around.end());
    }
    splice(e, r1, in_label, std::move(push));
    ++patched;
  }
  return patched;
}

void RbpcController::undo_local_patches(EdgeId e) {
  auto it = splices_.lower_bound({e, 0, 0});
  while (it != splices_.end() && std::get<0>(it->first) == e) {
    net_.lsr_mutable(std::get<1>(it->first))
        .set_ilm(std::get<2>(it->first), it->second);
    it = splices_.erase(it);
  }
}

mpls::ForwardResult RbpcController::send(NodeId src, NodeId dst) {
  require(provisioned_, "RbpcController: provision() first");
  return net_.send(src, dst);
}

mpls::ForwardResult RbpcController::send_or_throw(NodeId src, NodeId dst) {
  require(provisioned_, "RbpcController: provision() first");
  require(src < g_.num_nodes() && dst < g_.num_nodes(),
          "send_or_throw: router out of range");
  if (broken_pairs_.contains(pair_key(src, dst))) {
    throw NoRouteError("send_or_throw: no route from " + std::to_string(src) +
                       " to " + std::to_string(dst) +
                       " under the current view");
  }
  return net_.send(src, dst);
}

}  // namespace rbpc::core
