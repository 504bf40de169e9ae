// RbpcController: the full RBPC control plane over the MPLS simulator.
//
// Provisions the canonical base set (one padded-unique shortest path per
// ordered pair, plus a one-hop LSP per link direction so Theorem 2's loose
// edges are always available), installs FEC entries, and then implements
// the paper's restoration schemes as pure table operations:
//
//  * fail_link / fail_router (source RBPC) — for every pair whose current
//    forwarding chain is disrupted, recompute the restoration as a
//    concatenation of surviving base paths and rewrite the FEC entry at the
//    source router only. ILM tables are never touched.
//  * local_patch (local RBPC) — for every base route crossing the failed
//    link, splice the ILM entry at the adjacent router to either route
//    straight to the route's egress (end-route) or around the failed link
//    and back onto the original LSP (edge-bypass).
//  * recover_link — reverses the FEC rewrites (and any local splices).
//
// The label plan decides only how a concatenation is encoded as labels;
// which route a pair takes, and every ladder decision, is the same under
// both (tests assert identical delivery):
//
//  * PerPair — one LSP per ordered pair (n^2 LSPs). A restoration stack is
//    the pieces' LSP ingress labels.
//  * Merged — the paper's remedy for label scarcity: one merged tree per
//    destination, i.e. one label per destination per router, which shrinks
//    ILM tables from O(n * avg-path-length) to O(n) entries per router. A
//    restoration stack is
//      [ merged-label(junction_m-1 -> t), ..., merged-label(s -> junction_1) ]
//    — each junction pops the finished tree's label and finds beneath it a
//    label of its own space continuing toward the next junction. The
//    ablation bench quantifies the label economics.
//
// One spf::SnapshotTreePool serves every tree: its base of padded unfailed
// trees answers canonical membership (SharedCanonicalBaseSet), the default
// routes, the affected-pair rule and merged provisioning, and is what SPF
// repair starts from; its one view holds the trees under the current mask.
// An online reroute takes its route from the pool's ladder
// (SnapshotTreePool::route, shared with the batch engine and the service):
// the cut rung for a single failed link, else the view.
//
// The point of this class — and of the integration tests driving it — is
// that restoration correctness is verified by *forwarding actual packets*
// through the label tables, not by comparing path objects.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "core/degrade.hpp"
#include "core/fec_update.hpp"
#include "graph/graph.hpp"
#include "mpls/network.hpp"
#include "obs/metrics.hpp"
#include "spf/metric.hpp"
#include "spf/tree_pool.hpp"

namespace rbpc::core {

class RbpcController {
 public:
  enum class LocalMode { EndRoute, EdgeBypass };
  enum class LabelPlan { PerPair, Merged };

  /// The graph must outlive the controller. Call provision() before use.
  RbpcController(const graph::Graph& g, spf::Metric metric,
                 LabelPlan plan = LabelPlan::PerPair);

  /// Provisions the base set (n^2 LSPs under PerPair, n merged trees under
  /// Merged, plus 2 one-hop LSPs per link) and a default FEC entry for
  /// every connected ordered pair. Intended for ISP-scale topologies (the
  /// paper's primary setting).
  void provision();

  // --- topology events (source RBPC) ---------------------------------------

  void fail_link(graph::EdgeId e);
  void recover_link(graph::EdgeId e);
  void fail_router(graph::NodeId v);
  void recover_router(graph::NodeId v);

  /// Precomputes the FEC update plan for a potential failure of `e` (paper
  /// §4.1: "fastest if pre-computed and indexed by the specific link
  /// failure"). Whenever `e` is the only failure in effect, fail_link(e)
  /// takes the affected pairs and their decompositions from the stored plan
  /// instead of recomputing them; the degradation ladder still decides.
  void precompute_plan(graph::EdgeId e);
  /// Number of links with stored plans.
  std::size_t planned_links() const { return plans_.size(); }

  // --- local RBPC -----------------------------------------------------------

  /// Splices the ILM entry at the router adjacent to `e` for every base
  /// route crossing it: per LSP under PerPair, per (router, destination)
  /// merged entry under Merged — one merged splice repairs ALL traffic
  /// heading to that destination through the dead link. Requires the link
  /// to be down (fail_link, or fail_router of an endpoint) — the adjacent
  /// router detects the failure; the splice must not race a live link.
  /// EdgeBypass resumes the original LSP past the link, so it needs
  /// PerPair (PreconditionError under Merged). Returns the number of
  /// entries patched.
  std::size_t local_patch(graph::EdgeId e, LocalMode mode = LocalMode::EndRoute);

  /// Local RBPC around a failed router: patches every incident link (the
  /// paper: a node failure is the failure of all incident edges). Only
  /// EndRoute is meaningful — an edge bypass would route straight back
  /// into the dead router. Returns the number of entries patched.
  std::size_t local_patch_router(graph::NodeId v);

  /// Reverses local_patch splices for `e` (called on recovery).
  void undo_local_patches(graph::EdgeId e);

  // --- graceful degradation -------------------------------------------------

  /// Enables stale-view forwarding (ladder rung 3): when a reroute finds
  /// no surviving route under the controller's current view, the pair's
  /// previous FEC chain is retained instead of cleared. Packets on the
  /// stale chain are dropped at the first dead link or unknown label (and
  /// loops are TTL-guarded), but chains that are only *believed* dead —
  /// the common case under a stale LSDB view — keep forwarding. The pair
  /// stays dirty, so every later topology event re-attempts a clean
  /// restoration. Off by default: with a perfect view, clearing is exact.
  void set_graceful_degradation(bool on) { degrade_ = on; }
  bool graceful_degradation() const { return degrade_; }

  /// Ladder rungs 3-4 counters (lifetime totals + current degraded pairs).
  DegradeStats degrade_stats() const;

  // --- data plane ------------------------------------------------------------

  mpls::ForwardResult send(graph::NodeId src, graph::NodeId dst);

  /// Like send, but makes ladder rung 4 explicit: throws NoRouteError when
  /// the pair's FEC entry was cleared because restoration is impossible
  /// under the controller's view (instead of reporting a NoFecEntry drop).
  mpls::ForwardResult send_or_throw(graph::NodeId src, graph::NodeId dst);

  // --- introspection ----------------------------------------------------------

  mpls::Network& network() { return net_; }
  const mpls::Network& network() const { return net_; }
  const graph::FailureMask& failures() const { return mask_; }

  /// The base LSP provisioned for the ordered pair; kInvalidLsp when the
  /// pair is disconnected in the unfailed network, or under Merged (which
  /// has no per-pair LSPs).
  mpls::LspId pair_lsp(graph::NodeId u, graph::NodeId v) const;

  /// Pairs whose FEC entry currently deviates from the default single-label
  /// entry (i.e. pairs under restoration, including stale retained ones).
  std::size_t pairs_under_restoration() const { return dirty_pairs_.size(); }

  /// LSPs provisioned: 2 per link, plus one per connected ordered pair
  /// under PerPair.
  std::size_t num_base_lsps() const { return net_.num_lsps(); }

  /// The tree store and its ladder counters (ladder rungs 1-2).
  const spf::SnapshotTreePool& tree_pool() const { return trees_; }

 private:
  const graph::Graph& g_;
  spf::Metric metric_;
  LabelPlan plan_;
  /// Padded trees: the unfailed base, built once per source and shared by
  /// the base set, provisioning, the affected-pair rule, the cut rung and
  /// SPF repair, plus one view for the current mask (ladder rungs 1-2: a
  /// cut answer, a tree repaired from the base, or scratch SPF inside the
  /// view).
  spf::SnapshotTreePool trees_;
  SharedCanonicalBaseSet base_;
  mpls::Network net_;
  graph::FailureMask mask_;
  bool provisioned_ = false;
  bool degrade_ = false;

  obs::InstanceCounter degrade_stale_;
  obs::InstanceCounter degrade_no_route_;

  /// pair key -> base LSP (PerPair only).
  std::unordered_map<std::uint64_t, mpls::LspId> pair_lsp_;
  /// edge id -> {LSP forward (u->v), LSP backward (v->u)}.
  std::vector<std::array<mpls::LspId, 2>> edge_lsp_;

  // Pair state. A connected pair is on its default route unless it is
  // dirty (restored, or retained stale) or broken (FEC cleared).
  std::unordered_set<std::uint64_t> dirty_pairs_;
  std::unordered_set<std::uint64_t> broken_pairs_;
  /// Pairs currently forwarding on a retained stale chain (rung 3).
  std::unordered_set<std::uint64_t> stale_pairs_;

  /// (edge, router, incoming label) -> saved ILM entry for splice undo.
  std::map<std::tuple<graph::EdgeId, graph::NodeId, mpls::Label>,
           mpls::IlmEntry>
      splices_;
  /// Precomputed single-failure FEC update plans, indexed by link.
  std::unordered_map<graph::EdgeId, FecUpdatePlan> plans_;

  std::uint64_t pair_key(graph::NodeId u, graph::NodeId v) const;

  /// The label that sends traffic from u along its base path to v: the
  /// pair LSP's ingress label, or the merged label toward v.
  mpls::Label base_label(graph::NodeId u, graph::NodeId v) const;

  /// Bottom-first label stack encoding a decomposition.
  std::vector<mpls::Label> push_stack(const Decomposition& d) const;

  /// Installs `push` as the pair's FEC entry (or clears it when empty) and
  /// updates the dirty/broken bookkeeping.
  void set_route(graph::NodeId u, graph::NodeId v,
                 std::vector<mpls::Label> push, bool is_default);

  /// Recomputes the pair's FEC entry under the current mask. `planned`,
  /// when set, replaces the online restoration (an empty one means no
  /// route); the ladder decides either way.
  void reroute_pair(graph::NodeId u, graph::NodeId v,
                    const Decomposition* planned = nullptr);

  /// Reroutes every dirty and broken pair, plus every pair on its default
  /// route whose base path crosses `failed_edge` or visits `failed_node`.
  /// Recovery events pass neither (kInvalidEdge, kInvalidNode).
  void reroute_affected(graph::EdgeId failed_edge, graph::NodeId failed_node);

  /// Splices `at`'s ILM entry for `in_label` to pop and push `push`
  /// (bottom-first), re-examining locally; the old entry is saved under `e`.
  void splice(graph::EdgeId e, graph::NodeId at, mpls::Label in_label,
              mpls::LspId lsp, std::vector<mpls::Label> push);

  /// Bottom-first end-route stack from `from` to `to` under the current
  /// mask, the route taken from trees_'s ladder like every other reroute;
  /// empty when `to` is unreachable.
  std::vector<mpls::Label> end_route_stack(graph::NodeId from,
                                           graph::NodeId to);
};

}  // namespace rbpc::core
