// The MPLS network simulator: a set of LSRs over a Graph, LSP provisioning
// with downstream label assignment, and a step-wise forwarding engine.
//
// Provisioning model: every router along an LSP — including the ingress —
// holds one ILM entry for it. The ingress entry behaves like a swap, so a
// concatenation of LSPs P1, P2, ..., Pm is encoded purely as the label
// stack [ingress(Pm), ..., ingress(P2), ingress(P1)] (top last): each
// junction router pops the finished LSP's label and finds beneath it a
// label of its *own* space that continues onto the next LSP. This is
// exactly the paper's "push two labels, the junction pops and switches
// onto P3" mechanism (Figure 6), generalized to any chain length.
//
// With penultimate-hop popping (PHP) enabled for an LSP, the next-to-last
// router pops instead, and the egress holds no entry — the optimization the
// paper applies to two-hop bypass paths.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "mpls/label.hpp"
#include "mpls/lsr.hpp"
#include "mpls/packet.hpp"

namespace rbpc::mpls {

/// A provisioned label-switched path.
struct LspRecord {
  LspId id = kInvalidLsp;
  graph::Path path;
  /// labels[i] is the label for this LSP in router path.node(i)'s space.
  /// With PHP the egress has no label: labels.back() == kInvalidLabel.
  std::vector<Label> labels;
  bool php = false;

  graph::NodeId ingress() const { return path.source(); }
  graph::NodeId egress() const { return path.target(); }
  /// The label a packet needs on top to enter this LSP at its ingress.
  Label ingress_label() const { return labels.front(); }
};

class Network {
 public:
  /// The graph must outlive the Network.
  explicit Network(const graph::Graph& g);

  const graph::Graph& graph() const { return g_; }

  // --- failure state -------------------------------------------------------

  /// Replaces the current failure state (link transmission checks it).
  void set_failures(graph::FailureMask mask) { mask_ = std::move(mask); }
  const graph::FailureMask& failures() const { return mask_; }

  // --- LSP provisioning ----------------------------------------------------

  /// Installs an LSP along `path` (at least one hop). Allocates one label
  /// per router (ingress included; egress excluded when php). Returns its id.
  LspId provision_lsp(const graph::Path& path, bool php = false);

  const LspRecord& lsp(LspId id) const;
  std::size_t num_lsps() const { return lsps_.size(); }

  // --- merged destination trees --------------------------------------------
  //
  // The paper's label-saving technique: "merging LSPs, which means using
  // the same label for all the packets with the same destination even if
  // they arrive from different ports". A merged tree installs ONE label per
  // router for a destination; the per-router entries swap onto the parent
  // hop of a shortest-path tree oriented toward the destination. The whole
  // all-pairs base set then costs n labels per router instead of one label
  // per traversing LSP.

  /// Installs the merged tree for `dest`. `parent[v]` / `parent_edge[v]`
  /// give each router's next hop toward dest (kInvalidNode/eEdge when v is
  /// unreachable or v == dest). Returns dest for convenience.
  graph::NodeId provision_merged_tree(graph::NodeId dest,
                                      const std::vector<graph::NodeId>& parent,
                                      const std::vector<graph::EdgeId>& parent_edge);

  /// The label that routes traffic from `at` toward `dest` along the merged
  /// tree; kInvalidLabel when no merged tree covers the pair.
  Label merged_label(graph::NodeId at, graph::NodeId dest) const;

  bool has_merged_tree(graph::NodeId dest) const;

  /// The provisioned LSPs whose path uses link `e`.
  std::vector<LspId> lsps_using_edge(graph::EdgeId e) const;

  // --- FEC management ------------------------------------------------------

  /// Installs the FEC entry at `ingress` for destination `dst` encoding the
  /// concatenation `chain` (outermost LSP first). Validates that the chain
  /// is connected: chain[0] starts at ingress, each LSP starts where the
  /// previous ends, and the last ends at dst.
  void set_fec_chain(graph::NodeId ingress, graph::NodeId dst,
                     const std::vector<LspId>& chain);

  // --- local restoration hooks (local RBPC) --------------------------------

  /// Rewrites the ILM entry of `lsp` at router `at` to pop the incoming
  /// label and instead push `labels` (bottom-first) and re-examine locally.
  /// Used by both local-RBPC flavors. Returns the original entry so the
  /// caller can restore it on link recovery.
  IlmEntry splice_ilm(LspId lsp, graph::NodeId at, std::vector<Label> labels);

  /// Reinstates a saved entry (reversal on link recovery).
  void restore_ilm(LspId lsp, graph::NodeId at, IlmEntry original);

  // --- forwarding ----------------------------------------------------------

  /// Sends a packet from src to dst using src's FEC table; runs the
  /// forwarding loop to completion.
  ForwardResult send(graph::NodeId src, graph::NodeId dst, int ttl = 255);

  /// Sends a packet with an explicit initial label stack (diagnostics and
  /// tests).
  ForwardResult send_with_stack(graph::NodeId src, graph::NodeId dst,
                                LabelStack stack, int ttl = 255);

  // --- introspection -------------------------------------------------------

  const Lsr& lsr(graph::NodeId v) const;
  Lsr& lsr_mutable(graph::NodeId v);

  /// Total ILM entries across all routers.
  std::size_t total_ilm_entries() const;
  /// Largest single ILM table.
  std::size_t max_ilm_entries() const;

  /// Cumulative data-plane counters (since construction or reset_stats).
  /// The degradation counters (label_misses, ttl_expired, loops_detected)
  /// exist because stale control-plane views are survivable, not fatal: a
  /// packet hitting a stale ILM entry is dropped and counted — never an
  /// assert — and loops are detected and attributed to the TTL guard.
  struct ForwardStats {
    std::uint64_t packets = 0;      ///< packets injected
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t link_hops = 0;    ///< links traversed
    std::uint64_t label_ops = 0;    ///< ILM lookups (pop+push bundles)
    std::uint64_t label_misses = 0; ///< drops on a label with no ILM entry
    std::uint64_t ttl_expired = 0;  ///< drops by the TTL loop guard
    std::uint64_t loops_detected = 0;  ///< packets that revisited a state
  };
  const ForwardStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  const graph::Graph& g_;
  graph::FailureMask mask_;
  std::vector<Lsr> lsrs_;
  std::vector<LspRecord> lsps_;
  /// merged_labels_[dest][at] = label at router `at` toward `dest`; empty
  /// vector when no merged tree was provisioned for dest.
  std::unordered_map<graph::NodeId, std::vector<Label>> merged_labels_;
  ForwardStats stats_;

  ForwardResult forward_loop(Packet& pkt);
};

}  // namespace rbpc::mpls
