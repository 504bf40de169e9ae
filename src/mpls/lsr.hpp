// A single Label Swapping Router: its label allocator, ILM (Incoming Label
// Map — the hardware switching table) and FEC map (the forwarding table for
// traffic originating here).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "mpls/label.hpp"

namespace rbpc::mpls {

/// Identifier of a provisioned LSP in the Network's registry.
using LspId = std::uint32_t;
inline constexpr LspId kInvalidLsp = ~0u;

/// One ILM entry. Uniform pop-then-push semantics: the incoming label is
/// always popped, then `push` (bottom-first) is pushed, then the packet is
/// transmitted over `out_interface` — or re-examined by the same router
/// when out_interface == kLocalInterface (used at LSP egress, where the
/// newly exposed label belongs to this router's own space, and by local
/// RBPC restoration entries).
///
/// The classic label swap is push = {next_label} + a real interface; a
/// plain egress pop is push = {} + kLocalInterface.
struct IlmEntry {
  std::vector<Label> push;
  graph::EdgeId out_interface = graph::kInvalidEdge;

  std::string to_string() const;
};

/// Sentinel "interface": process the packet again at this router.
inline constexpr graph::EdgeId kLocalInterface = graph::kInvalidEdge;

/// One FEC-map entry: traffic entering the MPLS cloud here, destined to a
/// given egress, is tagged with this label stack (bottom-first; the last
/// element is the top label and routes the first LSP of the chain).
struct FecEntry {
  std::vector<Label> push;
  /// The concatenation of LSPs the stack encodes, outermost first
  /// (diagnostics; forwarding uses only `push`).
  std::vector<LspId> chain;
};

class Lsr {
 public:
  explicit Lsr(graph::NodeId id) : id_(id) {}

  graph::NodeId id() const { return id_; }

  /// Allocates a fresh label from this router's space.
  Label allocate_label();

  /// Installs (or overwrites) the ILM entry for `label`.
  void set_ilm(Label label, IlmEntry entry);
  /// nullptr when the label is unknown (packet would be dropped).
  const IlmEntry* ilm(Label label) const;
  std::size_t ilm_size() const { return ilm_.size(); }

  void set_fec(graph::NodeId dest, FecEntry entry);
  void clear_fec(graph::NodeId dest);
  const FecEntry* fec(graph::NodeId dest) const;

 private:
  graph::NodeId id_;
  Label next_label_ = 16;  // 0..15 are reserved in real MPLS
  std::unordered_map<Label, IlmEntry> ilm_;
  std::unordered_map<graph::NodeId, FecEntry> fec_;
};

}  // namespace rbpc::mpls
