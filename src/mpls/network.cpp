#include "mpls/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::mpls {

using graph::EdgeId;
using graph::NodeId;

std::string to_string(ForwardStatus s) {
  switch (s) {
    case ForwardStatus::Delivered:
      return "delivered";
    case ForwardStatus::NoFecEntry:
      return "no FEC entry";
    case ForwardStatus::UnknownLabel:
      return "unknown label";
    case ForwardStatus::LinkDown:
      return "link down";
    case ForwardStatus::TtlExpired:
      return "TTL expired";
    case ForwardStatus::StackUnderflow:
      return "stack underflow";
  }
  return "?";
}

Network::Network(const graph::Graph& g) : g_(g) {
  lsrs_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) lsrs_.emplace_back(v);
}

LspId Network::provision_lsp(const graph::Path& path, bool php) {
  require(!path.empty() && path.hops() >= 1,
          "provision_lsp: path must have at least one hop");
  require(path.hops() >= 2 || !php,
          "provision_lsp: PHP needs at least two hops (else the ingress "
          "entry itself would be skipped)");

  LspRecord rec;
  rec.id = static_cast<LspId>(lsps_.size());
  rec.path = path;
  rec.php = php;

  const std::size_t n = path.num_nodes();
  rec.labels.resize(n, kInvalidLabel);
  // Downstream allocation: each router hands out its own incoming label.
  const std::size_t last_labeled = php ? n - 2 : n - 1;
  for (std::size_t i = 0; i <= last_labeled; ++i) {
    rec.labels[i] = lsrs_[path.node(i)].allocate_label();
  }

  // Install ILM entries: router i pops its label and pushes router i+1's
  // label, transmitting over the path edge. The last labeled router either
  // pops to empty + local (egress) or, under PHP at the penultimate hop,
  // pops and forwards the exposed stack over the final link.
  for (std::size_t i = 0; i <= last_labeled; ++i) {
    IlmEntry entry;
    if (i < n - 1) {
      entry.out_interface = path.edge(i);
      if (rec.labels[i + 1] != kInvalidLabel) {
        entry.push = {rec.labels[i + 1]};
      }
      // else: PHP — pop and forward the remaining stack as-is.
    } else {
      entry.out_interface = kLocalInterface;  // egress pop
    }
    lsrs_[path.node(i)].set_ilm(rec.labels[i], entry);
  }

  lsps_.push_back(std::move(rec));
  return lsps_.back().id;
}

const LspRecord& Network::lsp(LspId id) const {
  require(id < lsps_.size(), "lsp: unknown LSP");
  return lsps_[id];
}

std::vector<LspId> Network::lsps_using_edge(EdgeId e) const {
  std::vector<LspId> out;
  for (const LspRecord& rec : lsps_) {
    if (rec.path.uses_edge(e)) out.push_back(rec.id);
  }
  return out;
}

NodeId Network::provision_merged_tree(NodeId dest,
                                      const std::vector<NodeId>& parent,
                                      const std::vector<EdgeId>& parent_edge) {
  require(dest < g_.num_nodes(), "provision_merged_tree: dest out of range");
  require(parent.size() == g_.num_nodes() &&
              parent_edge.size() == g_.num_nodes(),
          "provision_merged_tree: parent arrays must cover every router");
  require(!merged_labels_.contains(dest),
          "provision_merged_tree: tree already provisioned for this dest");

  std::vector<Label> labels(g_.num_nodes(), kInvalidLabel);
  // Allocate one label per covered router (dest included: its entry pops).
  labels[dest] = lsrs_[dest].allocate_label();
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    if (v == dest || parent[v] == graph::kInvalidNode) continue;
    require(parent_edge[v] != graph::kInvalidEdge,
            "provision_merged_tree: parent without parent edge");
    labels[v] = lsrs_[v].allocate_label();
  }
  // Install entries: swap to the parent's label and forward, walking the
  // tree toward dest; dest pops and re-examines locally.
  {
    IlmEntry egress;
    egress.out_interface = kLocalInterface;
    lsrs_[dest].set_ilm(labels[dest], std::move(egress));
  }
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    if (v == dest || labels[v] == kInvalidLabel) continue;
    const NodeId next = parent[v];
    require(next < g_.num_nodes() && labels[next] != kInvalidLabel,
            "provision_merged_tree: parent chain leaves the covered set");
    IlmEntry entry;
    entry.push = {labels[next]};
    entry.out_interface = parent_edge[v];
    lsrs_[v].set_ilm(labels[v], std::move(entry));
  }
  merged_labels_.emplace(dest, std::move(labels));
  return dest;
}

Label Network::merged_label(NodeId at, NodeId dest) const {
  require(at < g_.num_nodes() && dest < g_.num_nodes(),
          "merged_label: router out of range");
  auto it = merged_labels_.find(dest);
  if (it == merged_labels_.end()) return kInvalidLabel;
  return it->second[at];
}

bool Network::has_merged_tree(NodeId dest) const {
  return merged_labels_.contains(dest);
}

void Network::set_fec_chain(NodeId ingress, NodeId dst,
                            const std::vector<LspId>& chain) {
  require(ingress < g_.num_nodes() && dst < g_.num_nodes(),
          "set_fec_chain: router out of range");
  require(!chain.empty(), "set_fec_chain: empty chain");
  NodeId at = ingress;
  for (LspId id : chain) {
    const LspRecord& rec = lsp(id);
    require(rec.ingress() == at,
            "set_fec_chain: chain is not connected (LSP does not start "
            "where the previous one ended)");
    at = rec.egress();
  }
  require(at == dst, "set_fec_chain: chain does not end at the destination");

  FecEntry entry;
  entry.chain = chain;
  // Stack is pushed bottom-first: the last LSP's ingress label goes deepest,
  // the first LSP's ingress label ends on top.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    entry.push.push_back(lsp(*it).ingress_label());
  }
  lsrs_[ingress].set_fec(dst, std::move(entry));
}

IlmEntry Network::splice_ilm(LspId id, NodeId at, std::vector<Label> labels) {
  const LspRecord& rec = lsp(id);
  const auto& nodes = rec.path.nodes();
  const auto pos = std::find(nodes.begin(), nodes.end(), at);
  require(pos != nodes.end(), "splice_ilm: router is not on the LSP");
  const std::size_t idx = static_cast<std::size_t>(pos - nodes.begin());
  const Label in_label = rec.labels[idx];
  require(in_label != kInvalidLabel,
          "splice_ilm: router holds no label for this LSP (PHP egress?)");

  const IlmEntry* old = lsrs_[at].ilm(in_label);
  require(old != nullptr, "splice_ilm: no ILM entry to splice");
  IlmEntry saved = *old;

  IlmEntry spliced;
  spliced.push = std::move(labels);
  spliced.out_interface = kLocalInterface;
  lsrs_[at].set_ilm(in_label, std::move(spliced));
  return saved;
}

void Network::restore_ilm(LspId id, NodeId at, IlmEntry original) {
  const LspRecord& rec = lsp(id);
  const auto& nodes = rec.path.nodes();
  const auto pos = std::find(nodes.begin(), nodes.end(), at);
  require(pos != nodes.end(), "restore_ilm: router is not on the LSP");
  const std::size_t idx = static_cast<std::size_t>(pos - nodes.begin());
  lsrs_[at].set_ilm(rec.labels[idx], std::move(original));
}

ForwardResult Network::send(NodeId src, NodeId dst, int ttl) {
  require(src < g_.num_nodes() && dst < g_.num_nodes(),
          "send: router out of range");
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.at = src;
  pkt.ttl = ttl;
  pkt.trace.push_back(src);

  const FecEntry* fec = lsrs_[src].fec(dst);
  if (fec == nullptr) {
    ++stats_.packets;
    ++stats_.dropped;
    ForwardResult r;
    r.status = ForwardStatus::NoFecEntry;
    r.stopped_at = src;
    r.trace = pkt.trace;
    return r;
  }
  pkt.stack.push_bottom_first(fec->push);
  return forward_loop(pkt);
}

ForwardResult Network::send_with_stack(NodeId src, NodeId dst,
                                       LabelStack stack, int ttl) {
  require(src < g_.num_nodes() && dst < g_.num_nodes(),
          "send_with_stack: router out of range");
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.at = src;
  pkt.ttl = ttl;
  pkt.stack = std::move(stack);
  pkt.trace.push_back(src);
  return forward_loop(pkt);
}

ForwardResult Network::forward_loop(Packet& pkt) {
  ++stats_.packets;
  bool looped = false;
  auto finish = [&](ForwardStatus status) {
    ForwardResult r;
    r.status = status;
    r.stopped_at = pkt.at;
    r.hops = pkt.trace.size() - 1;
    r.trace = std::move(pkt.trace);
    r.looped = looped;
    if (status == ForwardStatus::Delivered) {
      ++stats_.delivered;
    } else {
      ++stats_.dropped;
    }
    if (status == ForwardStatus::UnknownLabel) {
      ++stats_.label_misses;
      static obs::Counter misses =
          obs::MetricsRegistry::global().counter("mpls.label_miss");
      misses.inc();
    }
    if (status == ForwardStatus::TtlExpired) {
      ++stats_.ttl_expired;
      static obs::Counter expired =
          obs::MetricsRegistry::global().counter("mpls.ttl_expired");
      expired.inc();
    }
    stats_.link_hops += r.hops;
    return r;
  };

  // Loop detection: a packet that re-enters a (router, top label) state it
  // has already been in — at a link transmission, where TTL is spent — is
  // cycling: the tables are deterministic, so the same state replays the
  // same hops until TTL or a dead link stops it. Stale views make such
  // loops possible (splices installed against different snapshots), so
  // they are counted, not asserted away.
  std::vector<std::pair<graph::NodeId, Label>> seen;

  for (;;) {
    if (pkt.stack.empty()) {
      return finish(pkt.at == pkt.dst ? ForwardStatus::Delivered
                                      : ForwardStatus::StackUnderflow);
    }
    const Label top = pkt.stack.top();
    const IlmEntry* entry = lsrs_[pkt.at].ilm(top);
    if (entry == nullptr) return finish(ForwardStatus::UnknownLabel);
    ++stats_.label_ops;

    pkt.stack.pop();
    pkt.stack.push_bottom_first(entry->push);

    if (entry->out_interface == kLocalInterface) {
      continue;  // re-examine the (possibly new) top label here
    }
    if (!mask_.edge_alive(g_, entry->out_interface)) {
      return finish(ForwardStatus::LinkDown);
    }
    if (!looped) {
      const std::pair<graph::NodeId, Label> state{pkt.at, top};
      if (std::find(seen.begin(), seen.end(), state) != seen.end()) {
        looped = true;
        ++stats_.loops_detected;
        static obs::Counter loops =
            obs::MetricsRegistry::global().counter("mpls.loop_detected");
        loops.inc();
      } else {
        seen.push_back(state);
      }
    }
    if (pkt.ttl-- <= 0) return finish(ForwardStatus::TtlExpired);
    pkt.at = g_.other_end(entry->out_interface, pkt.at);
    pkt.trace.push_back(pkt.at);
  }
}

const Lsr& Network::lsr(NodeId v) const {
  require(v < lsrs_.size(), "lsr: router out of range");
  return lsrs_[v];
}

Lsr& Network::lsr_mutable(NodeId v) {
  require(v < lsrs_.size(), "lsr_mutable: router out of range");
  return lsrs_[v];
}

std::size_t Network::total_ilm_entries() const {
  std::size_t total = 0;
  for (const Lsr& r : lsrs_) total += r.ilm_size();
  return total;
}

std::size_t Network::max_ilm_entries() const {
  std::size_t best = 0;
  for (const Lsr& r : lsrs_) best = std::max(best, r.ilm_size());
  return best;
}

}  // namespace rbpc::mpls
