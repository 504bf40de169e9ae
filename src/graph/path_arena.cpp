#include "graph/path_arena.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::graph {

namespace {

obs::Gauge& arena_bytes_gauge() {
  static obs::Gauge g =
      obs::MetricsRegistry::global().gauge("rbpc.mem.arena_bytes");
  return g;
}

}  // namespace

PathArena::~PathArena() {
  arena_bytes_gauge().add(-static_cast<std::int64_t>(gauge_bytes_));
}

void PathArena::sync_gauge() {
  const std::size_t now = capacity_bytes();
  if (now != gauge_bytes_) {
    arena_bytes_gauge().add(static_cast<std::int64_t>(now) -
                            static_cast<std::int64_t>(gauge_bytes_));
    gauge_bytes_ = now;
  }
}

void PathArena::clear() {
  nodes_.clear();
  edges_.clear();
  open_ = kClosed;
}

std::size_t PathArena::capacity_bytes() const {
  return nodes_.capacity() * sizeof(NodeId) +
         edges_.capacity() * sizeof(EdgeId);
}

void PathArena::start() {
  require(open_ == kClosed, "PathArena::start: a path is already open");
  RBPC_ASSERT(nodes_.size() == edges_.size());
  require(nodes_.size() <= kClosed - 1, "PathArena: arena full");
  open_ = static_cast<std::uint32_t>(nodes_.size());
}

void PathArena::add_node(NodeId v) {
  RBPC_ASSERT(open_ != kClosed);
  nodes_.push_back(v);
}

void PathArena::add_edge(EdgeId e) {
  RBPC_ASSERT(open_ != kClosed);
  edges_.push_back(e);
}

PathRef PathArena::commit() {
  require(open_ != kClosed, "PathArena::commit: no open path");
  const std::uint32_t off = open_;
  const std::size_t len = nodes_.size() - off;
  require(len >= 1 && edges_.size() - off == len - 1,
          "PathArena::commit: open path must hold L nodes and L-1 edges");
  edges_.push_back(kInvalidEdge);  // pad slot keeping the arrays aligned
  open_ = kClosed;
  sync_gauge();
  return PathRef{off, static_cast<std::uint32_t>(len)};
}

PathRef PathArena::commit_reversed() {
  require(open_ != kClosed, "PathArena::commit_reversed: no open path");
  const std::size_t len = nodes_.size() - open_;
  require(len >= 1 && edges_.size() - open_ == len - 1,
          "PathArena::commit_reversed: open path must hold L nodes and L-1 "
          "edges");
  std::reverse(nodes_.begin() + open_, nodes_.end());
  std::reverse(edges_.begin() + open_, edges_.end());
  return commit();
}

void PathArena::abandon() {
  require(open_ != kClosed, "PathArena::abandon: no open path");
  nodes_.resize(open_);
  edges_.resize(open_);
  open_ = kClosed;
}

PathRef PathArena::store(PathView v) {
  if (v.empty()) return PathRef{};
  start();
  nodes_.insert(nodes_.end(), v.nodes().begin(), v.nodes().end());
  edges_.insert(edges_.end(), v.edges().begin(), v.edges().end());
  return commit();
}

PathRef PathArena::trivial(NodeId v) {
  start();
  add_node(v);
  return commit();
}

PathRef PathArena::from_nodes(const Graph& g, std::span<const NodeId> nodes,
                              const FailureMask& mask) {
  if (nodes.empty()) return PathRef{};
  start();
  add_node(nodes.front());
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const EdgeId best = g.cheapest_arc(nodes[i - 1], nodes[i], mask);
    if (best == kInvalidEdge) {
      abandon();
      throw NoRouteError(
          "PathArena::from_nodes: no surviving edge between nodes " +
          std::to_string(nodes[i - 1]) + " and " + std::to_string(nodes[i]));
    }
    add_hop(best, nodes[i]);
  }
  return commit();
}

PathView PathArena::view(PathRef r) const {
  if (r.empty()) return PathView{};
  RBPC_ASSERT(static_cast<std::size_t>(r.offset) + r.len <= nodes_.size());
  return PathView{{nodes_.data() + r.offset, r.len},
                  {edges_.data() + r.offset, r.len - 1}};
}

PathRef PathArena::subref(PathRef r, std::size_t from, std::size_t to) const {
  require(!r.empty() && from <= to && to < r.len,
          "PathArena::subref: bad range");
  return PathRef{static_cast<std::uint32_t>(r.offset + from),
                 static_cast<std::uint32_t>(to - from + 1)};
}

Path PathArena::to_path(const Graph& g, PathRef r) const {
  return view(r).to_path(g);
}

void PathArena::adopt(std::vector<NodeId> nodes, std::vector<EdgeId> edges) {
  require(open_ == kClosed, "PathArena::adopt: a path is open");
  require(nodes.size() == edges.size(),
          "PathArena::adopt: arrays must be index-aligned");
  require(nodes.size() <= kClosed - 1, "PathArena::adopt: arena overflow");
  nodes_ = std::move(nodes);
  edges_ = std::move(edges);
  sync_gauge();
}

PathArena::Mark PathArena::mark() const {
  require(open_ == kClosed, "PathArena::mark: a path is open");
  return Mark{static_cast<std::uint32_t>(nodes_.size())};
}

void PathArena::rewind(Mark m) {
  require(open_ == kClosed, "PathArena::rewind: a path is open");
  require(m.size <= nodes_.size(), "PathArena::rewind: mark from the future");
  nodes_.resize(m.size);
  edges_.resize(m.size);
}

}  // namespace rbpc::graph
