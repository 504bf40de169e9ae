#include "graph/path.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/error.hpp"

namespace rbpc::graph {

NodeId PathView::source() const {
  require(!empty(), "PathView::source on empty view");
  return nodes_.front();
}

NodeId PathView::target() const {
  require(!empty(), "PathView::target on empty view");
  return nodes_.back();
}

NodeId PathView::node(std::size_t i) const {
  require(i < nodes_.size(), "PathView::node: index out of range");
  return nodes_[i];
}

EdgeId PathView::edge(std::size_t i) const {
  require(i < edges_.size(), "PathView::edge: index out of range");
  return edges_[i];
}

Weight PathView::cost(const Graph& g) const {
  Weight total = 0;
  for (EdgeId e : edges_) total += g.weight(e);
  return total;
}

bool PathView::alive(const Graph& g, const FailureMask& mask) const {
  for (NodeId v : nodes_) {
    if (!mask.node_alive(v)) return false;
  }
  return std::all_of(edges_.begin(), edges_.end(),
                     [&](EdgeId e) { return mask.edge_alive(g, e); });
}

PathView PathView::subview(std::size_t from, std::size_t to) const {
  require(from <= to && to < nodes_.size(), "PathView::subview: bad range");
  return PathView{nodes_.subspan(from, to - from + 1),
                  edges_.subspan(from, to - from)};
}

Path PathView::to_path(const Graph& g) const {
  return Path::from_parts(g, std::vector<NodeId>(nodes_.begin(), nodes_.end()),
                          std::vector<EdgeId>(edges_.begin(), edges_.end()));
}

bool operator==(const PathView& a, const PathView& b) {
  return std::equal(a.nodes_.begin(), a.nodes_.end(), b.nodes_.begin(),
                    b.nodes_.end()) &&
         std::equal(a.edges_.begin(), a.edges_.end(), b.edges_.begin(),
                    b.edges_.end());
}

Path Path::trivial(NodeId v) {
  Path p;
  p.nodes_.push_back(v);
  return p;
}

Path Path::from_nodes(const Graph& g, const std::vector<NodeId>& nodes,
                      const FailureMask& mask) {
  if (nodes.empty()) return Path{};
  Path p = Path::trivial(nodes.front());
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const NodeId from = nodes[i - 1];
    const NodeId to = nodes[i];
    const EdgeId best = g.cheapest_arc(from, to, mask);
    if (best == kInvalidEdge) {
      throw NoRouteError("Path::from_nodes: no surviving edge between nodes " +
                         std::to_string(from) + " and " + std::to_string(to));
    }
    p.extend(g, best, to);
  }
  return p;
}

Path Path::from_parts(const Graph& g, std::vector<NodeId> nodes,
                      std::vector<EdgeId> edges) {
  if (nodes.empty()) {
    require(edges.empty(), "Path::from_parts: edges without nodes");
    return Path{};
  }
  require(edges.size() + 1 == nodes.size(),
          "Path::from_parts: need exactly one fewer edge than node");
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = g.edge(edges[i]);
    const bool forward = e.u == nodes[i] && e.v == nodes[i + 1];
    const bool backward = !g.directed() && e.v == nodes[i] && e.u == nodes[i + 1];
    require(forward || backward,
            "Path::from_parts: edge does not join consecutive nodes");
  }
  Path p;
  p.nodes_ = std::move(nodes);
  p.edges_ = std::move(edges);
  return p;
}

NodeId Path::source() const {
  require(!empty(), "Path::source on empty path");
  return nodes_.front();
}

NodeId Path::target() const {
  require(!empty(), "Path::target on empty path");
  return nodes_.back();
}

NodeId Path::node(std::size_t i) const {
  require(i < nodes_.size(), "Path::node: index out of range");
  return nodes_[i];
}

EdgeId Path::edge(std::size_t i) const {
  require(i < edges_.size(), "Path::edge: index out of range");
  return edges_[i];
}

Weight Path::cost(const Graph& g) const {
  Weight total = 0;
  for (EdgeId e : edges_) total += g.weight(e);
  return total;
}

bool Path::alive(const Graph& g, const FailureMask& mask) const {
  for (NodeId v : nodes_) {
    if (!mask.node_alive(v)) return false;
  }
  return std::all_of(edges_.begin(), edges_.end(),
                     [&](EdgeId e) { return mask.edge_alive(g, e); });
}

bool Path::simple() const {
  std::unordered_set<NodeId> seen(nodes_.begin(), nodes_.end());
  return seen.size() == nodes_.size();
}

bool Path::uses_edge(EdgeId e) const {
  return std::find(edges_.begin(), edges_.end(), e) != edges_.end();
}

bool Path::visits_node(NodeId v) const {
  return std::find(nodes_.begin(), nodes_.end(), v) != nodes_.end();
}

void Path::extend(const Graph& g, EdgeId e, NodeId to) {
  require(!empty(), "Path::extend on empty path");
  const Edge& ed = g.edge(e);
  const NodeId from = target();
  const bool forward = ed.u == from && ed.v == to;
  const bool backward = !g.directed() && ed.v == from && ed.u == to;
  require(forward || backward, "Path::extend: edge does not continue the path");
  nodes_.push_back(to);
  edges_.push_back(e);
}

Path Path::concat(const Path& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  require(target() == other.source(),
          "Path::concat: second path must start where the first ends");
  Path out = *this;
  out.append(other);
  return out;
}

void Path::reserve(std::size_t hops) {
  nodes_.reserve(hops + 1);
  edges_.reserve(hops);
}

void Path::append(const Path& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  require(target() == other.source(),
          "Path::append: second path must start where the first ends");
  nodes_.insert(nodes_.end(), other.nodes_.begin() + 1, other.nodes_.end());
  edges_.insert(edges_.end(), other.edges_.begin(), other.edges_.end());
}

Path Path::subpath(std::size_t from, std::size_t to) const {
  require(from <= to && to < nodes_.size(), "Path::subpath: bad range");
  Path out;
  out.nodes_.assign(nodes_.begin() + static_cast<std::ptrdiff_t>(from),
                    nodes_.begin() + static_cast<std::ptrdiff_t>(to) + 1);
  out.edges_.assign(edges_.begin() + static_cast<std::ptrdiff_t>(from),
                    edges_.begin() + static_cast<std::ptrdiff_t>(to));
  return out;
}

Path Path::suffix_from(std::size_t from) const {
  require(from < nodes_.size(), "Path::suffix_from: index out of range");
  return subpath(from, nodes_.size() - 1);
}

Path Path::reversed() const {
  Path out = *this;
  std::reverse(out.nodes_.begin(), out.nodes_.end());
  std::reverse(out.edges_.begin(), out.edges_.end());
  return out;
}

std::string Path::to_string() const {
  if (empty()) return "(no route)";
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i) os << " -> ";
    os << nodes_[i];
  }
  return os.str();
}

}  // namespace rbpc::graph
