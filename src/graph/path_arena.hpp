// Arena-backed path storage: pooled flat u32 node/edge arrays behind
// trivially-copyable PathRef handles.
//
// The restoration hot path used to materialize every route, probe prefix
// and decomposition piece as an owning graph::Path (two heap vectors per
// path). PathArena replaces that with one pair of flat vectors per engine:
// paths are appended contiguously, addressed by {offset, len} handles, and
// read through PathView without copying. clear() is O(1) and keeps
// capacity, so a warm arena serves an unbounded stream of restorations
// with zero heap allocations (the property bench/micro_perf's
// allocation-counting hook verifies).
//
// Layout: nodes_ and edges_ stay index-aligned — a stored path of L nodes
// occupies nodes_[off, off+L) and edges_[off, off+L-1), with edges_[off+L-1]
// an unused pad slot (kInvalidEdge). Spending 4 bytes per path keeps
// PathRef at two u32 fields and makes subref() a pure offset computation,
// which is what lets greedy decomposition hand out route subranges for
// free. At ~9 bytes per hop this is ~5x denser than Path (two vector
// headers + two heap blocks each), the difference between fitting a
// million-node workload in RAM or not (DESIGN.md §11).
//
// PathRefs stay valid for the arena's lifetime (until clear()/rewind());
// PathViews borrow the arena's storage and are invalidated by any growth.
// An arena is single-threaded state, like SpfWorkspace: concurrent engines
// each own one.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/types.hpp"

namespace rbpc::graph {

/// Handle to a path stored in a PathArena. `len` is the node count; 0 means
/// the empty path ("no route"), matching an empty Path/PathView.
struct PathRef {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;

  bool empty() const { return len == 0; }
  std::size_t hops() const { return len == 0 ? 0 : len - 1; }
  std::size_t num_nodes() const { return len; }

  friend bool operator==(const PathRef& a, const PathRef& b) = default;
};
static_assert(std::is_trivially_copyable_v<PathRef>,
              "PathRef must stay a plain {offset, len} value type");
static_assert(sizeof(PathRef) == 8, "PathRef must stay two packed u32s");

class PathArena {
 public:
  PathArena() = default;
  ~PathArena();

  // Copying would double-count the rbpc.mem.arena_bytes gauge; engines own
  // exactly one arena each.
  PathArena(const PathArena&) = delete;
  PathArena& operator=(const PathArena&) = delete;

  /// Drops every stored path in O(1), keeping capacity. All PathRefs are
  /// invalidated; the hot path calls this once per restoration.
  void clear();

  /// Total u32 slots in use (node count across stored paths, incl. pads).
  std::size_t size() const { return nodes_.size(); }
  /// Heap footprint (capacity, both arrays) — what rbpc.mem.arena_bytes
  /// reports.
  std::size_t capacity_bytes() const;

  // --- Storing whole paths --------------------------------------------------

  PathRef store(PathView v);
  PathRef store(const Path& p) { return store(p.view()); }
  /// A trivial (single-node, zero-hop) path.
  PathRef trivial(NodeId v);
  /// Builds a path from a node sequence via Graph::cheapest_arc (the arena
  /// counterpart of Path::from_nodes). Throws NoRouteError when some
  /// consecutive pair has no surviving edge.
  PathRef from_nodes(const Graph& g, std::span<const NodeId> nodes,
                     const FailureMask& mask = FailureMask::none());

  // --- Reading --------------------------------------------------------------

  /// View of a stored path. Invalidated by any subsequent store/commit.
  PathView view(PathRef r) const;
  /// Subrange handle over node indices [from, to] of `r` — no storage is
  /// consumed; the result aliases r's slots. Precondition: !r.empty(),
  /// from <= to < r.len.
  PathRef subref(PathRef r, std::size_t from, std::size_t to) const;
  /// Owning, validated Path (the legacy conversion boundary).
  Path to_path(const Graph& g, PathRef r) const;

  // --- Incremental builder (one open path at a time) ------------------------
  //
  // start() opens a path; add_node/add_edge append raw elements (a valid
  // path interleaves them: n0 e0 n1 e1 ... nL); add_hop appends edge+node.
  // commit() closes it and returns the handle; commit_reversed() reverses
  // the open range first — tree extraction writes target -> source and
  // flips once, in place. abandon() discards the open range.

  void start();
  void add_node(NodeId v);
  void add_edge(EdgeId e);
  void add_hop(EdgeId e, NodeId to) {
    add_edge(e);
    add_node(to);
  }
  PathRef commit();
  PathRef commit_reversed();
  void abandon();

  // --- Serialization boundary (src/persist snapshots) -----------------------
  //
  // A snapshot persists paths in the arena's in-memory layout: two
  // index-aligned raw arrays (pad slots included) plus the PathRef handles.
  // adopt() replaces this arena's contents with such arrays so recovery can
  // view()/to_path() the same refs.

  /// Replaces the arena contents with exported raw arrays. Structural
  /// validation only (index-aligned lengths, no open path); per-path
  /// validity is checked by to_path() against the graph, as recovery does.
  /// Throws PreconditionError on misaligned input.
  void adopt(std::vector<NodeId> nodes, std::vector<EdgeId> edges);

  // --- Checkpointing --------------------------------------------------------
  //
  // Probe-and-discard callers (overlay decomposition's candidate scans)
  // mark the arena, store trial paths, and rewind the ones they reject.

  struct Mark {
    std::uint32_t size = 0;
  };
  Mark mark() const;
  /// Truncates back to `m`, invalidating every PathRef issued after it.
  /// Precondition: no open builder path.
  void rewind(Mark m);

 private:
  void sync_gauge();

  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
  static constexpr std::uint32_t kClosed = ~std::uint32_t{0};
  std::uint32_t open_ = kClosed;  ///< offset of the open path, kClosed if none
  std::size_t gauge_bytes_ = 0;   ///< capacity last reported to the gauge
};

}  // namespace rbpc::graph
