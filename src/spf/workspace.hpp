// Reusable, allocation-free scratch state for SPF runs.
//
// Every from-scratch Dijkstra used to allocate six O(n) arrays and a
// std::priority_queue per call; on the batch restoration hot path those
// allocations (and the O(n) zero-fills) dominate once trees are shared per
// source. SpfWorkspace keeps one set of per-node scratch records plus a
// 4-ary heap alive across runs and "clears" them in O(1) by bumping an
// epoch stamp: a record whose stamp differs from the current epoch is
// logically uninitialized and is reset lazily on first touch.
//
// A workspace is single-threaded state. Concurrent SPF runs (the batch
// engine's workers) each use their own workspace — thread_workspace()
// returns a thread-local instance, so any number of threads can run the
// kernel without sharing or locking. Workspace contents never influence
// results: every run begins with begin(n), after which all records read as
// pristine, so the kernel stays a pure function of (graph, mask, options).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace rbpc::spf {

/// Min-heap of (key, node) entries in 4-ary layout: shallower than a binary
/// heap (fewer cache-missing levels per sift) at the cost of three extra
/// comparisons per level, a good trade for the short keys used here. Pops
/// strictly in lexicographic (key, node) order — the same order
/// std::priority_queue<std::pair<Weight, NodeId>, ..., std::greater<>>
/// produces — so switching heaps cannot change Dijkstra's settle order.
class FourAryHeap {
 public:
  using Item = std::pair<graph::Weight, graph::NodeId>;

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  void clear() { items_.clear(); }

  void push(graph::Weight key, graph::NodeId node) {
    items_.emplace_back(key, node);
    sift_up(items_.size() - 1);
  }

  /// The minimum (key, node) without removing it. Precondition: !empty().
  const Item& top() const { return items_.front(); }

  /// Removes and returns the minimum (key, node). Precondition: !empty().
  Item pop() {
    const Item top = items_.front();
    items_.front() = items_.back();
    items_.pop_back();
    if (!items_.empty()) sift_down(0);
    return top;
  }

 private:
  void sift_up(std::size_t i) {
    const Item item = items_[i];
    while (i > 0) {
      const std::size_t up = (i - 1) / 4;
      if (items_[up] <= item) break;
      items_[i] = items_[up];
      i = up;
    }
    items_[i] = item;
  }

  void sift_down(std::size_t i) {
    const Item item = items_[i];
    const std::size_t n = items_.size();
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (items_[c] < items_[best]) best = c;
      }
      if (item <= items_[best]) break;
      items_[i] = items_[best];
      i = best;
    }
    items_[i] = item;
  }

  std::vector<Item> items_;
};

class SpfWorkspace {
 public:
  /// Per-node scratch record. `key` is the heap key (padded cost when the
  /// run pads, true cost otherwise; the tree derives the true cost from
  /// it); `hops` counts the path's links.
  /// `parent_key` is the key of the current parent candidate, kept so that
  /// equal-key relaxations can be tie-broken exactly like a from-scratch
  /// run (see incremental.hpp). `tie` is set when a second in-arc achieves
  /// the current key and cleared when a strictly better one arrives, so at
  /// settle it says whether the node has more than one key-achieving
  /// in-arc (the tree's unique bit, spf/tree.hpp). `in_region` holds two
  /// independent region flags: incremental repair marks its orphan region
  /// with flag 0 and the nodes whose unique bit it has re-decided with flag
  /// 1; the cut scan (replacement.hpp) marks the subtree the failed link
  /// cuts off s's tree with flag 0 and the one it cuts off t's tree with
  /// flag 1.
  struct Node {
    graph::Weight key;
    graph::Weight parent_key;
    graph::NodeId parent;
    graph::EdgeId parent_edge;
    std::uint32_t hops;
    bool settled;
    bool tie;
    std::array<bool, 2> in_region;
  };
  static_assert(sizeof(Node) == 32, "one record per half cache line");

  /// Starts a new run over `n` nodes: grows storage if needed and
  /// invalidates all records from previous runs in O(1).
  void begin(std::size_t n);

  std::size_t size() const { return nodes_.size(); }

  /// The record for `v`, lazily reset on first access in this run.
  Node& node(graph::NodeId v) {
    Node& nd = nodes_[v];
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      nd.key = graph::kUnreachable;
      nd.parent_key = graph::kUnreachable;
      nd.parent = graph::kInvalidNode;
      nd.parent_edge = graph::kInvalidEdge;
      nd.hops = 0;
      nd.settled = false;
      nd.tie = false;
      nd.in_region = {false, false};
    }
    return nd;
  }

  /// True when `v` was accessed in this run (without resetting it).
  bool touched(graph::NodeId v) const { return stamp_[v] == epoch_; }

  FourAryHeap& heap() { return heap_; }

  /// Reusable node stacks/queues for traversals (BFS, Dijkstra's settle
  /// order, orphan collection, the cut scan's two subtrees); `list` is 0 or
  /// 1. begin() empties both.
  std::vector<graph::NodeId>& scratch_nodes(std::size_t list = 0) {
    return scratch_nodes_[list];
  }

 private:
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> stamp_;
  std::vector<Node> nodes_;
  FourAryHeap heap_;
  std::array<std::vector<graph::NodeId>, 2> scratch_nodes_;
};

/// The calling thread's lazily constructed workspace. Each thread gets its
/// own, so SPF runs on a thread pool never contend.
SpfWorkspace& thread_workspace();

}  // namespace rbpc::spf
