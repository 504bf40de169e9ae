// Differential tests for the single-failure rung (spf/replacement.hpp).
//
// The contract is bit-identity: whenever replacement_route answers, its
// route equals the tree path repair_tree produces under the one-link mask
// — same nodes, same edges — and a "no route" answer means repair leaves
// the destination unreachable. The sweep covers the shared test corpus and
// the ISP and AS Table-1 stand-ins, every link on sampled canonical paths,
// both metrics and all three tiebreak policies. Guard fallbacks
// (kUnproven) are allowed and reported per policy; under Restorable on
// ISP hops, where padding leaves many ties, they must actually occur, so
// the guard is exercised and not merely present. The sweeps also count,
// independently of the kernel, the queries whose smaller cut is t's side
// and those where only s's side applies (canonical(t, s) is not the
// reverse of canonical(s, t)), and require both kinds to occur. Every
// answer must also have walked the side whose cut-off subtree has fewer
// arcs, counted here by parent chains: the output is the same from either
// side, so only this check sees the side choice. One test runs the rung
// from several threads over a shared TreeCache, as the service does; the
// sanitizer CI jobs run this binary on its own for it.
//
// Each fallback is also checked by brute force on the repaired tree: when
// the route is unique in G - e all the same, the refusal is counted as a
// false one (reported, not asserted: the guard reads unfailed trees, so a
// second achiever through the failed link refuses a unique route).
//
// The cut rung reads two facts per tree node that the SPF kernels store in
// its node word (spf/tree.hpp): subtree arcs and the unique bit. The
// NodeWord tests check every producer against references computed here
// from scratch — explicit child lists, and the per-node achiever count the
// rung's guard used to scan (sole_achiever).
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "spf/bulk.hpp"
#include "spf/incremental.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "spf/replacement.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"
#include "spf/tree_cache.hpp"
#include "spf/workspace.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rbpc::spf {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using graph::Path;

constexpr std::array<TiebreakPolicy, kNumTiebreakPolicies> kPolicies = {
    TiebreakPolicy::Arbitrary, TiebreakPolicy::Lexicographic,
    TiebreakPolicy::Restorable};
constexpr std::array<Metric, 2> kMetrics = {Metric::Hops, Metric::Weighted};

SpfOptions padded(Metric metric, TiebreakPolicy policy) {
  return SpfOptions{.metric = metric, .padded = true, .tiebreak = policy};
}

std::string flavor(Metric metric, TiebreakPolicy policy) {
  return std::string(metric == Metric::Hops ? "hops" : "weighted") + "/" +
         to_string(policy);
}

struct Tally {
  std::size_t queries = 0;
  std::size_t intact = 0;
  std::size_t cut = 0;
  std::size_t no_route = 0;
  std::size_t unproven = 0;
  std::size_t false_refusals = 0;  ///< unproven, yet unique in G - e
  std::size_t t_smaller = 0;   ///< |D_t| < |D_s|: t's cut is smaller
  std::size_t asymmetric = 0;  ///< e on canonical(s,t), not on canonical(t,s)

  void add(const Tally& o) {
    queries += o.queries;
    intact += o.intact;
    cut += o.cut;
    no_route += o.no_route;
    unproven += o.unproven;
    false_refusals += o.false_refusals;
    t_smaller += o.t_smaller;
    asymmetric += o.asymmetric;
  }
};

/// The number of v's in-arcs alive under `mask` that attain v's key in
/// `tree` (the tree's own parent arc always does).
int achievers(const Graph& g, const ShortestPathTree& tree, NodeId v,
              const FailureMask& mask) {
  int count = 0;
  for (const graph::Arc& a : g.arcs(v)) {
    if (!mask.edge_alive(g, a.edge) || !tree.reachable(a.to)) continue;
    const graph::Weight step =
        tree.padded() ? padded_weight(g, a.edge, tree.metric(), tree.tiebreak())
                      : metric_weight(g, a.edge, tree.metric());
    count += tree.key(a.to) + step == tree.key(v);
  }
  return count;
}

/// The cut rung's former guard, sole_achiever along a chain: true when
/// every node on the tree path to v except the source has exactly one
/// achiever, so the tree path is the only shortest path to v under `mask`.
bool sole_achiever_chain(const Graph& g, const ShortestPathTree& tree,
                         NodeId v, const FailureMask& mask) {
  for (NodeId u = v; u != tree.source(); u = tree.parent(u)) {
    if (achievers(g, tree, u, mask) != 1) return false;
  }
  return true;
}

/// The node on `tree`'s path to `to` whose parent link is `e`, if any.
NodeId cut_below(const ShortestPathTree& tree, NodeId to, EdgeId e) {
  for (NodeId v = to; v != tree.source(); v = tree.parent(v)) {
    if (tree.parent_edge(v) == e) return v;
  }
  return graph::kInvalidNode;
}

/// The size of `root`'s subtree in `tree`, counted by parent chains so it
/// shares no code with the kernel's walk.
std::size_t subtree_size(const Graph& g, const ShortestPathTree& tree,
                         NodeId root) {
  std::size_t size = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!tree.reachable(v)) continue;
    NodeId u = v;
    while (u != root && u != tree.source()) u = tree.parent(u);
    size += u == root;
  }
  return size;
}

/// The degree sum over `root`'s subtree in `tree` — what a walk and a scan
/// of that subtree read — counted by parent chains like subtree_size.
std::size_t subtree_arcs_by_chains(const Graph& g, const ShortestPathTree& tree,
                                   NodeId root) {
  std::size_t arcs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!tree.reachable(v)) continue;
    NodeId u = v;
    while (u != root && u != tree.source()) u = tree.parent(u);
    if (u == root) arcs += g.degree(v);
  }
  return arcs;
}

/// Tallies which cut the kernel is expected to scan for the query (s, t,
/// e): D_t when it is smaller than D_s, D_s alone when e lies on
/// canonical(s, t) but not on canonical(t, s).
void tally_sides(const Graph& g, const ShortestPathTree& from_s,
                 const ShortestPathTree& from_t, EdgeId e, Tally& tally) {
  const NodeId s = from_s.source();
  const NodeId t = from_t.source();
  if (s == t || !from_s.reachable(t)) return;
  const NodeId c_s = cut_below(from_s, t, e);
  if (c_s == graph::kInvalidNode) return;
  const NodeId c_t = cut_below(from_t, s, e);
  if (c_t == graph::kInvalidNode) {
    ++tally.asymmetric;
    return;
  }
  if (subtree_size(g, from_t, c_t) < subtree_size(g, from_s, c_s)) {
    ++tally.t_smaller;
  }
}

/// Runs one (s, t, e) query and checks any answer against `repaired`, the
/// repair_tree result for s under the mask {e}.
void check_query(const Graph& g, const ShortestPathTree& from_s,
                 const ShortestPathTree& from_t, EdgeId e,
                 const ShortestPathTree& repaired, Tally& tally,
                 const std::string& ctx) {
  const NodeId t = from_t.source();
  Path got = Path::trivial(t);  // sentinel: kUnproven must leave it alone
  const ReplacementKind kind =
      replacement_route(g, from_s, from_t, e, thread_workspace(), got);
  ++tally.queries;
  const bool on_path =
      from_s.reachable(t) && from_s.path_to(g, t).uses_edge(e);
  // The kernel walks the side whose cut-off subtree has fewer arcs first
  // (D_s on a tie), so when both cuts exist and it answered, that side's
  // workspace list (0 for D_s, 1 for D_t) holds its walk.
  const NodeId s = from_s.source();
  if ((kind == ReplacementKind::kCut || kind == ReplacementKind::kNoRoute) &&
      from_s.reachable(t)) {
    const NodeId c_s = cut_below(from_s, t, e);
    const NodeId c_t = cut_below(from_t, s, e);
    if (c_s != graph::kInvalidNode && c_t != graph::kInvalidNode) {
      const bool s_first = subtree_arcs_by_chains(g, from_s, c_s) <=
                           subtree_arcs_by_chains(g, from_t, c_t);
      EXPECT_FALSE(thread_workspace().scratch_nodes(s_first ? 0 : 1).empty())
          << ctx << ": the cheaper side was not walked";
    }
  }
  switch (kind) {
    case ReplacementKind::kUnproven:
      ++tally.unproven;
      tally.false_refusals +=
          repaired.reachable(t) &&
          sole_achiever_chain(g, repaired, t, FailureMask::of_edges({e}));
      EXPECT_TRUE(on_path) << ctx << ": an intact path needs no proof";
      EXPECT_EQ(got, Path::trivial(t)) << ctx << ": kUnproven wrote a route";
      return;
    case ReplacementKind::kNoRoute:
      ++tally.no_route;
      EXPECT_FALSE(repaired.reachable(t)) << ctx << ": repair found a route";
      EXPECT_TRUE(got.empty()) << ctx;
      return;
    case ReplacementKind::kIntact:
      ++tally.intact;
      EXPECT_FALSE(on_path) << ctx << ": the failed link is on the path";
      break;
    case ReplacementKind::kCut:
      ++tally.cut;
      EXPECT_TRUE(on_path) << ctx << ": the cut scan ran for an intact path";
      break;
  }
  ASSERT_TRUE(repaired.reachable(t)) << ctx << ": repair found no route";
  const Path want = repaired.path_to(g, t);
  EXPECT_EQ(got.nodes(), want.nodes()) << ctx << ": nodes differ";
  EXPECT_EQ(got.edges(), want.edges()) << ctx << ": edges differ";
}

void report(const std::string& what, const std::string& flavor_name,
            const Tally& t) {
  std::printf(
      "[ replacement ] %-14s %-24s queries %6zu  intact %6zu  cut %6zu  "
      "no-route %4zu  fallback %4zu (false %4zu)  t-smaller %5zu  "
      "asymmetric %4zu\n",
      what.c_str(), flavor_name.c_str(), t.queries, t.intact, t.cut,
      t.no_route, t.unproven, t.false_refusals, t.t_smaller, t.asymmetric);
}

/// Unfailed trees by source, computed on first use.
class Trees {
 public:
  Trees(const Graph& g, SpfOptions options) : g_(g), options_(options) {}
  const ShortestPathTree& at(NodeId v) {
    std::unique_ptr<ShortestPathTree>& slot = trees_[v];
    if (slot == nullptr) {
      slot = std::make_unique<ShortestPathTree>(
          shortest_tree(g_, v, FailureMask::none(), options_));
    }
    return *slot;
  }

 private:
  const Graph& g_;
  SpfOptions options_;
  std::map<NodeId, std::unique_ptr<ShortestPathTree>> trees_;
};

/// Every link on canonical(s, t) for `pairs` sampled (s, t), each failed on
/// its own, plus one off-path link per pair.
Tally sweep_sampled_paths(const Graph& g, SpfOptions options,
                          std::size_t pairs, std::uint64_t seed,
                          const std::string& ctx) {
  Trees trees(g, options);
  SpfWorkspace ws;
  Rng rng(seed);
  Tally tally;
  for (std::size_t p = 0; p < pairs; ++p) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (t == s) t = static_cast<NodeId>((t + 1) % g.num_nodes());
    const ShortestPathTree& from_s = trees.at(s);
    if (!from_s.reachable(t)) continue;
    std::vector<EdgeId> links = from_s.path_to(g, t).edges();
    links.push_back(static_cast<EdgeId>(rng.below(g.num_edges())));
    for (const EdgeId e : links) {
      const ShortestPathTree repaired = repair_tree(
          g, from_s, FailureMask::of_edges({e}), options, ws);
      tally_sides(g, from_s, trees.at(t), e, tally);
      check_query(g, from_s, trees.at(t), e, repaired, tally,
                  ctx + " s=" + std::to_string(s) + " t=" +
                      std::to_string(t) + " e=" + std::to_string(e));
    }
  }
  return tally;
}

// ---------------------------------------------------------------------------
// Differential sweeps.
// ---------------------------------------------------------------------------

TEST(ReplacementRoute, MatchesRepairAcrossCorpus) {
  // Up to 8 sources per topology, every link on each source's tree (so
  // every canonical path's links), every destination.
  const std::vector<testing::TopoCase> cases = testing::corpus();
  for (const Metric metric : kMetrics) {
    for (const TiebreakPolicy policy : kPolicies) {
      const SpfOptions options = padded(metric, policy);
      Tally total;
      SpfWorkspace ws;
      for (const testing::TopoCase& c : cases) {
        const Graph& g = c.g;
        std::vector<ShortestPathTree> trees;
        trees.reserve(g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          trees.push_back(shortest_tree(g, v, FailureMask::none(), options));
        }
        const std::size_t stride = (g.num_nodes() + 7) / 8;
        for (NodeId s = 0; s < g.num_nodes(); s += stride) {
          for (NodeId c_node = 0; c_node < g.num_nodes(); ++c_node) {
            const EdgeId e = trees[s].parent_edge(c_node);
            if (e == graph::kInvalidEdge) continue;
            const ShortestPathTree repaired = repair_tree(
                g, trees[s], FailureMask::of_edges({e}), options, ws);
            for (NodeId t = 0; t < g.num_nodes(); ++t) {
              if (t == s) continue;
              tally_sides(g, trees[s], trees[t], e, total);
              check_query(g, trees[s], trees[t], e, repaired, total,
                          c.name + " " + flavor(metric, policy) +
                              " s=" + std::to_string(s) +
                              " t=" + std::to_string(t) +
                              " e=" + std::to_string(e));
            }
          }
        }
      }
      report("corpus", flavor(metric, policy), total);
      EXPECT_GT(total.cut, 0u) << flavor(metric, policy);
      EXPECT_GT(total.intact, 0u) << flavor(metric, policy);
      EXPECT_GT(total.t_smaller, 0u) << flavor(metric, policy);
    }
  }
}

TEST(ReplacementRoute, MatchesRepairOnIspAndExercisesTheGuard) {
  Rng topo_rng(11);
  const Graph g = topo::make_isp_like(topo_rng);
  std::map<std::string, Tally> by_policy;
  Tally restorable_hops;
  for (const Metric metric : kMetrics) {
    for (const TiebreakPolicy policy : kPolicies) {
      const Tally t = sweep_sampled_paths(g, padded(metric, policy), 120, 21,
                                          "isp " + flavor(metric, policy));
      report("isp", flavor(metric, policy), t);
      by_policy[to_string(policy)].add(t);
      if (metric == Metric::Hops && policy == TiebreakPolicy::Restorable) {
        restorable_hops = t;
      }
      EXPECT_GT(t.cut, 0u) << flavor(metric, policy);
      EXPECT_GT(t.t_smaller, 0u) << flavor(metric, policy);
    }
  }
  for (const auto& [policy, t] : by_policy) report("isp (all)", policy, t);
  // Restorable spends most of the salt range on its hop bias, so padded
  // ties are common on ISP hops: the guard must have refused some routes,
  // and some canonical paths are not the reverse of their twins, which
  // leaves only D_s to scan.
  EXPECT_GT(restorable_hops.unproven, 0u);
  EXPECT_GT(by_policy[to_string(TiebreakPolicy::Restorable)].asymmetric, 0u);
}

TEST(ReplacementRoute, MatchesRepairOnAs) {
  Rng topo_rng(12);
  const Graph g = topo::make_as_like(topo_rng);
  for (const Metric metric : kMetrics) {
    for (const TiebreakPolicy policy : kPolicies) {
      const Tally t = sweep_sampled_paths(g, padded(metric, policy), 12, 31,
                                          "as " + flavor(metric, policy));
      report("as", flavor(metric, policy), t);
      EXPECT_GT(t.cut, 0u) << flavor(metric, policy);
      EXPECT_GT(t.t_smaller, 0u) << flavor(metric, policy);
    }
  }
}

TEST(ReplacementRoute, ConcurrentQueriesOverSharedTreeStore) {
  // The service's shape: workers read both trees from one shared unfailed
  // TreeCache — racing the first publish of each tree — and run the rung
  // on their thread workspaces. Every answer must equal the serial one.
  Rng topo_rng(14);
  const Graph g = topo::make_isp_like(topo_rng);
  const SpfOptions options = padded(Metric::Hops, TiebreakPolicy::Arbitrary);
  struct Query {
    NodeId s, t;
    EdgeId e;
    ReplacementKind kind;
    Path route;
  };
  std::vector<Query> queries;
  {
    Trees trees(g, options);
    Rng rng(15);
    while (queries.size() < 400) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (s == t) continue;
      const Path path = trees.at(s).path_to(g, t);
      Query q{s, t, path.edge(rng.below(path.hops())), {}, {}};
      q.kind = replacement_route(g, trees.at(s), trees.at(t), q.e,
                                 thread_workspace(), q.route);
      queries.push_back(std::move(q));
    }
  }
  TreeCache store(g, FailureMask{}, options);
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[(i + w * 97) % queries.size()];
        const auto from_s = store.tree(q.s);
        const auto from_t = store.tree(q.t);
        Path route;
        const ReplacementKind kind = replacement_route(
            g, *from_s, *from_t, q.e, thread_workspace(), route);
        if (kind != q.kind || (kind != ReplacementKind::kUnproven &&
                               route != q.route)) {
          ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0u) << "thread " << w;
  }
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

/// 0 - 1 - 2 - 3 square with a 3 - 4 tail: 3 - 4 is a bridge.
Graph square_with_tail() {
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);  // e0
  b.add_edge(1, 2);  // e1
  b.add_edge(2, 3);  // e2
  b.add_edge(3, 0);  // e3
  b.add_edge(3, 4);  // e4 (bridge)
  return b.build();
}

TEST(ReplacementRoute, LinkOffTheSourceTreeKeepsTheTreePath) {
  const Graph g = square_with_tail();
  const SpfOptions options = padded(Metric::Hops, TiebreakPolicy::Arbitrary);
  const ShortestPathTree from_s = shortest_tree(g, 0, {}, options);
  const ShortestPathTree from_t = shortest_tree(g, 2, {}, options);
  // The square has one non-tree link in 0's tree; failing it changes
  // nothing.
  EdgeId off = graph::kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    bool tree_link = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      tree_link = tree_link || from_s.parent_edge(v) == e;
    }
    if (!tree_link) off = e;
  }
  ASSERT_NE(off, graph::kInvalidEdge);
  Path got;
  EXPECT_EQ(replacement_route(g, from_s, from_t, off, thread_workspace(), got),
            ReplacementKind::kIntact);
  EXPECT_EQ(got, from_s.path_to(g, 2));
}

TEST(ReplacementRoute, TargetOutsideTheOrphanedSubtreeKeepsTheTreePath) {
  const Graph g = square_with_tail();
  const SpfOptions options = padded(Metric::Hops, TiebreakPolicy::Arbitrary);
  const ShortestPathTree from_s = shortest_tree(g, 0, {}, options);
  // 0 -> 1 and 0 -> 3 are both tree links of 0; a destination below one
  // of them is untouched by failing the other.
  const EdgeId cut = from_s.parent_edge(1);
  ASSERT_EQ(from_s.parent(1), 0u);
  const ShortestPathTree from_t = shortest_tree(g, 4, {}, options);
  ASSERT_FALSE(from_s.path_to(g, 4).uses_edge(cut));
  Path got;
  EXPECT_EQ(replacement_route(g, from_s, from_t, cut, thread_workspace(), got),
            ReplacementKind::kIntact);
  EXPECT_EQ(got, from_s.path_to(g, 4));
}

TEST(ReplacementRoute, BridgeFailureHasNoRoute) {
  const Graph g = square_with_tail();
  const SpfOptions options =
      padded(Metric::Weighted, TiebreakPolicy::Lexicographic);
  const ShortestPathTree from_s = shortest_tree(g, 1, {}, options);
  const ShortestPathTree from_t = shortest_tree(g, 4, {}, options);
  Path got = Path::trivial(4);
  EXPECT_EQ(replacement_route(g, from_s, from_t, 4, thread_workspace(), got),
            ReplacementKind::kNoRoute);
  EXPECT_TRUE(got.empty());
  SpfWorkspace ws;
  EXPECT_FALSE(repair_tree(g, from_s, FailureMask::of_edges({4}), options, ws)
                   .reachable(4));
}

TEST(ReplacementRoute, RingFailureRoutesTheOtherWayRound) {
  const Graph g = topo::make_ring(6);
  const SpfOptions options = padded(Metric::Hops, TiebreakPolicy::Arbitrary);
  const ShortestPathTree from_s = shortest_tree(g, 0, {}, options);
  const ShortestPathTree from_t = shortest_tree(g, 1, {}, options);
  const EdgeId direct = from_s.parent_edge(1);
  ASSERT_EQ(from_s.parent(1), 0u);
  Path got;
  ASSERT_EQ(
      replacement_route(g, from_s, from_t, direct, thread_workspace(), got),
      ReplacementKind::kCut);
  EXPECT_EQ(got.hops(), 5u);
  EXPECT_FALSE(got.uses_edge(direct));
  EXPECT_EQ(got.source(), 0u);
  EXPECT_EQ(got.target(), 1u);
}

TEST(ReplacementRoute, LinkNextToTheSourceMatchesRepair) {
  // s = 0 hangs off the corner of a 4 x 4 grid (nodes 1..16) by one link,
  // with an 8-hop detour (nodes 17..23) to the far corner. Every grid node's
  // canonical path from s starts with the corner link, so failing it cuts
  // the whole grid off s's tree (D_s), while t's tree loses only the nodes
  // it reached through s (D_t): the t-side scan must carry the answer.
  constexpr NodeId kSide = 4;
  graph::GraphBuilder b(24);
  const auto grid = [](NodeId r, NodeId c) { return 1 + r * kSide + c; };
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      if (c + 1 < kSide) b.add_edge(grid(r, c), grid(r, c + 1));
      if (r + 1 < kSide) b.add_edge(grid(r, c), grid(r + 1, c));
    }
  }
  const EdgeId first_hop = b.add_edge(0, grid(0, 0));
  NodeId prev = 0;
  for (NodeId v = 17; v <= 23; ++v) {
    b.add_edge(prev, v);
    prev = v;
  }
  b.add_edge(prev, grid(kSide - 1, kSide - 1));
  const Graph g = b.build();

  for (const Metric metric : kMetrics) {
    for (const TiebreakPolicy policy : kPolicies) {
      const SpfOptions options = padded(metric, policy);
      const ShortestPathTree from_s = shortest_tree(g, 0, {}, options);
      ASSERT_EQ(subtree_size(g, from_s, grid(0, 0)), kSide * kSide);
      SpfWorkspace ws;
      const ShortestPathTree repaired = repair_tree(
          g, from_s, FailureMask::of_edges({first_hop}), options, ws);
      Tally tally;
      std::size_t short_walks = 0;
      for (NodeId t = grid(0, 0); t <= grid(kSide - 1, kSide - 1); ++t) {
        const ShortestPathTree from_t = shortest_tree(g, t, {}, options);
        tally_sides(g, from_s, from_t, first_hop, tally);
        check_query(g, from_s, from_t, first_hop, repaired, tally,
                    flavor(metric, policy) + " t=" + std::to_string(t));
        // The workspace's list 0 holds the D_s nodes the kernel walked: a
        // query D_t answered never walks D_s in full.
        short_walks += thread_workspace().scratch_nodes(0).size() <
                       kSide * kSide;
      }
      EXPECT_EQ(tally.t_smaller, kSide * kSide) << flavor(metric, policy);
      EXPECT_GT(tally.cut, 0u) << flavor(metric, policy);
      EXPECT_GT(short_walks, 0u) << flavor(metric, policy);
    }
  }
}

TEST(ReplacementRoute, EveryRingFailureIsProved) {
  // A ring with one link down has exactly one s -> t route, yet one side's
  // guard can refuse it: the guard reads unfailed trees, where the node
  // opposite s on an even ring has two shortest paths, one through the
  // failed link. On these rings the other side always proves the route, so
  // no query may fall back.
  for (std::size_t n = 3; n <= 10; ++n) {
    const Graph g = topo::make_ring(n);
    for (const Metric metric : kMetrics) {
      for (const TiebreakPolicy policy : kPolicies) {
        const SpfOptions options = padded(metric, policy);
        Trees trees(g, options);
        SpfWorkspace ws;
        Tally tally;
        for (NodeId s = 0; s < n; ++s) {
          for (NodeId t = 0; t < n; ++t) {
            if (t == s) continue;
            const Path path = trees.at(s).path_to(g, t);
            for (const EdgeId e : path.edges()) {
              const ShortestPathTree repaired = repair_tree(
                  g, trees.at(s), FailureMask::of_edges({e}), options, ws);
              check_query(g, trees.at(s), trees.at(t), e, repaired, tally,
                          "ring" + std::to_string(n) + " " +
                              flavor(metric, policy));
            }
          }
        }
        EXPECT_EQ(tally.unproven, 0u)
            << "ring" << n << " " << flavor(metric, policy);
        EXPECT_EQ(tally.cut, tally.queries)
            << "ring" << n << " " << flavor(metric, policy);
      }
    }
  }
}

TEST(ReplacementRoute, DirectedAndUnpaddedTreesAreNotAnswered) {
  graph::GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2, 3);
  const Graph directed = b.build();
  const SpfOptions options =
      padded(Metric::Weighted, TiebreakPolicy::Arbitrary);
  const ShortestPathTree from_s = shortest_tree(directed, 0, {}, options);
  const ShortestPathTree from_t = shortest_tree(directed, 2, {}, options);
  Path got = Path::trivial(2);
  EXPECT_EQ(
      replacement_route(directed, from_s, from_t, 1, thread_workspace(), got),
      ReplacementKind::kUnproven);
  EXPECT_EQ(got, Path::trivial(2));

  const Graph ring = topo::make_ring(5);
  const SpfOptions plain{.metric = Metric::Hops};
  const ShortestPathTree plain_s = shortest_tree(ring, 0, {}, plain);
  const ShortestPathTree plain_t = shortest_tree(ring, 2, {}, plain);
  EXPECT_EQ(replacement_route(ring, plain_s, plain_t, plain_s.parent_edge(1),
                              thread_workspace(), got),
            ReplacementKind::kUnproven);
}

TEST(ReplacementRoute, RejectsMismatchedInputs) {
  const Graph g = topo::make_ring(5);
  const ShortestPathTree hops =
      shortest_tree(g, 0, {}, padded(Metric::Hops, TiebreakPolicy::Arbitrary));
  const ShortestPathTree lex = shortest_tree(
      g, 2, {}, padded(Metric::Hops, TiebreakPolicy::Lexicographic));
  const ShortestPathTree other_graph = shortest_tree(
      topo::make_ring(6), 2, {},
      padded(Metric::Hops, TiebreakPolicy::Arbitrary));
  Path got;
  EXPECT_THROW(replacement_route(g, hops, lex, 0, thread_workspace(), got),
               PreconditionError);
  EXPECT_THROW(
      replacement_route(g, hops, other_graph, 0, thread_workspace(), got),
      PreconditionError);
  EXPECT_THROW(replacement_route(g, hops, hops, 99, thread_workspace(), got),
               PreconditionError);
}

TEST(CompactTree, DerivedDistEqualsPathCost) {
  // dist() is derived from the key; it must equal the true cost of the
  // tree path for every node, flavor and policy.
  const std::vector<testing::TopoCase> cases = testing::corpus();
  for (const testing::TopoCase& c : cases) {
    for (const Metric metric : kMetrics) {
      for (const TiebreakPolicy policy : kPolicies) {
        for (const bool pad : {false, true}) {
          const SpfOptions options{
              .metric = metric, .padded = pad, .tiebreak = policy};
          const ShortestPathTree tree = shortest_tree(c.g, 0, {}, options);
          for (NodeId v = 0; v < c.g.num_nodes(); ++v) {
            if (!tree.reachable(v)) {
              EXPECT_EQ(tree.dist(v), graph::kUnreachable);
              continue;
            }
            graph::Weight cost = 0;
            const Path path = tree.path_to(c.g, v);
            for (const EdgeId e : path.edges()) {
              cost += metric_weight(c.g, e, metric);
            }
            EXPECT_EQ(tree.dist(v), cost) << c.name << " v=" << v;
          }
        }
      }
    }
  }
  // 20 B/node: key (8) + parent (4) + parent edge (4) + node word (4).
  const ShortestPathTree tree = shortest_tree(topo::make_ring(100), 0);
  EXPECT_EQ(tree.memory_bytes(), 100u * 20u);
  EXPECT_EQ(tree.memory_bytes() / tree.num_nodes(), 20u);
}

// ---------------------------------------------------------------------------
// The node word: subtree arcs and the unique bit, from every producer.
// ---------------------------------------------------------------------------

/// Subtree arcs by explicit child lists: each reachable node's degree plus
/// its children's totals, summed in a post-order from the source.
std::vector<std::uint32_t> child_list_subtree_arcs(
    const Graph& g, const ShortestPathTree& tree) {
  std::vector<std::vector<NodeId>> children(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != tree.source() && tree.reachable(v)) {
      children[tree.parent(v)].push_back(v);
    }
  }
  std::vector<std::uint32_t> arcs(g.num_nodes(), 0);
  std::vector<std::pair<NodeId, bool>> stack = {{tree.source(), false}};
  while (!stack.empty()) {
    const auto [v, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      arcs[v] = static_cast<std::uint32_t>(g.degree(v));
      for (const NodeId c : children[v]) arcs[v] += arcs[c];
      continue;
    }
    stack.emplace_back(v, true);
    for (const NodeId c : children[v]) stack.emplace_back(c, false);
  }
  return arcs;
}

/// Checks every node's word in `tree`, built under `mask`, against the
/// references: child-list subtree arcs, and for heap-built trees the
/// sole-achiever chain (BFS trees keep every unique bit false).
void expect_node_words(const Graph& g, const ShortestPathTree& tree,
                       const FailureMask& mask, const std::string& ctx) {
  const std::vector<std::uint32_t> arcs = child_list_subtree_arcs(g, tree);
  const bool bfs = tree.metric() == Metric::Hops && !tree.padded();
  // The chain reference, memoized top-down: chain[v] is 1 when unique.
  std::vector<std::int8_t> chain(g.num_nodes(), -1);
  chain[tree.source()] = 1;
  const auto unique_ref = [&](NodeId v) {
    std::vector<NodeId> up;
    NodeId u = v;
    while (chain[u] < 0) {
      up.push_back(u);
      u = tree.parent(u);
    }
    for (std::size_t i = up.size(); i-- > 0;) {
      chain[up[i]] = chain[tree.parent(up[i])] == 1 &&
                     achievers(g, tree, up[i], mask) == 1;
    }
    return chain[v] == 1;
  };
  std::size_t mismatches = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool want_unique = !bfs && tree.reachable(v) && unique_ref(v);
    if (tree.subtree_arcs(v) != arcs[v] || tree.unique(v) != want_unique) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << ctx << " v=" << v << ": subtree arcs "
                      << tree.subtree_arcs(v) << " (want " << arcs[v]
                      << "), unique " << tree.unique(v) << " (want "
                      << want_unique << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << ctx;
}

/// Every flavor: unpadded per metric (one policy) and padded per policy.
std::vector<SpfOptions> all_flavors() {
  std::vector<SpfOptions> out;
  for (const Metric metric : kMetrics) {
    out.push_back(SpfOptions{.metric = metric});
    for (const TiebreakPolicy policy : kPolicies) {
      out.push_back(padded(metric, policy));
    }
  }
  return out;
}

std::string flavor_of(const SpfOptions& o) {
  if (o.padded) return flavor(o.metric, o.tiebreak);
  return std::string(o.metric == Metric::Hops ? "hops" : "weighted") +
         "/plain";
}

/// Checks the node words of every producer — scratch Dijkstra or BFS,
/// bulk, DistanceOracle and repair — on `sources` of `g`, unfailed and
/// under `mask`, in every flavor. Repaired trees must also carry the
/// scratch tree's words under the same mask.
void check_producers(const Graph& g, const std::vector<NodeId>& sources,
                     const FailureMask& mask, const std::string& name) {
  ThreadPool pool(2);
  SpfWorkspace ws;
  for (const SpfOptions& options : all_flavors()) {
    for (const FailureMask& m : {FailureMask::none(), mask}) {
      const std::string ctx = name + " " + flavor_of(options) +
                              (m.empty() ? " unfailed" : " masked");
      const std::vector<ShortestPathTree> bulk =
          build_trees(g, sources, m, options, pool);
      DistanceOracle oracle(g, m, options.metric, 0, 0, options.tiebreak);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const NodeId s = sources[i];
        if (!m.node_alive(s)) continue;
        const std::string at = ctx + " s=" + std::to_string(s);
        const ShortestPathTree scratch = shortest_tree(g, s, m, options);
        expect_node_words(g, scratch, m, at + " scratch");
        expect_node_words(g, bulk[i], m, at + " bulk");
        expect_node_words(
            g, options.padded ? oracle.padded_tree(s) : oracle.tree(s), m,
            at + " oracle");
        const ShortestPathTree repaired = repair_tree(
            g, shortest_tree(g, s, FailureMask::none(), options), m, options,
            ws);
        expect_node_words(g, repaired, m, at + " repair");
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(repaired.subtree_arcs(v), scratch.subtree_arcs(v))
              << at << " repair v=" << v;
          ASSERT_EQ(repaired.unique(v), scratch.unique(v))
              << at << " repair v=" << v;
        }
      }
    }
  }
}

TEST(NodeWord, EveryProducerMatchesTheReferenceOnCorpus) {
  Rng rng(41);
  for (const testing::TopoCase& c : testing::corpus()) {
    const Graph& g = c.g;
    std::vector<NodeId> sources;
    const std::size_t stride = (g.num_nodes() + 3) / 4;
    for (NodeId s = 0; s < g.num_nodes(); s += stride) sources.push_back(s);
    // Two failed links and, on larger graphs, one failed router that is
    // not the first source.
    FailureMask mask;
    for (const std::uint64_t e :
         rng.sample_distinct(g.num_edges(), std::min<std::size_t>(
                                                2, g.num_edges()))) {
      mask.fail_edge(static_cast<EdgeId>(e));
    }
    if (g.num_nodes() > 4) {
      mask.fail_node(static_cast<NodeId>(g.num_nodes() - 1));
    }
    check_producers(g, sources, mask, c.name);
  }
}

TEST(NodeWord, EveryProducerMatchesTheReferenceOnIspAndAs) {
  Rng topo_rng(11);
  const Graph isp = topo::make_isp_like(topo_rng);
  Rng as_rng(12);
  const Graph as = topo::make_as_like(as_rng);
  Rng rng(43);
  for (const auto& [g, name, count] :
       {std::tuple<const Graph&, const char*, std::size_t>{isp, "isp", 4},
        std::tuple<const Graph&, const char*, std::size_t>{as, "as", 2}}) {
    std::vector<NodeId> sources;
    while (sources.size() < count) {
      sources.push_back(static_cast<NodeId>(rng.below(g.num_nodes())));
    }
    // Links of the first source's tree near the source, so the masked
    // trees differ from the unfailed ones and repair does real work.
    const ShortestPathTree first = shortest_tree(
        g, sources[0], FailureMask::none(),
        padded(Metric::Hops, TiebreakPolicy::Arbitrary));
    FailureMask mask;
    for (const graph::Arc& a : g.arcs(sources[0])) {
      if (first.parent_edge(a.to) == a.edge) {
        mask.fail_edge(a.edge);
        break;
      }
    }
    mask.fail_edge(static_cast<EdgeId>(rng.below(g.num_edges())));
    check_producers(g, sources, mask, name);
  }
}

TEST(NodeWord, TiesClearTheUniqueBitBelowThem) {
  // A diamond 0 -> {1, 2} -> 3 with a tail 3 - 4: unpadded weighted, node 3
  // has two achievers, so 3 and 4 are not unique while 0, 1 and 2 are.
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const ShortestPathTree tree =
      shortest_tree(g, 0, {}, SpfOptions{.metric = Metric::Weighted});
  EXPECT_TRUE(tree.unique(0));
  EXPECT_TRUE(tree.unique(1));
  EXPECT_TRUE(tree.unique(2));
  EXPECT_FALSE(tree.unique(3));
  EXPECT_FALSE(tree.unique(4));
  // Subtree arcs: the whole graph's 10 arcs at the root; 3's subtree is
  // {3, 4}, degrees 3 and 1.
  EXPECT_EQ(tree.subtree_arcs(0), 10u);
  EXPECT_EQ(tree.subtree_arcs(3), 4u);
  EXPECT_EQ(tree.subtree_arcs(4), 1u);
  // Padding breaks the tie, so every node is unique.
  const ShortestPathTree padded_tree = shortest_tree(
      g, 0, {}, padded(Metric::Weighted, TiebreakPolicy::Arbitrary));
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_TRUE(padded_tree.unique(v));
  // Failing one side of the diamond makes the other the only route.
  SpfWorkspace ws;
  const ShortestPathTree repaired =
      repair_tree(g, tree, FailureMask::of_edges({2}),
                  SpfOptions{.metric = Metric::Weighted}, ws);
  EXPECT_TRUE(repaired.unique(3));
  EXPECT_TRUE(repaired.unique(4));
}

TEST(NodeWord, HopsAreCountedFromTheParentChain) {
  const Graph g = topo::make_ring(9);
  const ShortestPathTree tree =
      shortest_tree(g, 0, {}, padded(Metric::Hops, TiebreakPolicy::Arbitrary));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(tree.hops(v), tree.path_to(g, v).hops()) << "v=" << v;
    EXPECT_EQ(tree.hops(v), std::min<NodeId>(v, 9 - v)) << "v=" << v;
  }
}

}  // namespace
}  // namespace rbpc::spf
