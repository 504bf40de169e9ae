// Differential tests for incremental SPT repair (spf/incremental.hpp) and
// the bounded TreeCache (spf/tree_cache.hpp).
//
// The contract under test is strict: repair_tree must be *bit-identical* to
// shortest_tree — same dist, same heap key, same hop count, same parent and
// parent edge for every node — on a 54-topology corpus (paper gadgets +
// three random families), under both metrics, padded and plain, 1-4 edge
// failures plus node failures, and on either side of the fallback
// threshold. Equal cost is not enough: the batch engine's determinism
// guarantee (byte-identical results at any thread count) rests on the
// repaired tree being indistinguishable from a from-scratch run.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <memory>
#include <string>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "spf/incremental.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"
#include "spf/tree_cache.hpp"
#include "spf/workspace.hpp"
#include "topo/gadgets.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::spf {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

// The shared 54-topology corpus lives in corpus.hpp.
using rbpc::testing::TopoCase;
using rbpc::testing::corpus;

FailureMask random_edge_failures(const Graph& g, std::size_t k, Rng& rng) {
  FailureMask mask;
  for (auto e : rng.sample_distinct(g.num_edges(), k)) {
    mask.fail_edge(static_cast<EdgeId>(e));
  }
  return mask;
}

const std::vector<SpfOptions>& flavors() {
  static const std::vector<SpfOptions> kFlavors = {
      {.metric = Metric::Weighted, .padded = false},
      {.metric = Metric::Weighted, .padded = true},
      {.metric = Metric::Hops, .padded = false},
      {.metric = Metric::Hops, .padded = true},
  };
  return kFlavors;
}

std::string flavor_name(const SpfOptions& o) {
  return std::string(o.metric == Metric::Weighted ? "weighted" : "hops") +
         (o.padded ? "/padded" : "/plain");
}

// Field-by-field equality: dist AND key AND parent AND parent edge AND the
// node word (subtree arcs and unique bit). Equal parents imply equal hops.
void expect_identical_trees(const ShortestPathTree& want,
                            const ShortestPathTree& got,
                            const std::string& ctx) {
  ASSERT_EQ(want.num_nodes(), got.num_nodes()) << ctx;
  EXPECT_EQ(want.source(), got.source()) << ctx;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    const std::string at = ctx + " v=" + std::to_string(v);
    EXPECT_EQ(want.dist(v), got.dist(v)) << at;
    EXPECT_EQ(want.key(v), got.key(v)) << at;
    ASSERT_EQ(want.reachable(v), got.reachable(v)) << at;
    EXPECT_EQ(want.subtree_arcs(v), got.subtree_arcs(v)) << at;
    EXPECT_EQ(want.unique(v), got.unique(v)) << at;
    if (want.reachable(v)) {
      EXPECT_EQ(want.parent(v), got.parent(v)) << at;
      EXPECT_EQ(want.parent_edge(v), got.parent_edge(v)) << at;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: repair == scratch, everywhere.
// ---------------------------------------------------------------------------

TEST(IncrementalRepair, MatchesScratchOnCorpusEdgeFailures) {
  SpfWorkspace ws;
  for (const TopoCase& tc : corpus()) {
    const Graph& g = tc.g;
    Rng rng(4000 + g.num_nodes());
    std::vector<FailureMask> masks;
    for (std::size_t k = 1; k <= 4 && k <= g.num_edges(); ++k) {
      masks.push_back(random_edge_failures(g, k, rng));
    }
    for (const SpfOptions& options : flavors()) {
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        const ShortestPathTree base =
            shortest_tree(g, s, FailureMask::none(), options);
        for (std::size_t mi = 0; mi < masks.size(); ++mi) {
          const FailureMask& mask = masks[mi];
          RepairReport report;
          const ShortestPathTree repaired = repair_tree(
              g, base, mask, options, ws, IncrementalOptions{}, &report);
          const ShortestPathTree scratch = shortest_tree(g, s, mask, options);
          expect_identical_trees(
              scratch, repaired,
              tc.name + " " + flavor_name(options) + " s=" + std::to_string(s) +
                  " k=" + std::to_string(mi + 1));
        }
      }
    }
  }
}

TEST(IncrementalRepair, MatchesScratchUnderNodeFailures) {
  SpfWorkspace ws;
  for (const TopoCase& tc : corpus()) {
    const Graph& g = tc.g;
    Rng rng(5000 + g.num_nodes());
    const SpfOptions options{.metric = Metric::Weighted, .padded = true};
    for (int trial = 0; trial < 3; ++trial) {
      FailureMask mask = random_edge_failures(g, 1 + trial % 2, rng);
      const NodeId down = static_cast<NodeId>(rng.below(g.num_nodes()));
      mask.fail_node(down);
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        const ShortestPathTree base =
            shortest_tree(g, s, FailureMask::none(), options);
        if (!mask.node_alive(s)) {
          EXPECT_THROW(repair_tree(g, base, mask, options, ws),
                       PreconditionError);
          continue;
        }
        const ShortestPathTree repaired =
            repair_tree(g, base, mask, options, ws);
        const ShortestPathTree scratch = shortest_tree(g, s, mask, options);
        expect_identical_trees(scratch, repaired,
                               tc.name + " node-fail trial=" +
                                   std::to_string(trial) +
                                   " s=" + std::to_string(s));
      }
    }
  }
}

// Both sides of the fallback threshold must yield the same (identical)
// tree; only the reported path differs. fraction = 0.0 forces the scratch
// fallback the moment anything is orphaned, fraction = 1.0 forbids it.
TEST(IncrementalRepair, FallbackThresholdChangesPathNotResult) {
  Rng rng(71);
  const Graph g = topo::make_random_connected(20, 34, rng, 9);
  const SpfOptions options{.metric = Metric::Weighted, .padded = true};
  SpfWorkspace ws;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const ShortestPathTree base =
        shortest_tree(g, s, FailureMask::none(), options);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      FailureMask mask;
      mask.fail_edge(e);
      const ShortestPathTree scratch = shortest_tree(g, s, mask, options);

      RepairReport always_scratch;
      const ShortestPathTree low = repair_tree(
          g, base, mask, options, ws,
          IncrementalOptions{.max_affected_fraction = 0.0}, &always_scratch);
      RepairReport always_repair;
      const ShortestPathTree high = repair_tree(
          g, base, mask, options, ws,
          IncrementalOptions{.max_affected_fraction = 1.0}, &always_repair);

      const std::string ctx =
          "s=" + std::to_string(s) + " e=" + std::to_string(e);
      expect_identical_trees(scratch, low, ctx + " low");
      expect_identical_trees(scratch, high, ctx + " high");
      // A failed tree edge orphans at least its child endpoint: fraction 0
      // must fall back, fraction 1 must repair (or report identity when the
      // failed edge is not a tree edge).
      const bool tree_edge = base.parent_edge(g.edge(e).u) == e ||
                             base.parent_edge(g.edge(e).v) == e;
      if (tree_edge) {
        EXPECT_EQ(always_scratch.kind, RepairKind::kScratch) << ctx;
        EXPECT_EQ(always_repair.kind, RepairKind::kRepaired) << ctx;
        EXPECT_GT(always_repair.orphaned, 0u) << ctx;
      } else {
        EXPECT_EQ(always_scratch.kind, RepairKind::kIdentity) << ctx;
        EXPECT_EQ(always_repair.kind, RepairKind::kIdentity) << ctx;
      }
    }
  }
}

TEST(IncrementalRepair, IdentityWhenMaskMissesTheTree) {
  // Ring: the tree from any source uses all edges but one; failing that
  // one chord must be recognized as a no-op and return the base verbatim.
  const Graph g = topo::make_ring(9);
  const SpfOptions options{.metric = Metric::Weighted, .padded = true};
  SpfWorkspace ws;
  const ShortestPathTree base =
      shortest_tree(g, 0, FailureMask::none(), options);
  EdgeId chord = graph::kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (base.parent_edge(g.edge(e).u) != e && base.parent_edge(g.edge(e).v) != e) {
      chord = e;
      break;
    }
  }
  ASSERT_NE(chord, graph::kInvalidEdge);
  FailureMask mask;
  mask.fail_edge(chord);
  RepairReport report;
  const ShortestPathTree repaired =
      repair_tree(g, base, mask, options, ws, IncrementalOptions{}, &report);
  EXPECT_EQ(report.kind, RepairKind::kIdentity);
  expect_identical_trees(base, repaired, "ring chord");
}

TEST(IncrementalRepair, DisconnectedSubtreeStaysUnreachable) {
  // Cutting a chain strands the whole tail: the repaired tree must report
  // every stranded node unreachable, exactly like a from-scratch run, and
  // must do so via the repair path (forced by fraction = 1.0).
  const Graph g = topo::make_chain(6);
  const SpfOptions options{.metric = Metric::Weighted, .padded = true};
  SpfWorkspace ws;
  const ShortestPathTree base =
      shortest_tree(g, 0, FailureMask::none(), options);
  FailureMask mask;
  mask.fail_edge(2);  // 2 -- 3: nodes 3..5 stranded
  RepairReport report;
  const ShortestPathTree repaired =
      repair_tree(g, base, mask, options, ws,
                  IncrementalOptions{.max_affected_fraction = 1.0}, &report);
  EXPECT_EQ(report.kind, RepairKind::kRepaired);
  EXPECT_EQ(report.orphaned, 3u);
  const ShortestPathTree scratch = shortest_tree(g, 0, mask, options);
  expect_identical_trees(scratch, repaired, "cut chain");
  for (NodeId v = 3; v < 6; ++v) EXPECT_FALSE(repaired.reachable(v));
}

TEST(IncrementalRepair, RejectsBadInputs) {
  const Graph g = topo::make_ring(6);
  SpfWorkspace ws;
  const SpfOptions padded{.metric = Metric::Weighted, .padded = true};
  const ShortestPathTree base = shortest_tree(g, 0, FailureMask::none(), padded);
  FailureMask mask;
  mask.fail_edge(0);
  // Flavor mismatch between options and the base tree.
  EXPECT_THROW(repair_tree(g, base, mask,
                           SpfOptions{.metric = Metric::Hops, .padded = true},
                           ws),
               PreconditionError);
  EXPECT_THROW(repair_tree(g, base, mask,
                           SpfOptions{.metric = Metric::Weighted,
                                      .padded = false},
                           ws),
               PreconditionError);
  // Partial runs are not repairable.
  EXPECT_THROW(repair_tree(g, base, mask,
                           SpfOptions{.metric = Metric::Weighted,
                                      .padded = true,
                                      .stop_at = 3},
                           ws),
               PreconditionError);
  // Failed source mirrors shortest_tree's precondition.
  FailureMask source_down;
  source_down.fail_node(0);
  EXPECT_THROW(repair_tree(g, base, source_down, padded, ws),
               PreconditionError);
}

// The workspace is reusable across repairs of different sizes and graphs;
// state leaking between runs would show up as divergence on the second use.
TEST(IncrementalRepair, WorkspaceReuseAcrossGraphsIsClean) {
  SpfWorkspace ws;
  Rng rng(97);
  const Graph big = topo::make_random_connected(30, 55, rng, 9);
  const Graph small = topo::make_chain(4);
  const SpfOptions options{.metric = Metric::Weighted, .padded = true};
  for (int round = 0; round < 3; ++round) {
    for (const Graph* g : {&big, &small, &big}) {
      const NodeId s = static_cast<NodeId>(rng.below(g->num_nodes()));
      const ShortestPathTree base =
          shortest_tree(*g, s, FailureMask::none(), options);
      FailureMask mask = random_edge_failures(*g, 2, rng);
      const ShortestPathTree repaired =
          repair_tree(*g, base, mask, options, ws);
      const ShortestPathTree scratch = shortest_tree(*g, s, mask, options);
      expect_identical_trees(scratch, repaired,
                             "reuse round=" + std::to_string(round));
    }
  }
}

// ---------------------------------------------------------------------------
// TreeCache: unbounded storage and repair-mode counters.
// ---------------------------------------------------------------------------

TEST(TreeCacheBound, UnboundedByDefault) {
  Rng rng(12);
  const Graph g = topo::make_random_connected(10, 18, rng, 4);
  TreeCache cache(g, FailureMask{},
                  SpfOptions{.metric = Metric::Weighted, .padded = true});
  for (NodeId s = 0; s < g.num_nodes(); ++s) cache.tree(s);
  EXPECT_EQ(cache.size(), g.num_nodes());
}

TEST(TreeCacheRepairMode, RepairsFromBaseAndMatchesScratch) {
  Rng rng(21);
  const Graph g = topo::make_random_connected(18, 32, rng, 9);
  const SpfOptions options{.metric = Metric::Weighted, .padded = true};
  FailureMask mask = random_edge_failures(g, 2, rng);

  TreeCache unfailed(g, FailureMask{}, options);
  TreeCache repaired(g, mask, options, &unfailed);
  TreeCache scratch(g, mask, options);

  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    expect_identical_trees(*scratch.tree(s), *repaired.tree(s),
                           "cache s=" + std::to_string(s));
  }
  // Every miss went through the repair path (repair or its fallback), and
  // each pulled the base tree from the unfailed cache exactly once.
  EXPECT_EQ(repaired.misses(), g.num_nodes());
  EXPECT_EQ(repaired.repairs() + repaired.repair_fallbacks(),
            repaired.misses());
  EXPECT_GT(repaired.repairs(), 0u);
  EXPECT_EQ(unfailed.misses(), g.num_nodes());

  // A failure that orphans more than a quarter of the nodes makes repair
  // fall back to scratch: on a 16-node ring, link 0 - 1 cuts about half of
  // node 0's tree off. Fallbacks are counted and the trees stay identical.
  const Graph ring = topo::make_ring(16);
  const FailureMask cut = FailureMask::of_edges({0});
  TreeCache ring_unfailed(ring, FailureMask{}, options);
  TreeCache fallback(ring, cut, options, &ring_unfailed);
  TreeCache ring_scratch(ring, cut, options);
  for (NodeId s = 0; s < ring.num_nodes(); ++s) {
    obs::Rung rung = obs::Rung::kCached;
    const std::size_t fallbacks = fallback.repair_fallbacks();
    const auto tree = fallback.tree(s, &rung);
    if (s == 0) {
      // A repair that bails out runs at the scratch rung.
      EXPECT_EQ(rung, obs::Rung::kScratch);
      EXPECT_EQ(fallback.repair_fallbacks(), fallbacks + 1);
    }
    expect_identical_trees(*ring_scratch.tree(s), *tree,
                           "fallback s=" + std::to_string(s));
  }
  EXPECT_EQ(fallback.repairs() + fallback.repair_fallbacks(),
            fallback.misses());
  EXPECT_GT(fallback.repair_fallbacks(), 0u);
}

TEST(TreeCacheRepairMode, RejectsMismatchedBase) {
  Rng rng(22);
  const Graph g = topo::make_random_connected(8, 14, rng, 4);
  const Graph other = topo::make_ring(8);
  TreeCache unfailed(g, FailureMask{},
                     SpfOptions{.metric = Metric::Weighted, .padded = true});
  FailureMask mask;
  mask.fail_edge(0);
  EXPECT_THROW(
      TreeCache(other, mask,
                SpfOptions{.metric = Metric::Weighted, .padded = true},
                &unfailed),
      PreconditionError);
  EXPECT_THROW(TreeCache(g, mask,
                         SpfOptions{.metric = Metric::Hops, .padded = true},
                         &unfailed),
               PreconditionError);
}

}  // namespace
}  // namespace rbpc::spf
