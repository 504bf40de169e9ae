// Tests for the SPF extras: the Floyd–Warshall APSP oracle cross-checked
// against plain Dijkstra, and DOT export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/dot.hpp"
#include "apsp.hpp"
#include "spf/spf.hpp"
#include "topo/gadgets.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::spf {
namespace {

using graph::FailureMask;
using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;

TEST(Apsp, MatchesDijkstraOnSmallGraphs) {
  Rng rng(121);
  const Graph g = topo::make_random_connected(25, 60, rng, 9);
  const ApspMatrix apsp(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const auto tree = shortest_tree(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(apsp.dist(s, t), tree.dist(t)) << s << "->" << t;
    }
  }
}

TEST(Apsp, HopMetricAndMask) {
  const Graph g = topo::make_ring(8);
  const ApspMatrix apsp(g, FailureMask::of_edges({0}), Metric::Hops);
  EXPECT_EQ(apsp.dist(0, 1), 7);  // the long way
  EXPECT_EQ(apsp.dist(2, 4), 2);
  EXPECT_TRUE(apsp.reachable(0, 4));
}

TEST(Apsp, DisconnectedAndFailedNodes) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const ApspMatrix apsp(g);
  EXPECT_FALSE(apsp.reachable(0, 3));
  EXPECT_EQ(apsp.dist(0, 0), 0);

  const ApspMatrix masked(g, FailureMask::of_nodes({1}));
  EXPECT_FALSE(masked.reachable(0, 1));
  EXPECT_FALSE(masked.reachable(1, 1));  // failed node unreachable from self
}

TEST(Apsp, DirectedRespected) {
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  const Graph g = b.build();
  const ApspMatrix apsp(g);
  EXPECT_EQ(apsp.dist(0, 2), 2);
  EXPECT_FALSE(apsp.reachable(2, 0));
}

TEST(Apsp, DiameterOfGadgets) {
  // Two-level star: everything within 2 via the hub.
  const auto star = topo::make_two_level_star(12);
  EXPECT_EQ(ApspMatrix(star.g, FailureMask::none(), Metric::Hops).diameter(),
            2);
  const Graph ring = topo::make_ring(10);
  EXPECT_EQ(ApspMatrix(ring, FailureMask::none(), Metric::Hops).diameter(), 5);
}

// --- DOT export ----------------------------------------------------------------

std::string dot_of(const Graph& g, const graph::DotOptions& opts = {}) {
  std::ostringstream os;
  graph::write_dot(os, g, opts);
  return os.str();
}

TEST(Dot, ContainsNodesEdgesAndHighlights) {
  const Graph g = topo::make_ring(4);
  graph::DotOptions opts;
  opts.failures.fail_edge(2);
  opts.highlight = graph::Path::from_nodes(g, {0, 1});
  const std::string dot = dot_of(g, opts);
  EXPECT_NE(dot.find("graph rbpc {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("color=red style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("color=blue penwidth=2"), std::string::npos);
  EXPECT_NE(dot.find("label=\"1\""), std::string::npos);  // weight label
}

TEST(Dot, DirectedUsesArrows) {
  graph::GraphBuilder b(2, /*directed=*/true);
  b.add_edge(0, 1);
  const std::string dot = dot_of(b.build());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dot, WeightsCanBeHidden) {
  const Graph g = topo::make_ring(3, 42);
  graph::DotOptions opts;
  opts.show_weights = false;
  EXPECT_EQ(dot_of(g, opts).find("label=\"42\""), std::string::npos);
}

}  // namespace
}  // namespace rbpc::spf
