// Unit tests for src/graph: builder/CSR, paths, failure masks, analysis, IO.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/analysis.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/path.hpp"
#include "util/error.hpp"

namespace rbpc::graph {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 0, 3);
  return b.build();
}

// --- GraphBuilder / Graph ------------------------------------------------------

TEST(GraphBuilder, RejectsBadEdges) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3, 1), PreconditionError);  // out of range
  EXPECT_THROW(b.add_edge(1, 1, 1), PreconditionError);  // self loop
  EXPECT_THROW(b.add_edge(0, 1, 0), PreconditionError);  // non-positive weight
  EXPECT_THROW(b.add_edge(0, 1, -5), PreconditionError);
}

TEST(GraphBuilder, EdgeIdsAreInsertionOrder) {
  GraphBuilder b(3);
  EXPECT_EQ(b.add_edge(0, 1), 0u);
  EXPECT_EQ(b.add_edge(1, 2), 1u);
}

TEST(GraphBuilder, HasEdgeUndirected) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_TRUE(b.has_edge(1, 0));
  EXPECT_FALSE(b.has_edge(0, 2));
}

TEST(GraphBuilder, HasEdgeDirected) {
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1);
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_FALSE(b.has_edge(1, 0));
}

TEST(Graph, BasicAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.weight(1), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_FALSE(g.is_unit_weight());
}

TEST(Graph, ArcsAreSortedAndComplete) {
  const Graph g = triangle();
  const auto arcs = g.arcs(1);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].to, 0u);
  EXPECT_EQ(arcs[1].to, 2u);
}

TEST(Graph, OtherEnd) {
  const Graph g = triangle();
  EXPECT_EQ(g.other_end(0, 0u), 1u);
  EXPECT_EQ(g.other_end(0, 1u), 0u);
  EXPECT_THROW(g.other_end(0, 2u), PreconditionError);
}

TEST(Graph, FindEdgePicksMinWeightParallel) {
  GraphBuilder b(2);
  const EdgeId heavy = b.add_edge(0, 1, 9);
  const EdgeId light = b.add_edge(0, 1, 2);
  const Graph g = b.build();
  ASSERT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_EQ(*g.find_edge(0, 1), light);
  EXPECT_EQ(g.find_all_edges(0, 1), (std::vector<EdgeId>{heavy, light}));
}

TEST(Graph, FindEdgeAbsent) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_FALSE(g.find_edge(0, 2).has_value());
}

TEST(Graph, CheapestArcParallelEdgeTieBreak) {
  // Three parallel 0-1 links: two tied at the minimum weight, one heavier.
  // The survivor of minimum weight must win, and among equal-weight
  // survivors the lowest edge id — independent of which endpoint's
  // adjacency the degree heuristic scans.
  GraphBuilder b(3);
  const EdgeId tied_lo = b.add_edge(0, 1, 2);
  const EdgeId heavy = b.add_edge(0, 1, 9);
  const EdgeId tied_hi = b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 1);  // skews degree(1) above degree(0)
  const Graph g = b.build();

  EXPECT_EQ(g.cheapest_arc(0, 1, FailureMask::none()), tied_lo);
  EXPECT_EQ(g.cheapest_arc(1, 0, FailureMask::none()), tied_lo);

  FailureMask mask;
  mask.fail_edge(tied_lo);
  EXPECT_EQ(g.cheapest_arc(0, 1, mask), tied_hi);
  mask.fail_edge(tied_hi);
  EXPECT_EQ(g.cheapest_arc(0, 1, mask), heavy);
  mask.fail_edge(heavy);
  EXPECT_EQ(g.cheapest_arc(0, 1, mask), kInvalidEdge);

  // Dead endpoints and absent links answer kInvalidEdge, not a throw.
  FailureMask dead;
  dead.fail_node(1);
  EXPECT_EQ(g.cheapest_arc(0, 1, dead), kInvalidEdge);
  EXPECT_EQ(g.cheapest_arc(0, 2, FailureMask::none()), kInvalidEdge);
}

TEST(Graph, DirectedArcsOneWay) {
  GraphBuilder b(2, /*directed=*/true);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_FALSE(g.find_edge(1, 0).has_value());
}

TEST(Graph, EmptyGraphDefaultConstructible) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// --- FailureMask -----------------------------------------------------------------

TEST(FailureMask, DefaultIsAllUp) {
  const Graph g = triangle();
  const FailureMask m;
  EXPECT_TRUE(m.empty());
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_TRUE(m.edge_alive(g, e));
}

TEST(FailureMask, EdgeFailureAndRestore) {
  const Graph g = triangle();
  FailureMask m;
  m.fail_edge(1);
  EXPECT_TRUE(m.edge_failed(1));
  EXPECT_FALSE(m.edge_alive(g, 1));
  EXPECT_TRUE(m.edge_alive(g, 0));
  EXPECT_EQ(m.failed_edge_count(), 1u);
  m.restore_edge(1);
  EXPECT_TRUE(m.empty());
}

TEST(FailureMask, NodeFailureKillsIncidentEdges) {
  const Graph g = triangle();
  FailureMask m;
  m.fail_node(0);
  EXPECT_FALSE(m.edge_alive(g, 0));  // (0,1)
  EXPECT_TRUE(m.edge_alive(g, 1));   // (1,2)
  EXPECT_FALSE(m.edge_alive(g, 2));  // (2,0)
  EXPECT_EQ(m.removed_edge_count(g), 2u);
}

TEST(FailureMask, IdempotentOperations) {
  FailureMask m;
  m.fail_edge(5);
  m.fail_edge(5);
  EXPECT_EQ(m.failed_edge_count(), 1u);
  m.restore_edge(5);
  m.restore_edge(5);
  EXPECT_EQ(m.failed_edge_count(), 0u);
  m.restore_edge(99);  // restoring something never failed is a no-op
  EXPECT_TRUE(m.empty());
}

TEST(FailureMask, Factories) {
  const auto m1 = FailureMask::of_edges({1, 3});
  EXPECT_EQ(m1.failed_edges(), (std::vector<EdgeId>{1, 3}));
  const auto m2 = FailureMask::of_nodes({2});
  EXPECT_EQ(m2.failed_nodes(), (std::vector<NodeId>{2}));
  EXPECT_TRUE(FailureMask::none().empty());
}

// --- Path --------------------------------------------------------------------------

TEST(Path, TrivialAndEmpty) {
  const Path empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.hops(), 0u);
  EXPECT_THROW(empty.source(), PreconditionError);

  const Path t = Path::trivial(4);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.hops(), 0u);
  EXPECT_EQ(t.source(), 4u);
  EXPECT_EQ(t.target(), 4u);
}

TEST(Path, FromNodesSelectsMinWeightEdge) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 9);
  const EdgeId light = b.add_edge(0, 1, 2);
  const Graph g = b.build();
  const Path p = Path::from_nodes(g, {0, 1});
  EXPECT_EQ(p.edge(0), light);
  EXPECT_EQ(p.cost(g), 2);
}

TEST(Path, FromNodesRespectsMask) {
  GraphBuilder b(2);
  const EdgeId light = b.add_edge(0, 1, 2);
  const EdgeId heavy = b.add_edge(0, 1, 9);
  const Graph g = b.build();
  FailureMask m;
  m.fail_edge(light);
  const Path p = Path::from_nodes(g, {0, 1}, m);
  EXPECT_EQ(p.edge(0), heavy);
  m.fail_edge(heavy);
  EXPECT_THROW(Path::from_nodes(g, {0, 1}, m), NoRouteError);
}

TEST(Path, FromPartsValidates) {
  const Graph g = triangle();
  EXPECT_NO_THROW(Path::from_parts(g, {0, 1, 2}, {0, 1}));
  EXPECT_THROW(Path::from_parts(g, {0, 2}, {0}), PreconditionError);
  EXPECT_THROW(Path::from_parts(g, {0, 1}, {}), PreconditionError);
}

TEST(Path, CostHopsAndQueries) {
  const Graph g = triangle();
  const Path p = Path::from_parts(g, {0, 1, 2}, {0, 1});
  EXPECT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.cost(g), 3);
  EXPECT_TRUE(p.uses_edge(0));
  EXPECT_FALSE(p.uses_edge(2));
  EXPECT_TRUE(p.visits_node(1));
  EXPECT_TRUE(p.simple());
}

TEST(Path, AliveUnderMask) {
  const Graph g = triangle();
  const Path p = Path::from_parts(g, {0, 1, 2}, {0, 1});
  EXPECT_TRUE(p.alive(g, FailureMask::none()));
  EXPECT_FALSE(p.alive(g, FailureMask::of_edges({1})));
  EXPECT_FALSE(p.alive(g, FailureMask::of_nodes({1})));
  EXPECT_TRUE(p.alive(g, FailureMask::of_edges({2})));
}

TEST(Path, ConcatRequiresMatchingEndpoints) {
  const Graph g = triangle();
  const Path a = Path::from_parts(g, {0, 1}, {0});
  const Path bc = Path::from_parts(g, {1, 2}, {1});
  const Path joined = a.concat(bc);
  EXPECT_EQ(joined.nodes(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_THROW(bc.concat(a), PreconditionError);
}

TEST(Path, ConcatWithEmptyAndTrivial) {
  const Graph g = triangle();
  const Path a = Path::from_parts(g, {0, 1}, {0});
  EXPECT_EQ(Path{}.concat(a), a);
  EXPECT_EQ(a.concat(Path{}), a);
  EXPECT_EQ(a.concat(Path::trivial(1)), a);
}

TEST(Path, SubpathPrefixSuffix) {
  const Graph g = triangle();
  const Path p = Path::from_parts(g, {0, 1, 2}, {0, 1});
  EXPECT_EQ(p.subpath(0, 1).nodes(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(p.subpath(1, 1).hops(), 0u);
  EXPECT_EQ(p.suffix_from(1).nodes(), (std::vector<NodeId>{1, 2}));
  EXPECT_THROW(p.subpath(2, 1), PreconditionError);
}

TEST(Path, Reversed) {
  const Graph g = triangle();
  const Path p = Path::from_parts(g, {0, 1, 2}, {0, 1});
  const Path r = p.reversed();
  EXPECT_EQ(r.nodes(), (std::vector<NodeId>{2, 1, 0}));
  EXPECT_EQ(r.edges(), (std::vector<EdgeId>{1, 0}));
}

TEST(Path, ExtendValidatesContinuity) {
  const Graph g = triangle();
  Path p = Path::trivial(0);
  p.extend(g, 0, 1);
  EXPECT_EQ(p.target(), 1u);
  EXPECT_THROW(p.extend(g, 2, 0), PreconditionError);  // edge 2 is (2,0)
}

TEST(Path, NonSimpleDetected) {
  const Graph g = triangle();
  const Path p = Path::from_parts(g, {0, 1, 0}, {0, 0});
  EXPECT_FALSE(p.simple());
}

TEST(Path, ToString) {
  const Graph g = triangle();
  EXPECT_EQ(Path::from_parts(g, {0, 1}, {0}).to_string(), "0 -> 1");
  EXPECT_EQ(Path{}.to_string(), "(no route)");
}

// --- analysis ------------------------------------------------------------------------

TEST(Analysis, ComponentsAndConnectivity) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_TRUE(comps.same_component(0, 2));
  EXPECT_FALSE(comps.same_component(0, 3));
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(connected(g, 0, 2));
  EXPECT_FALSE(connected(g, 0, 4));
}

TEST(Analysis, ConnectivityUnderMask) {
  const Graph g = triangle();
  EXPECT_TRUE(is_connected(g));
  // Failing two edges of the triangle still leaves it connected.
  EXPECT_TRUE(is_connected(g, FailureMask::of_edges({0})));
  EXPECT_TRUE(is_connected(g, FailureMask::of_edges({0, 1})) ||
              !is_connected(g, FailureMask::of_edges({0, 1})));
  // Failing a node removes it from consideration entirely.
  EXPECT_TRUE(is_connected(g, FailureMask::of_nodes({0})));
}

TEST(Analysis, BridgesInChain) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(find_bridges(g).size(), 3u);
  EXPECT_FALSE(is_two_edge_connected(g));
}

TEST(Analysis, NoBridgesInCycle) {
  const Graph g = triangle();
  EXPECT_TRUE(find_bridges(g).empty());
  EXPECT_TRUE(is_two_edge_connected(g));
}

TEST(Analysis, ParallelEdgesAreNotBridges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(find_bridges(g), (std::vector<EdgeId>{2}));
}

TEST(Analysis, BridgesUnderMask) {
  const Graph g = triangle();
  // Failing one edge of the triangle makes the remaining two bridges.
  EXPECT_EQ(find_bridges(g, FailureMask::of_edges({0})).size(), 2u);
}

TEST(Analysis, ClusteringCoefficientTriangle) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 1.0);
  EXPECT_DOUBLE_EQ(triangle_edge_fraction(g), 1.0);
}

TEST(Analysis, ClusteringCoefficientTreeIsZero) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
  EXPECT_DOUBLE_EQ(triangle_edge_fraction(g), 0.0);
}

TEST(Analysis, ClusteringCoefficientMixed) {
  // A triangle with a pendant: triangles 1 (x3 closed triples); triples:
  // node0: C(3,2)=3 (neighbors 1,2,3), nodes 1,2: 1 each -> total 5;
  // closed = 3 -> C = 0.6. Edge fraction: 3 of 4 edges in a triangle.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(triangle_edge_fraction(g), 0.75);
}

TEST(Analysis, ClusteringIgnoresParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel: must not fake a triangle
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
  EXPECT_DOUBLE_EQ(triangle_edge_fraction(g), 0.0);
}

TEST(Analysis, DegreeStats) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  const auto stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_NEAR(stats.mean, 4.0 / 3.0, 1e-12);
}

// --- io ----------------------------------------------------------------------------

TEST(GraphIo, RoundTrip) {
  const Graph g = triangle();
  std::stringstream ss;
  save_graph(ss, g);
  const Graph h = load_graph(ss);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_FALSE(h.directed());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e).u, g.edge(e).u);
    EXPECT_EQ(h.edge(e).v, g.edge(e).v);
    EXPECT_EQ(h.edge(e).weight, g.edge(e).weight);
  }
}

TEST(GraphIo, DirectedRoundTrip) {
  GraphBuilder b(2, /*directed=*/true);
  b.add_edge(0, 1, 5);
  std::stringstream ss;
  save_graph(ss, b.build());
  const Graph h = load_graph(ss);
  EXPECT_TRUE(h.directed());
}

TEST(GraphIo, CommentsAndBlanksIgnored) {
  std::stringstream ss(
      "rbpc-graph 1\n# a comment\n\n  \ndirected 0\nnodes 2\nedge 0 1 7 # w\n");
  const Graph g = load_graph(ss);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weight(0), 7);
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::stringstream ss("bogus 1\n");
    EXPECT_THROW(load_graph(ss), InputError);
  }
  {
    std::stringstream ss("rbpc-graph 1\nedge 0 1 1\n");
    EXPECT_THROW(load_graph(ss), InputError);  // edge before nodes
  }
  {
    std::stringstream ss("rbpc-graph 1\nnodes 2\nedge 0 5 1\n");
    EXPECT_THROW(load_graph(ss), InputError);  // endpoint out of range
  }
  {
    std::stringstream ss("rbpc-graph 1\nnodes 2\nfrobnicate\n");
    EXPECT_THROW(load_graph(ss), InputError);  // unknown keyword
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(load_graph(ss), InputError);
  }
}

TEST(GraphIo, FileErrors) {
  EXPECT_THROW(save_graph_file("/nonexistent/path/graph.txt", triangle()),
               InputError);
}

}  // namespace
}  // namespace rbpc::graph
