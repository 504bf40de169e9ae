// Unit tests for src/mpls: label stacks, LSRs, provisioning, forwarding.
#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "mpls/network.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"

namespace rbpc::mpls {
namespace {

using graph::FailureMask;
using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Path;

// --- LabelStack -----------------------------------------------------------------

TEST(LabelStack, PushPopOrder) {
  LabelStack s;
  EXPECT_TRUE(s.empty());
  s.push(10);
  s.push(20);
  EXPECT_EQ(s.depth(), 2u);
  EXPECT_EQ(s.top(), 20u);
  EXPECT_EQ(s.pop(), 20u);
  EXPECT_EQ(s.pop(), 10u);
  EXPECT_THROW(s.pop(), PreconditionError);
  EXPECT_THROW(s.top(), PreconditionError);
}

TEST(LabelStack, PushBottomFirst) {
  LabelStack s;
  s.push_bottom_first({1, 2, 3});  // 3 becomes the top
  EXPECT_EQ(s.top(), 3u);
  EXPECT_EQ(s.to_string(), "[3 2 1]");
}

TEST(LabelStack, RejectsInvalidLabel) {
  LabelStack s;
  EXPECT_THROW(s.push(kInvalidLabel), PreconditionError);
}

// --- Lsr -------------------------------------------------------------------------

TEST(Lsr, LabelAllocationStartsAboveReserved) {
  Lsr r(0);
  const Label first = r.allocate_label();
  EXPECT_GE(first, 16u);
  EXPECT_NE(r.allocate_label(), first);
}

TEST(Lsr, IlmInstallLookupClear) {
  Lsr r(0);
  EXPECT_EQ(r.ilm(99), nullptr);
  r.set_ilm(99, IlmEntry{{5}, 3});
  ASSERT_NE(r.ilm(99), nullptr);
  EXPECT_EQ(r.ilm(99)->push, std::vector<Label>{5});
  EXPECT_EQ(r.ilm_size(), 1u);
}

TEST(Lsr, FecInstallLookupClear) {
  Lsr r(0);
  EXPECT_EQ(r.fec(4), nullptr);
  r.set_fec(4, FecEntry{{1, 2}, {0}});
  ASSERT_NE(r.fec(4), nullptr);
  r.clear_fec(4);
  EXPECT_EQ(r.fec(4), nullptr);
}

// --- provisioning + forwarding ------------------------------------------------------

class MplsLineTest : public ::testing::Test {
 protected:
  // 0 - 1 - 2 - 3 line.
  MplsLineTest() : g_(topo::make_chain(4)), net_(g_) {}
  Graph g_;
  Network net_;
};

TEST_F(MplsLineTest, SingleLspDeliversAlongPath) {
  const Path p = Path::from_nodes(g_, {0, 1, 2, 3});
  const LspId id = net_.provision_lsp(p);
  net_.set_fec_chain(0, 3, {id});
  const ForwardResult r = net_.send(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.trace, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(r.hops, 3u);
}

TEST_F(MplsLineTest, EveryRouterOnLspHoldsOneEntry) {
  const Path p = Path::from_nodes(g_, {0, 1, 2, 3});
  net_.provision_lsp(p);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(net_.lsr(v).ilm_size(), 1u) << "router " << v;
  }
  EXPECT_EQ(net_.total_ilm_entries(), 4u);
}

TEST_F(MplsLineTest, PhpSkipsEgressEntry) {
  const Path p = Path::from_nodes(g_, {0, 1, 2, 3});
  const LspId id = net_.provision_lsp(p, /*php=*/true);
  EXPECT_EQ(net_.lsr(3).ilm_size(), 0u);
  EXPECT_EQ(net_.lsp(id).labels.back(), kInvalidLabel);
  net_.set_fec_chain(0, 3, {id});
  const ForwardResult r = net_.send(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.trace, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST_F(MplsLineTest, NoFecEntryReported) {
  const ForwardResult r = net_.send(0, 3);
  EXPECT_EQ(r.status, ForwardStatus::NoFecEntry);
  EXPECT_EQ(r.stopped_at, 0u);
}

TEST_F(MplsLineTest, UnknownLabelDropped) {
  LabelStack s;
  s.push(12345);
  const ForwardResult r = net_.send_with_stack(0, 3, s);
  EXPECT_EQ(r.status, ForwardStatus::UnknownLabel);
}

TEST_F(MplsLineTest, LinkDownDropsPacket) {
  const Path p = Path::from_nodes(g_, {0, 1, 2, 3});
  const LspId id = net_.provision_lsp(p);
  net_.set_fec_chain(0, 3, {id});
  net_.set_failures(FailureMask::of_edges({1}));  // link 1-2
  const ForwardResult r = net_.send(0, 3);
  EXPECT_EQ(r.status, ForwardStatus::LinkDown);
  EXPECT_EQ(r.stopped_at, 1u);
}

TEST_F(MplsLineTest, ProvisionValidation) {
  EXPECT_THROW(net_.provision_lsp(Path{}), PreconditionError);
  EXPECT_THROW(net_.provision_lsp(Path::trivial(0)), PreconditionError);
  const Path one_hop = Path::from_nodes(g_, {0, 1});
  EXPECT_THROW(net_.provision_lsp(one_hop, /*php=*/true), PreconditionError);
}

// --- concatenation ---------------------------------------------------------------------

class MplsConcatTest : public ::testing::Test {
 protected:
  // Ring of 6: base LSPs 0->2 (via 1) and 2->4 (via 3).
  MplsConcatTest() : g_(topo::make_ring(6)), net_(g_) {
    p1_ = net_.provision_lsp(Path::from_nodes(g_, {0, 1, 2}));
    p2_ = net_.provision_lsp(Path::from_nodes(g_, {2, 3, 4}));
  }
  Graph g_;
  Network net_;
  LspId p1_ = kInvalidLsp;
  LspId p2_ = kInvalidLsp;
};

TEST_F(MplsConcatTest, TwoLspChainDelivers) {
  // The paper's Figure-6 mechanism: push [ingress(P2), ingress(P1)], the
  // junction pops P1's label and continues on P2.
  net_.set_fec_chain(0, 4, {p1_, p2_});
  const ForwardResult r = net_.send(0, 4);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.trace, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST_F(MplsConcatTest, ChainValidationCatchesGaps) {
  EXPECT_THROW(net_.set_fec_chain(0, 4, {p2_, p1_}), PreconditionError);
  EXPECT_THROW(net_.set_fec_chain(0, 3, {p1_, p2_}), PreconditionError);
  EXPECT_THROW(net_.set_fec_chain(1, 4, {p1_, p2_}), PreconditionError);
  EXPECT_THROW(net_.set_fec_chain(0, 4, {}), PreconditionError);
}

TEST_F(MplsConcatTest, ThreeLspChainDelivers) {
  const LspId p3 = net_.provision_lsp(Path::from_nodes(g_, {4, 5, 0}));
  net_.set_fec_chain(0, 0, {p1_, p2_, p3});
  const ForwardResult r = net_.send(0, 0);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops, 6u);
}

TEST_F(MplsConcatTest, LspsUsingEdge) {
  EXPECT_EQ(net_.lsps_using_edge(0), std::vector<LspId>{p1_});  // edge 0-1
  EXPECT_EQ(net_.lsps_using_edge(2), std::vector<LspId>{p2_});  // edge 2-3
  EXPECT_TRUE(net_.lsps_using_edge(4).empty());
}

TEST_F(MplsConcatTest, SpliceRedirectsMidPath) {
  // End-route splice of P1 at router 1: redirect the rest of P1 onto a
  // detour LSP that ends at P1's egress (router 2). The label *beneath*
  // P1's — the chained P2 ingress label pushed by the FEC entry — is then
  // consumed at router 2 exactly as if P1 had completed normally. In the
  // 6-ring the only 1->2 alternative is 1-0-5-4-3-2.
  const LspId detour =
      net_.provision_lsp(Path::from_nodes(g_, {1, 0, 5, 4, 3, 2}));
  net_.set_fec_chain(0, 4, {p1_, p2_});
  const IlmEntry saved =
      net_.splice_ilm(p1_, 1, {net_.lsp(detour).ingress_label()});
  const ForwardResult r = net_.send(0, 4);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.trace, (std::vector<NodeId>{0, 1, 0, 5, 4, 3, 2, 3, 4}));

  // Restoring the saved entry brings back the original behavior.
  net_.restore_ilm(p1_, 1, saved);
  const ForwardResult r2 = net_.send(0, 4);
  EXPECT_EQ(r2.trace, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST_F(MplsConcatTest, SpliceValidation) {
  EXPECT_THROW(net_.splice_ilm(p1_, 5, {}), PreconditionError);  // not on LSP
}

TEST_F(MplsConcatTest, TtlGuardStopsForwardingLoops) {
  // Hand-build a looping pair of ILM entries.
  Lsr& r0 = net_.lsr_mutable(0);
  Lsr& r1 = net_.lsr_mutable(1);
  const Label l0 = r0.allocate_label();
  const Label l1 = r1.allocate_label();
  r0.set_ilm(l0, IlmEntry{{l1}, 0});  // 0 -> 1 (edge 0)
  r1.set_ilm(l1, IlmEntry{{l0}, 0});  // 1 -> 0
  LabelStack s;
  s.push(l0);
  const ForwardResult r = net_.send_with_stack(0, 3, s, /*ttl=*/32);
  EXPECT_EQ(r.status, ForwardStatus::TtlExpired);
}

TEST_F(MplsConcatTest, StackUnderflowDetected) {
  // Deliver P1's stack but claim the packet is destined beyond the egress.
  LabelStack s;
  s.push(net_.lsp(p1_).ingress_label());
  const ForwardResult r = net_.send_with_stack(0, 4, s);
  EXPECT_EQ(r.status, ForwardStatus::StackUnderflow);
  EXPECT_EQ(r.stopped_at, 2u);
}

TEST(MplsStatus, ToStringCoversAll) {
  EXPECT_EQ(to_string(ForwardStatus::Delivered), "delivered");
  EXPECT_EQ(to_string(ForwardStatus::NoFecEntry), "no FEC entry");
  EXPECT_EQ(to_string(ForwardStatus::UnknownLabel), "unknown label");
  EXPECT_EQ(to_string(ForwardStatus::LinkDown), "link down");
  EXPECT_EQ(to_string(ForwardStatus::TtlExpired), "TTL expired");
  EXPECT_EQ(to_string(ForwardStatus::StackUnderflow), "stack underflow");
}

}  // namespace
}  // namespace rbpc::mpls
