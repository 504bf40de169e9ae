// Engine agreement: every restoration engine returns the same route for the
// same pair under the same failures, bit for bit.
//
// The always-on service, the batch engine and the controller all take
// their routes from one ladder (spf::SnapshotTreePool::route): the cut
// rung for a single failed link, else a view repaired from the unfailed
// trees. The serial source_rbpc_restore loop climbs no ladder at all, so
// it is the reference. The sweep covers the corpus with one, two and three
// failed links, one failed router, one and two failed links together with
// that router, and then everything back up. It checks that both the cut
// rung and the repair rung actually ran in every engine — agreement that
// never exercised a rung would prove nothing about it. A link plus a
// router is the case where the cut rung must stand aside: its proof
// covers exactly one failed element.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/base_set.hpp"
#include "core/batch.hpp"
#include "core/controller.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path_arena.hpp"
#include "obs/request_trace.hpp"
#include "service/service.hpp"
#include "spf/oracle.hpp"
#include "util/rng.hpp"

namespace rbpc {
namespace {

using core::Restoration;
using core::RestoreJob;
using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using rbpc::testing::TopoCase;
using rbpc::testing::corpus;

constexpr spf::Metric kMetric = spf::Metric::Hops;  // the service's default

/// One failure set of the sweep: some failed links, possibly with one
/// failed router.
struct Scenario {
  std::string name;
  std::vector<EdgeId> links;
  NodeId router = graph::kInvalidNode;

  FailureMask mask() const {
    FailureMask m = FailureMask::of_edges(links);
    if (router != graph::kInvalidNode) m.fail_node(router);
    return m;
  }
};

/// The links the service's LSDB holds down for `sc`. Its ingest stream
/// carries link events only, so a failed router is every link at it; for
/// pairs that do not end at the router the routes are the same.
std::vector<EdgeId> down_links(const Graph& g, const Scenario& sc) {
  std::vector<EdgeId> out = sc.links;
  if (sc.router == graph::kInvalidNode) return out;
  for (const graph::Arc& a : g.arcs(sc.router)) out.push_back(a.edge);
  return out;
}

/// Brings the service's LSDB from the `down` links to `target`'s, then
/// waits for the reroutes to settle.
void move_service(service::RestorationService& svc,
                  std::vector<std::uint64_t>& gens, std::vector<bool>& down,
                  const std::vector<EdgeId>& target) {
  std::vector<bool> want(down.size(), false);
  for (const EdgeId e : target) want[e] = true;
  for (EdgeId e = 0; e < down.size(); ++e) {
    if (down[e] == want[e]) continue;
    svc.ingest({e, /*up=*/!want[e], ++gens[e]});
    down[e] = want[e];
  }
  svc.quiesce();
}

/// Undoes `from` on the controller, then applies `to`.
void move_controller(core::RbpcController& ctl, const Scenario* from,
                     const Scenario& to) {
  if (from != nullptr) {
    for (const EdgeId e : from->links) ctl.recover_link(e);
    if (from->router != graph::kInvalidNode) ctl.recover_router(from->router);
  }
  for (const EdgeId e : to.links) ctl.fail_link(e);
  if (to.router != graph::kInvalidNode) ctl.fail_router(to.router);
}

struct RungCounts {
  std::uint64_t cut = 0;
  std::uint64_t repaired = 0;
  void add(const spf::SnapshotTreePool& pool) {
    cut += pool.answers(obs::Rung::kCut);
    repaired += pool.answers(obs::Rung::kRepaired);
  }
};

TEST(EngineAgreement, EveryEngineReturnsTheSerialRoutes) {
  RungCounts service_rungs;
  RungCounts batch1_rungs;
  RungCounts batch4_rungs;
  RungCounts controller_rungs;
  for (const TopoCase& c : corpus()) {
    const Graph& g = c.g;
    Rng rng(7300 + g.num_nodes() + g.num_edges());
    const NodeId router = static_cast<NodeId>(rng.below(g.num_nodes()));

    // The same pairs for every engine; none ends at the failed router.
    std::vector<service::Demand> demands;
    std::vector<RestoreJob> jobs;
    while (demands.size() < 10) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (s == t || s == router || t == router) continue;
      demands.push_back({s, t});
      jobs.push_back({s, t});
    }

    spf::DistanceOracle oracle(g, FailureMask{}, kMetric);
    core::CanonicalBaseSet serial(oracle);

    // k failed links, plus `with_router` when it is set. The first link
    // lies on a pair's canonical route, so the failure reroutes at least
    // that pair.
    const auto k_links = [&](std::size_t k, NodeId with_router) {
      const RestoreJob& hit = jobs[rng.below(jobs.size())];
      graph::PathArena arena;
      const graph::PathView route =
          arena.view(serial.base_path_ref(hit.src, hit.dst, arena));
      Scenario sc{"k=" + std::to_string(k), {}, with_router};
      if (with_router != graph::kInvalidNode) {
        sc.name += " + router " + std::to_string(with_router);
      }
      if (route.hops() > 0) {
        sc.links.push_back(route.edge(rng.below(route.hops())));
      }
      while (sc.links.size() < k && sc.links.size() < g.num_edges()) {
        const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
        if (std::find(sc.links.begin(), sc.links.end(), e) == sc.links.end()) {
          sc.links.push_back(e);
        }
      }
      return sc;
    };
    std::vector<Scenario> scenarios;
    for (std::size_t k = 1; k <= 3; ++k) {
      scenarios.push_back(k_links(k, graph::kInvalidNode));
    }
    scenarios.push_back({"router " + std::to_string(router), {}, router});
    scenarios.push_back(k_links(1, router));
    scenarios.push_back(k_links(2, router));
    scenarios.push_back({"all up", {}, graph::kInvalidNode});

    spf::DistanceOracle oracle1(g, FailureMask{}, kMetric);
    core::CanonicalBaseSet base1(oracle1);
    core::BatchRestorer batch1(base1, core::BatchOptions{.threads = 1});
    spf::DistanceOracle oracle4(g, FailureMask{}, kMetric);
    core::CanonicalBaseSet base4(oracle4);
    core::BatchRestorer batch4(base4, core::BatchOptions{.threads = 4});

    service::ServiceOptions options;
    options.workers = 2;
    options.metric = kMetric;
    service::RestorationService svc(g, demands, options);
    std::vector<std::uint64_t> gens(g.num_edges(), 0);
    std::vector<bool> down(g.num_edges(), false);

    core::RbpcController ctl(g, kMetric);
    ctl.provision();

    const Scenario* previous = nullptr;
    for (const Scenario& sc : scenarios) {
      const std::string ctx = c.name + " " + sc.name;
      const FailureMask mask = sc.mask();
      std::vector<Restoration> want;
      for (const RestoreJob& job : jobs) {
        want.push_back(
            core::source_rbpc_restore(serial, job.src, job.dst, mask));
      }

      const std::vector<Restoration> got1 = batch1.restore_all(mask, jobs);
      const std::vector<Restoration> got4 = batch4.restore_all(mask, jobs);
      move_service(svc, gens, down, down_links(g, sc));
      const std::vector<Restoration> got_svc = svc.routes();
      move_controller(ctl, previous, sc);
      previous = &sc;

      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string pair = ctx + " pair " + std::to_string(jobs[i].src) +
                                 "->" + std::to_string(jobs[i].dst);
        for (const auto& [engine, got] :
             {std::pair{"batch x1", &got1[i]}, std::pair{"batch x4", &got4[i]},
              std::pair{"service", &got_svc[i]}}) {
          EXPECT_EQ(want[i].backup, got->backup) << pair << " " << engine;
          EXPECT_EQ(want[i].decomposition, got->decomposition)
              << pair << " " << engine;
        }
        const mpls::ForwardResult sent = ctl.send(jobs[i].src, jobs[i].dst);
        EXPECT_EQ(sent.delivered(), want[i].restored())
            << pair << " controller";
        if (want[i].restored()) {
          const std::vector<NodeId> nodes(want[i].backup.nodes().begin(),
                                          want[i].backup.nodes().end());
          EXPECT_EQ(sent.trace, nodes) << pair << " controller";
        }
      }
    }
    svc.stop();
    service_rungs.add(svc.tree_pool());
    batch1_rungs.add(batch1.tree_pool());
    batch4_rungs.add(batch4.tree_pool());
    controller_rungs.add(ctl.tree_pool());
  }
  for (const auto& [engine, rungs] :
       {std::pair{"service", &service_rungs},
        std::pair{"batch x1", &batch1_rungs},
        std::pair{"batch x4", &batch4_rungs},
        std::pair{"controller", &controller_rungs}}) {
    EXPECT_GT(rungs->cut, 0u) << engine << " never took the cut rung";
    EXPECT_GT(rungs->repaired, 0u) << engine << " never took the repair rung";
  }
}

}  // namespace
}  // namespace rbpc
