#include "core/drill.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "spf/spf.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::NodeId;
using graph::Weight;

Weight trace_cost(const graph::Graph& g, const std::vector<NodeId>& trace,
                  spf::Metric metric) {
  Weight total = 0;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    const auto e = g.find_edge(trace[i], trace[i + 1]);
    RBPC_ASSERT(e.has_value());
    total += spf::metric_weight(g, *e, metric);
  }
  return total;
}

DrillReport run_failure_drill(const graph::Graph& g, spf::Metric metric,
                              const DrillActions& actions,
                              const DrillConfig& config, Rng& rng) {
  require(static_cast<bool>(actions.fail_link) &&
              static_cast<bool>(actions.recover_link) &&
              static_cast<bool>(actions.send) &&
              static_cast<bool>(actions.failures),
          "run_failure_drill: fail/recover/send/failures hooks are required");
  require(g.num_nodes() >= 2, "run_failure_drill: graph too small");

  DrillReport report;
  auto violate = [&](const std::string& what) {
    if (report.violations.size() < 32) report.violations.push_back(what);
  };

  const bool router_events = static_cast<bool>(actions.fail_router) &&
                             static_cast<bool>(actions.recover_router);
  // Failed elements: edges recorded as-is, routers tagged by the high bit.
  constexpr std::uint64_t kRouterTag = 1ull << 40;
  std::vector<std::uint64_t> failed;
  for (std::size_t step = 0; step < config.steps; ++step) {
    // One topology event.
    const bool do_recover =
        !failed.empty() &&
        (failed.size() >= config.max_concurrent || rng.chance(config.recover_bias));
    if (do_recover) {
      const std::size_t pick = rng.below(failed.size());
      const std::uint64_t item = failed[pick];
      if (item & kRouterTag) {
        actions.recover_router(static_cast<NodeId>(item & ~kRouterTag));
      } else {
        actions.recover_link(static_cast<EdgeId>(item));
      }
      failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (router_events && rng.chance(config.router_chance)) {
      const NodeId v = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (!actions.failures().node_alive(v)) continue;
      actions.fail_router(v);
      failed.push_back(kRouterTag | v);
    } else {
      EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
      if (!actions.failures().edge_alive(g, e)) {
        continue;  // already down (directly or via an endpoint); skip
      }
      actions.fail_link(e);
      failed.push_back(e);
      if (actions.local_patch && rng.chance(config.patch_chance)) {
        actions.local_patch(e);
      }
    }
    ++report.events;

    // Probe the data plane.
    const graph::FailureMask& mask = actions.failures();
    for (std::size_t p = 0; p < config.probes_per_step; ++p) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (s == t) continue;
      // Traffic cannot originate at or target a dead router.
      if (!mask.node_alive(s) || !mask.node_alive(t)) continue;
      ++report.probes;
      const Weight want = spf::distance(g, s, t, mask,
                                        spf::SpfOptions{.metric = metric});
      const mpls::ForwardResult r = actions.send(s, t);
      std::ostringstream ctx;
      ctx << "step " << step << " probe " << s << "->" << t << ": ";
      if (want == graph::kUnreachable) {
        ++report.expected_unreachable;
        if (r.delivered()) {
          violate(ctx.str() + "delivered although the pair is disconnected");
        }
        continue;
      }
      if (!r.delivered()) {
        violate(ctx.str() + "not delivered (" + to_string(r.status) +
                ") although a route exists");
        continue;
      }
      ++report.delivered;
      const Weight got = trace_cost(g, r.trace, metric);
      // Local patches may legitimately stretch routes; only flag routes
      // that are WORSE than what pure local patching could explain — here
      // we accept any surviving route when a patch hook exists, and demand
      // optimality otherwise.
      if (!actions.local_patch && got != want) {
        violate(ctx.str() + "route cost " + std::to_string(got) +
                " != optimal " + std::to_string(want));
      }
      // Either way the route must avoid failed elements.
      for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
        if (!mask.node_alive(r.trace[i])) {
          violate(ctx.str() + "route visits failed router");
          break;
        }
      }
    }
  }
  // One flush per drill: the drill is a test harness, so per-step striped
  // adds would only add noise to the metrics it is checking.
  static obs::Counter events =
      obs::MetricsRegistry::global().counter("drill.events");
  static obs::Counter probes =
      obs::MetricsRegistry::global().counter("drill.probes");
  static obs::Counter violations =
      obs::MetricsRegistry::global().counter("drill.violations");
  events.add(report.events);
  probes.add(report.probes);
  violations.add(report.violations.size());
  return report;
}

}  // namespace rbpc::core
