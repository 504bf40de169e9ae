#include "chaos/chaos_drill.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "chaos/chaos_flood.hpp"
#include "chaos/storm.hpp"
#include "lsdb/event_queue.hpp"
#include "obs/metrics.hpp"
#include "spf/spf.hpp"
#include "util/error.hpp"

namespace rbpc::chaos {

using graph::EdgeId;
using graph::NodeId;
using graph::Weight;
using lsdb::SimTime;

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

std::string fmt(SimTime t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << t;
  return os.str();
}

}  // namespace

ChaosReport run_chaos_drill(const graph::Graph& g, spf::Metric metric,
                            const core::DrillActions& actions,
                            const ChaosDrillConfig& config, Rng& rng) {
  require(static_cast<bool>(actions.fail_link) &&
              static_cast<bool>(actions.recover_link) &&
              static_cast<bool>(actions.send) &&
              static_cast<bool>(actions.failures),
          "run_chaos_drill: fail/recover/send/failures hooks are required");
  require(static_cast<bool>(actions.set_data_failures),
          "run_chaos_drill: the set_data_failures hook is required (the "
          "drill must assert ground truth into the data plane)");
  require(g.num_nodes() >= 2, "run_chaos_drill: graph too small");
  require(config.vantage < g.num_nodes(),
          "run_chaos_drill: vantage out of range");
  require(g.num_edges() >= 1, "run_chaos_drill: graph has no links");

  ChaosReport report;
  auto violate_during = [&](const std::string& what) {
    if (report.during_violations.size() < 32) {
      report.during_violations.push_back(what);
    }
  };
  auto violate_post = [&](const std::string& what) {
    if (report.post_violations.size() < 32) {
      report.post_violations.push_back(what);
    }
  };
  auto trace_line = [&](std::string line) {
    if (report.trace.size() < 4096) report.trace.push_back(std::move(line));
  };

  // One drill seed drives everything: the scenario comes from `rng`, the
  // faults from a FaultPlan forked off it.
  const FaultPlan plan(config.faults, rng.next());

  // ---- plan the transition schedule (shared with plan_storm) -------------
  StormConfig schedule;
  schedule.faults = config.faults;
  schedule.events = config.events;
  schedule.event_spacing = config.event_spacing;
  schedule.max_concurrent = config.max_concurrent;
  schedule.recover_bias = config.recover_bias;
  const std::vector<StormEvent> transitions =
      plan_transitions(g, schedule, plan, rng, &report.events);

  // ---- runtime state -------------------------------------------------------
  graph::FailureMask truth;
  lsdb::Lsdb vantage_lsdb;
  lsdb::EventQueue q;
  // (edge, generation) -> time the truth changed; staleness is measured
  // against it when the vantage applies the LSA.
  std::unordered_map<std::uint64_t, SimTime> gen_time;
  auto gen_key = [](EdgeId e, std::uint64_t gn) {
    return (static_cast<std::uint64_t>(e) << 24) | gn;
  };
  // Queued-but-unfired delivery tokens per edge; a newer transition cancels
  // them (they would be discarded as stale anyway — cancelling keeps the
  // queue lean and exercises the supersede path).
  std::vector<std::vector<lsdb::EventToken>> pending_tokens(g.num_edges());
  std::vector<std::uint64_t> truth_gen(g.num_edges(), 0);
  std::size_t transitions_remaining = transitions.size();

  const SimTime staleness_bound =
      config.staleness_bound > 0.0
          ? config.staleness_bound
          : config.faults.refresh_interval *
                static_cast<SimTime>(transitions.size() + 2);

  static obs::Histogram staleness_hist =
      obs::MetricsRegistry::global().histogram("chaos.staleness");

  actions.set_data_failures(truth);

  // Applies one LSA at the vantage and drives the controller to match.
  auto deliver = [&](const lsdb::LinkEvent& ev) {
    if (!vantage_lsdb.apply(ev)) {
      trace_line("t=" + fmt(q.now()) + " vantage discarded edge " +
                 std::to_string(ev.edge) + " gen " +
                 std::to_string(ev.generation));
      return;
    }
    ++report.lsa_applied;
    const SimTime staleness = q.now() - gen_time.at(gen_key(ev.edge, ev.generation));
    report.max_staleness = std::max(report.max_staleness, staleness);
    staleness_hist.record(static_cast<std::uint64_t>(staleness * 1000.0));
    if (staleness > staleness_bound) {
      violate_during("LSA for edge " + std::to_string(ev.edge) + " gen " +
                     std::to_string(ev.generation) + " applied " +
                     fmt(staleness) + " after the transition (bound " +
                     fmt(staleness_bound) + ")");
    }
    trace_line("t=" + fmt(q.now()) + " vantage applied edge " +
               std::to_string(ev.edge) + " gen " +
               std::to_string(ev.generation) + (ev.up ? " up" : " down") +
               " staleness " + fmt(staleness));
    const bool ctl_down = actions.failures().edge_failed(ev.edge);
    if (!ev.up && !ctl_down) {
      actions.fail_link(ev.edge);
    } else if (ev.up && ctl_down) {
      actions.recover_link(ev.edge);
    }
    // The controller re-imposed its view on the data plane; put the ground
    // truth back.
    actions.set_data_failures(truth);
  };

  // ---- schedule the transitions -------------------------------------------
  for (const StormEvent& tr : transitions) {
    q.schedule_at(tr.at, [&, ev = tr.event] {
      if (ev.up) {
        truth.restore_edge(ev.edge);
      } else {
        truth.fail_edge(ev.edge);
      }
      truth_gen[ev.edge] = ev.generation;
      gen_time[gen_key(ev.edge, ev.generation)] = q.now();
      ++report.transitions;
      --transitions_remaining;
      actions.set_data_failures(truth);
      trace_line("t=" + fmt(q.now()) + " edge " + std::to_string(ev.edge) +
                 (ev.up ? " up" : " down") + " gen " +
                 std::to_string(ev.generation));

      for (lsdb::EventToken token : pending_tokens[ev.edge]) {
        if (q.cancel(token)) ++report.lsa_cancelled;
      }
      pending_tokens[ev.edge].clear();

      const ChaosLsaOutcome out =
          chaos_vantage_delivery(g, truth, ev.edge, ev.generation, q.now(),
                                 config.vantage, plan, config.flood);
      if (out.detection_missed) {
        ++report.lsa_missed;
        trace_line("t=" + fmt(q.now()) + " detection missed for edge " +
                   std::to_string(ev.edge) + " gen " +
                   std::to_string(ev.generation));
      }
      if (out.primary_lost) {
        ++report.lsa_lost;
        trace_line("t=" + fmt(q.now()) + " LSA lost for edge " +
                   std::to_string(ev.edge) + " gen " +
                   std::to_string(ev.generation));
      }
      for (const ChaosDelivery& d : out.deliveries) {
        pending_tokens[ev.edge].push_back(
            q.schedule_at(d.at, [&, ev] { deliver(ev); }));
      }
    });
  }

  // ---- periodic refresh ----------------------------------------------------
  // Every refresh_interval, reliably re-flood the current state of any edge
  // the vantage has not caught up on. The chain stops once transitions are
  // done and either everything converged or nothing can make progress
  // (control-plane partition).
  std::function<void()> refresh_epoch;
  refresh_epoch = [&] {
    ++report.refresh_epochs;
    bool any_pending = false;
    bool progress_possible = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (truth_gen[e] == 0 ||
          vantage_lsdb.applied_generation(e) >= truth_gen[e]) {
        continue;
      }
      any_pending = true;
      const SimTime at = reliable_vantage_delivery(g, truth, e, q.now(),
                                                   config.vantage, config.flood);
      if (at == kInf) continue;
      progress_possible = true;
      const lsdb::LinkEvent ev{e, !truth.edge_failed(e), truth_gen[e]};
      pending_tokens[e].push_back(
          q.schedule_at(at, [&, ev] { deliver(ev); }));
      trace_line("t=" + fmt(q.now()) + " refresh re-floods edge " +
                 std::to_string(e) + " gen " + std::to_string(ev.generation));
    }
    if (transitions_remaining > 0 || (any_pending && progress_possible)) {
      q.schedule(config.faults.refresh_interval, refresh_epoch);
    }
  };
  q.schedule(config.faults.refresh_interval, refresh_epoch);

  // ---- during-churn probes with retry-and-backoff -------------------------
  std::function<void(NodeId, NodeId, std::size_t)> probe;
  probe = [&](NodeId s, NodeId t, std::size_t attempt) {
    ++report.probes;
    mpls::ForwardResult r;
    try {
      r = actions.send(s, t);
    } catch (const std::exception& ex) {
      violate_during("probe " + std::to_string(s) + "->" + std::to_string(t) +
                     ": send threw: " + ex.what());
      return;
    }
    if (r.looped) ++report.loops;
    const Weight want =
        spf::distance(g, s, t, truth, spf::SpfOptions{.metric = metric});
    const bool connected = want != graph::kUnreachable;
    const std::string ctx = "t=" + fmt(q.now()) + " probe " +
                            std::to_string(s) + "->" + std::to_string(t);
    if (r.delivered()) {
      if (r.looped) {
        violate_during(ctx + ": delivered off a forwarding loop (a repeated "
                             "state must never reach the destination)");
      }
      if (!connected) {
        violate_during(ctx + ": delivered although the truth disconnects "
                             "the pair");
      }
      for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
        // The trace records routers, not edge ids, so with parallel links we
        // can only require that *some* edge between the hops is truth-alive
        // (the data plane itself refuses to forward over a dead link, so a
        // delivered packet used a live sibling).
        bool hop_alive = false;
        for (const EdgeId e : g.find_all_edges(r.trace[i], r.trace[i + 1])) {
          if (truth.edge_alive(g, e)) {
            hop_alive = true;
            break;
          }
        }
        if (!hop_alive) {
          violate_during(ctx + ": delivered across a truth-dead link");
          break;
        }
      }
      ++report.delivered;
      if (attempt > 0) ++report.delivered_after_retry;
      trace_line(ctx + " delivered (attempt " + std::to_string(attempt) + ")");
      return;
    }
    trace_line(ctx + " dropped " + mpls::to_string(r.status) + " (attempt " +
               std::to_string(attempt) + ")");
    if (!connected) return;  // expected: the truth disconnects the pair
    if (attempt < config.max_retries) {
      ++report.retries;
      q.schedule(config.retry_backoff *
                     static_cast<SimTime>(std::uint64_t{1} << attempt),
                 [&, s, t, attempt] { probe(s, t, attempt + 1); });
    } else {
      // Not a violation: the stale window legitimately outlives the retry
      // budget under heavy loss; the refresh closes it before quiescence.
      ++report.gave_up;
    }
  };
  for (const StormEvent& tr : transitions) {
    for (std::size_t p = 0; p < config.probes_per_event; ++p) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      const SimTime tp = tr.at + rng.uniform() * config.event_spacing;
      if (s == t) continue;
      q.schedule_at(tp, [&, s, t] { probe(s, t, 0); });
    }
  }

  q.run_all();

  // ---- post quiescence -----------------------------------------------------
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (truth_gen[e] != 0 &&
        vantage_lsdb.applied_generation(e) < truth_gen[e]) {
      report.partitioned = true;
      trace_line("post: vantage never reached by edge " + std::to_string(e) +
                 " gen " + std::to_string(truth_gen[e]) +
                 " (control-plane partition)");
    }
  }
  if (!report.partitioned) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (actions.failures().edge_failed(e) != truth.edge_failed(e)) {
        violate_post("view != truth for edge " + std::to_string(e) +
                     " after quiescence (truth " +
                     (truth.edge_failed(e) ? "down" : "up") + ")");
      }
    }
  }
  actions.set_data_failures(truth);
  for (std::size_t p = 0; p < config.quiesce_probes; ++p) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    ++report.quiesce_probes;
    const Weight want =
        spf::distance(g, s, t, truth, spf::SpfOptions{.metric = metric});
    const bool connected = want != graph::kUnreachable;
    mpls::ForwardResult r;
    try {
      r = actions.send(s, t);
    } catch (const std::exception& ex) {
      violate_post("quiesce probe " + std::to_string(s) + "->" +
                   std::to_string(t) + ": send threw: " + ex.what());
      continue;
    }
    const std::string ctx =
        "quiesce probe " + std::to_string(s) + "->" + std::to_string(t);
    if (r.delivered()) {
      if (r.looped) ++report.loops;
      if (!connected) {
        violate_post(ctx + ": delivered although the pair is disconnected");
        continue;
      }
      if (r.looped) {
        violate_post(ctx + ": delivered off a forwarding loop");
      }
      if (!report.partitioned && config.check_optimality) {
        const Weight got = core::trace_cost(g, r.trace, metric);
        if (got != want) {
          violate_post(ctx + ": route cost " + std::to_string(got) +
                       " != optimal " + std::to_string(want));
        }
      }
    } else if (connected && !report.partitioned) {
      violate_post(ctx + ": not delivered (" + mpls::to_string(r.status) +
                   ") although a route exists");
    }
  }

  report.lsa_duplicates = vantage_lsdb.duplicates_discarded();
  report.lsa_stale = vantage_lsdb.stale_discarded();

  // One flush per drill, mirroring core/drill's convention.
  static obs::Counter events =
      obs::MetricsRegistry::global().counter("chaos.events");
  static obs::Counter transitions_c =
      obs::MetricsRegistry::global().counter("chaos.transitions");
  static obs::Counter probes =
      obs::MetricsRegistry::global().counter("chaos.probes");
  static obs::Counter applied =
      obs::MetricsRegistry::global().counter("chaos.lsa.applied");
  static obs::Counter lost =
      obs::MetricsRegistry::global().counter("chaos.lsa.lost");
  static obs::Counter missed =
      obs::MetricsRegistry::global().counter("chaos.lsa.missed");
  static obs::Counter cancelled =
      obs::MetricsRegistry::global().counter("chaos.lsa.cancelled");
  static obs::Counter loops =
      obs::MetricsRegistry::global().counter("chaos.loops");
  static obs::Counter retries =
      obs::MetricsRegistry::global().counter("chaos.retries");
  static obs::Counter violations =
      obs::MetricsRegistry::global().counter("chaos.violations");
  events.add(report.events);
  transitions_c.add(report.transitions);
  probes.add(report.probes);
  applied.add(report.lsa_applied);
  lost.add(report.lsa_lost);
  missed.add(report.lsa_missed);
  cancelled.add(report.lsa_cancelled);
  loops.add(report.loops);
  retries.add(report.retries);
  violations.add(report.during_violations.size() +
                 report.post_violations.size());
  return report;
}

}  // namespace rbpc::chaos
