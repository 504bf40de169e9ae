#include "chaos/storm.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::chaos {

using graph::EdgeId;
using lsdb::SimTime;

graph::FailureMask Storm::mask_at(lsdb::SimTime t) const {
  graph::FailureMask mask;
  for (const StormEvent& tr : truth) {
    if (tr.at > t) break;  // truth is in time order
    if (tr.event.up) {
      mask.restore_edge(tr.event.edge);
    } else {
      mask.fail_edge(tr.event.edge);
    }
  }
  return mask;
}

std::vector<std::uint64_t> Storm::final_generations(
    std::size_t num_edges) const {
  std::vector<std::uint64_t> gen(num_edges, 0);
  for (const StormEvent& t : truth) {
    gen[t.event.edge] = std::max(gen[t.event.edge], t.event.generation);
  }
  return gen;
}

std::vector<StormEvent> plan_transitions(const graph::Graph& g,
                                         const StormConfig& config,
                                         const FaultPlan& plan, Rng& rng,
                                         std::size_t* events) {
  require(g.num_edges() >= 1, "plan_transitions: graph has no links");
  // An edge is eligible for a new event only once its previous transition
  // sequence (flap tail included) ended, and at most max_concurrent links
  // are planned-down at once.
  std::vector<StormEvent> transitions;
  const auto add = [&](SimTime at, EdgeId e, bool up, std::uint64_t gen) {
    transitions.push_back({at, lsdb::LinkEvent{e, up, gen}});
  };
  std::vector<std::uint64_t> gen(g.num_edges(), 0);
  std::vector<char> planned_down(g.num_edges(), 0);
  std::vector<SimTime> busy_until(g.num_edges(), -1.0);
  std::size_t down_count = 0;
  std::size_t planned_events = 0;
  for (std::size_t i = 0; i < config.events; ++i) {
    const SimTime t = static_cast<SimTime>(i + 1) * config.event_spacing;
    bool handled = false;
    const bool want_recover =
        down_count > 0 && (down_count >= config.max_concurrent ||
                           rng.chance(config.recover_bias));
    if (want_recover) {
      std::vector<EdgeId> candidates;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (planned_down[e] && busy_until[e] < t) candidates.push_back(e);
      }
      if (!candidates.empty()) {
        const EdgeId e = candidates[rng.below(candidates.size())];
        add(t, e, true, ++gen[e]);
        planned_down[e] = 0;
        --down_count;
        busy_until[e] = t;
        handled = true;
      }
    }
    if (!handled && down_count < config.max_concurrent &&
        !config.srlg_groups.empty() && config.srlg_bias > 0.0 &&
        rng.chance(config.srlg_bias)) {
      // Correlated cut: fail a whole shared-risk group atomically — every
      // member transitions down at the same timestamp (no flap expansion;
      // a severed conduit does not bounce as a unit).
      for (int attempt = 0; attempt < 8 && !handled; ++attempt) {
        const auto& group =
            config.srlg_groups[rng.below(config.srlg_groups.size())];
        bool eligible = !group.empty();
        for (const EdgeId e : group) {
          if (e >= g.num_edges() || planned_down[e] || busy_until[e] >= t) {
            eligible = false;
            break;
          }
        }
        if (!eligible) continue;
        for (const EdgeId e : group) {
          add(t, e, false, ++gen[e]);
          planned_down[e] = 1;
          ++down_count;
          busy_until[e] = t;
        }
        handled = true;
      }
    }
    if (!handled && down_count < config.max_concurrent) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
        if (planned_down[e] || busy_until[e] >= t) continue;
        SimTime at = t;
        add(at, e, false, ++gen[e]);
        for (std::size_t k = 0; k < config.faults.flap_count; ++k) {
          at += plan.dwell(e, gen[e], 2 * k, /*down=*/true);
          add(at, e, true, ++gen[e]);
          at += plan.dwell(e, gen[e], 2 * k + 1, /*down=*/false);
          add(at, e, false, ++gen[e]);
        }
        planned_down[e] = 1;
        ++down_count;
        busy_until[e] = at;
        handled = true;
        break;
      }
    }
    if (handled) ++planned_events;
  }
  if (events != nullptr) *events = planned_events;
  return transitions;
}

Storm plan_storm(const graph::Graph& g, const StormConfig& config, Rng& rng) {
  // One storm seed drives everything: the scenario comes from `rng`, the
  // delivery fates from a FaultPlan forked off it.
  const FaultPlan plan(config.faults, rng.next());
  Storm storm;
  storm.truth = plan_transitions(g, config, plan, rng, nullptr);
  std::stable_sort(storm.truth.begin(), storm.truth.end(),
                   [](const StormEvent& a, const StormEvent& b) {
                     return a.at < b.at;
                   });
  SimTime horizon = 0.0;
  for (const StormEvent& tr : storm.truth) horizon = std::max(horizon, tr.at);

  // ---- perturb into the delivery stream -----------------------------------
  // The storm has one consumer (the service), so fates are keyed as if it
  // were router 0 — what matters is that they are deterministic per
  // (edge, generation), not which router id tags them.
  for (const StormEvent& tr : storm.truth) {
    const lsdb::LinkEvent& ev = tr.event;
    const DetectFate detect = plan.detect_fate(ev.edge, ev.generation);
    if (detect.missed) {
      ++storm.lost;
      continue;  // only the closing refresh announces this generation
    }
    const SimTime base = tr.at + detect.latency + config.delivery_delay;
    const LsaFate fate = plan.lsa_fate(ev.edge, ev.generation, /*router=*/0);
    if (fate.lost) {
      ++storm.lost;
    } else {
      storm.deliveries.push_back({base + fate.extra_delay, ev});
      horizon = std::max(horizon, base + fate.extra_delay);
    }
    if (fate.duplicated) {
      ++storm.duplicated;
      storm.deliveries.push_back({base + fate.duplicate_delay, ev});
      horizon = std::max(horizon, base + fate.duplicate_delay);
    }
  }

  // ---- closing refresh ------------------------------------------------------
  // One reliable, authoritative LSA per touched edge: whatever was lost or
  // arrived out of order above, ingesting the whole stream converges the
  // view to the ground truth (the generation gate discards everything this
  // supersedes).
  const graph::FailureMask final = storm.final_mask();
  const std::vector<std::uint64_t> gen = storm.final_generations(g.num_edges());
  const SimTime refresh_at = horizon + config.faults.refresh_interval;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (gen[e] == 0) continue;
    storm.deliveries.push_back(
        {refresh_at, lsdb::LinkEvent{e, !final.edge_failed(e), gen[e]}});
  }

  std::stable_sort(storm.deliveries.begin(), storm.deliveries.end(),
                   [](const StormEvent& a, const StormEvent& b) {
                     return a.at < b.at;
                   });
  return storm;
}

}  // namespace rbpc::chaos
