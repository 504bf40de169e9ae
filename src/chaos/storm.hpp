// Storm planner: turns a FaultPlan into the *ingest stream* of the
// always-on restoration service.
//
// The chaos drill (chaos_drill.hpp) drives a controller inside a simulated
// event queue; the service instead consumes a pre-planned, timestamped LSA
// stream and reroutes concurrently while it keeps arriving. Both plan their
// ground truth with one scheduler, plan_transitions (seeded fail/recover
// churn with flap expansion, per-edge generation numbering); plan_storm
// applies the FaultPlan's delivery fates on top:
//
//  * lost deliveries are dropped from the stream (the closing refresh
//    re-announces the edge, as the protocol's retransmission would);
//  * jitter delays deliveries, which *reorders* the stream across edges
//    and across generations of one edge — exercising the LSDB's
//    newest-wins generation gating;
//  * duplicated deliveries appear twice.
//
// The stream ends with a reliable refresh epoch: one authoritative LSA per
// touched edge carrying its final generation and state. Ingesting the
// entire stream therefore always converges the view to the ground truth —
// the precondition for the service's post-quiescence invariants.
//
// Determinism: identical (graph, config, rng seed) produce identical
// storms, byte for byte, regardless of who consumes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "lsdb/lsdb.hpp"
#include "util/rng.hpp"

namespace rbpc::chaos {

/// One timestamped LSA in the ingest stream (or one ground-truth
/// transition).
struct StormEvent {
  lsdb::SimTime at = 0.0;
  lsdb::LinkEvent event;
};

struct StormConfig {
  FaultSpec faults;
  std::size_t events = 20;            ///< fail/recover transitions to plan
  lsdb::SimTime event_spacing = 5.0;  ///< sim time between transitions
  std::size_t max_concurrent = 3;     ///< cap on simultaneously failed links
  double recover_bias = 0.4;          ///< chance to recover (when possible)
  lsdb::SimTime delivery_delay = 1.0; ///< base transition->delivery latency
  /// Shared-risk link groups (the edge lists of chaos/srlg.hpp's groups):
  /// when a failure event picks a group, every member link fails
  /// atomically at the same timestamp — the correlated multi-failure the
  /// k >= 2 lemmas are about. A group failure may overshoot max_concurrent
  /// by its size; that is the point of a correlated cut. Recoveries stay
  /// per-link (repairs are).
  std::vector<std::vector<graph::EdgeId>> srlg_groups;
  /// Chance a failure event targets a shared-risk group instead of one
  /// link. 0 (the default) leaves planning bit-identical to group-free
  /// storms.
  double srlg_bias = 0.0;
};

struct Storm {
  /// Ground-truth transitions in time order (flap bounces included).
  std::vector<StormEvent> truth;
  /// The perturbed LSA stream, sorted by (time, planning order): what the
  /// service ingests. Includes the closing refresh.
  std::vector<StormEvent> deliveries;
  /// Deliveries dropped by the fault plan (refresh re-announced them).
  std::size_t lost = 0;
  /// Duplicate deliveries injected.
  std::size_t duplicated = 0;

  /// The ground-truth failure state after all transitions.
  graph::FailureMask final_mask() const {
    return mask_at(std::numeric_limits<lsdb::SimTime>::infinity());
  }
  /// The ground-truth failure state after the transitions with at <= t —
  /// what the data plane enforces at time t. The graceful-restart drill
  /// uses this to grade retained FECs while the control plane is down:
  /// a stale route keeps delivering iff it is alive under mask_at(crash).
  graph::FailureMask mask_at(lsdb::SimTime t) const;
  /// Highest generation per edge (0 = untouched), from the truth stream.
  std::vector<std::uint64_t> final_generations(std::size_t num_edges) const;
};

/// The transition scheduler the storm and the chaos drill share: seeded
/// fail/recover churn, `config.events` event slots `event_spacing` apart,
/// at most max_concurrent links planned down, an edge eligible again only
/// once its previous sequence (flap tail included) ended, and each failure
/// expanded into `faults.flap_count` jittered bounces drawn from `plan`.
/// Generations number each edge's transitions from 1. Returns the ground-
/// truth transitions in planning order (not time order: flap tails
/// interleave); `events`, when non-null, receives the number of event
/// slots that planned a change. With srlg_bias == 0 no shared-risk group
/// is drawn, so the drill (which plans none) and a storm with the same seed
/// and settings get the same transitions.
std::vector<StormEvent> plan_transitions(const graph::Graph& g,
                                         const StormConfig& config,
                                         const FaultPlan& plan, Rng& rng,
                                         std::size_t* events);

/// Plans a seeded flap storm over `g`. The scenario comes from `rng`; the
/// delivery fates from a FaultPlan forked off it (so two storms with the
/// same seed are identical even if consumed differently).
Storm plan_storm(const graph::Graph& g, const StormConfig& config, Rng& rng);

}  // namespace rbpc::chaos
