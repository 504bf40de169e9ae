// Link-state databases and the failure-notification flood.
//
// The paper's schemes differ in *when* a router learns of a failure: the
// adjacent router detects it immediately (local RBPC), while the source
// router waits for the link-state protocol to flood the LSA (source RBPC).
// flood_notification_times models that propagation: an LSA originates at
// both endpoints of the failed link and travels hop-by-hop over surviving
// links with a fixed per-link delay plus a per-router processing delay,
// which is all the hybrid scheme's timeline (core/hybrid) depends on.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "lsdb/event_queue.hpp"

namespace rbpc::lsdb {

/// A topology-change announcement.
struct LinkEvent {
  graph::EdgeId edge = graph::kInvalidEdge;
  bool up = false;  ///< false = failure, true = recovery
  /// LSA sequence number for this edge. 0 means "unsequenced" (legacy
  /// callers): such events are always applied. Nonzero generations enable
  /// the duplicate/stale suppression real floods need — a re-flooded copy
  /// (generation already applied) and a reordered older LSA (generation
  /// below the applied one) are both discarded by Lsdb::apply.
  std::uint64_t generation = 0;
};

/// What the newest-wins generation rule does with an incoming LSA.
enum class GenerationVerdict {
  kApply,      ///< unsequenced, or newer than the applied generation
  kDuplicate,  ///< a re-flooded copy of the applied generation
  kStale,      ///< a reordered LSA older than the applied generation
};

/// The generation gate every link-state view applies (Lsdb::apply and
/// service::ShardedLsdb::apply): `incoming` is the LSA's generation,
/// `applied` the highest one already applied for its edge (0 = none).
/// Generation 0 marks an unsequenced event, which always applies.
constexpr GenerationVerdict gate_generation(std::uint64_t incoming,
                                            std::uint64_t applied) {
  if (incoming == 0 || incoming > applied) return GenerationVerdict::kApply;
  return incoming == applied ? GenerationVerdict::kDuplicate
                             : GenerationVerdict::kStale;
}

/// One edge's durable link state: the pair a persistence plane must carry
/// to reconstruct an Lsdb exactly. Replaying records through the
/// generation-gated apply() is order-independent per edge (newest wins,
/// duplicates discard), which is what lets snapshot + WAL replay restore a
/// view without caring how appends interleaved (src/persist).
struct LinkStateRecord {
  graph::EdgeId edge = graph::kInvalidEdge;
  bool down = false;
  std::uint64_t generation = 0;  ///< highest applied LSA generation (0 = none)

  friend bool operator==(const LinkStateRecord&,
                         const LinkStateRecord&) = default;
};

/// One router's view of which links are currently down. Each router applies
/// the LSAs it has received; views therefore lag reality during floods.
/// Chaotic floods deliver LSAs lost, late, duplicated and reordered; the
/// per-edge generation bookkeeping makes apply() idempotent and
/// newest-wins, which is what lets a perturbed flood still converge to the
/// true topology.
class Lsdb {
 public:
  /// Applies the LSA unless it is a duplicate or older than an already
  /// applied LSA for the same edge (nonzero generations only). Returns
  /// true when the view changed ownership of the event (i.e. it was
  /// applied), false when it was discarded.
  bool apply(const LinkEvent& ev);
  bool knows_down(graph::EdgeId e) const;
  /// The router's current (possibly stale) failure view.
  const graph::FailureMask& view() const { return view_; }

  /// Highest generation applied for `e` (0 = none / unsequenced only).
  std::uint64_t applied_generation(graph::EdgeId e) const;

  /// Discard counters: re-delivered already-applied generations, and LSAs
  /// superseded by a newer applied generation.
  std::uint64_t duplicates_discarded() const { return duplicates_; }
  std::uint64_t stale_discarded() const { return stale_; }

  /// The view's durable state: one record per *touched* edge (down or
  /// nonzero applied generation), in edge order. import_records() of the
  /// result into a fresh Lsdb reproduces view() and applied_generation()
  /// exactly — the round-trip the persistence plane's snapshots rely on.
  std::vector<LinkStateRecord> export_records() const;
  /// Applies each record as a generation-gated event (so importing into a
  /// non-fresh view keeps newest-wins semantics). Returns records applied.
  std::size_t import_records(const std::vector<LinkStateRecord>& records);

 private:
  graph::FailureMask view_;
  /// edge -> highest applied generation; grown on demand like the mask.
  std::vector<std::uint64_t> generation_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t stale_ = 0;
};

struct FloodParams {
  SimTime link_delay = 1.0;     ///< LSA propagation per link
  SimTime process_delay = 0.1;  ///< per-router LSA processing before re-flood
  SimTime detect_delay = 0.0;   ///< failure detection at the adjacent routers
};

/// Per-router notification times for one link event.
struct FloodOutcome {
  /// notified_at[v] is the simulation time router v applied the LSA;
  /// +infinity when the flood cannot reach v (v disconnected).
  std::vector<SimTime> notified_at;
};

/// Computes when each router learns that `e` changed state, flooding from
/// both endpoints at `t0` over links surviving `mask_after` (which should
/// already reflect the failure itself). Implemented as a delay-metric
/// Dijkstra — equivalent to running the hop-by-hop flood to quiescence.
FloodOutcome flood_notification_times(const graph::Graph& g,
                                      const graph::FailureMask& mask_after,
                                      graph::EdgeId e, SimTime t0,
                                      const FloodParams& params = {});

}  // namespace rbpc::lsdb
