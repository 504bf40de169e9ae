// Causal per-reroute tracing: the RerouteRecord lifecycle POD.
//
// Every reroute the always-on service runs gets a process-unique request id
// at ingest (the moment enqueue_demand wins the dedup CAS) and carries it
// through the whole pipeline: MPMC queue -> LSDB snapshot -> SPF /
// incremental repair -> greedy decomposition -> FEC install -> revalidation
// re-enqueue. Each stage stamps a steady-clock nanosecond timestamp into a
// fixed-size POD RerouteRecord built on the worker's stack — no heap
// allocation anywhere on the warm path (the same discipline as the arena
// restore kernels; bench/micro_perf's BM_RerouteRecordCapture measures the
// full capture + publish cost). When the reroute finishes, the record is
// published into the service's FlightRecorder ring (flight_recorder.hpp)
// and its request id is attached as an exemplar to the svc.restore.latency
// histogram bucket the reroute landed in, so a scrape's tail bucket names
// a concrete reroute to go look up in the flight dump.
//
// The record also captures *which rung of the graceful-degradation ladder*
// served the reroute (see DESIGN.md sections 10 and 12): cached tree ->
// single-failure cut scan -> incremental repair -> scratch SPF -> explicit
// no-route. A flight dump after a failed drill therefore shows not just how
// slow each reroute was but how far it degraded and why.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace rbpc::obs {

/// Graceful-degradation ladder rung a reroute was served from, worst rung
/// reached wins. Ordered: higher = further down the ladder.
enum class Rung : std::uint8_t {
  kCached = 0,    ///< base/pooled tree was already settled (cache hit)
  kCut = 1,       ///< one failed link: route from two unfailed trees
  kRepaired = 2,  ///< incremental SPT repair from the unfailed base tree
  kScratch = 3,   ///< from-scratch SPF (repair fallback or no pooled view)
  kNoRoute = 4,   ///< destination unreachable: explicit empty route
};

/// Human-readable rung name ("cached", "repaired", ...).
const char* rung_name(Rung r);

/// RerouteRecord flag bits.
inline constexpr std::uint8_t kFlagInstalled = 1u << 0;    ///< route changed
inline constexpr std::uint8_t kFlagRevalidated = 1u << 1;  ///< re-enqueued
/// Pass was (re-)enqueued by startup recovery (snapshot + WAL replay), not
/// by a live LSA — flight dumps from a warm restart label catch-up work.
inline constexpr std::uint8_t kFlagRecovery = 1u << 2;

/// One reroute's lifecycle. Plain trivially-copyable data: built on the
/// worker's stack, published into the flight recorder by relaxed atomic
/// word stores (see flight_recorder.hpp). A zero timestamp means the stage
/// was never stamped; the service stamps every stage, so an unreachable
/// destination's record has an empty decompose stage, not a zero stamp.
/// Timestamps are obs::now_ns() values from one steady clock, so
/// cross-record ordering is meaningful, and the service's svc.reroute /
/// svc.spf / svc.decompose histograms are timed from them.
struct RerouteRecord {
  std::uint64_t request_id = 0;  ///< process-unique, assigned at ingest
  std::uint64_t enqueue_ns = 0;  ///< enqueue_demand won the dedup CAS
  std::uint64_t start_ns = 0;    ///< a worker dequeued the demand
  std::uint64_t snapshot_ns = 0; ///< LSDB snapshot taken (down list held)
  std::uint64_t spf_ns = 0;      ///< shortest-path tree ready
  std::uint64_t decompose_ns = 0;///< greedy decomposition done
  /// The worker's commit group finished: routes installed under one lock
  /// hold and the group's WAL records appended. A demand's install stage
  /// therefore includes the compute time of the demands after it in its
  /// group.
  std::uint64_t install_ns = 0;
  std::uint64_t done_ns = 0;     ///< record sealed (after revalidation check)
  std::uint64_t snapshot_version = 0;  ///< LSDB version rerouted against
  std::uint32_t demand = 0;      ///< demand index in the service
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t worker = 0;      ///< worker slot that ran the reroute
  std::uint8_t rung = 0;         ///< Rung, worst reached
  std::uint8_t flags = 0;        ///< kFlag* bits
  std::uint8_t group = 0;        ///< size of the commit group (0 = none)
  std::uint8_t pad_[5] = {};     ///< explicit tail: no implicit padding

  /// 64-bit words a record occupies (flight-recorder slot width). The
  /// flight recorder copies a record to and from its words with
  /// std::bit_cast, so the round trip is exact.
  static constexpr std::size_t kWords = 12;
};

static_assert(sizeof(RerouteRecord) == RerouteRecord::kWords * 8,
              "RerouteRecord packs into kWords 64-bit words");
static_assert(std::has_unique_object_representations_v<RerouteRecord>,
              "RerouteRecord has no implicit padding for bit_cast to copy");

/// Process-wide request-id source: returns 1, 2, 3, ... Ids are never
/// reused; 0 is reserved as "no request".
std::uint64_t next_request_id();

}  // namespace rbpc::obs
