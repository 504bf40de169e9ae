// RestorationService: the always-on form of the restoration pipeline.
//
// The drill engines (core/drill, chaos/chaos_drill) are stop-the-world: a
// failure arrives, the controller reroutes everything, the world resumes.
// This service instead runs continuously — LSAs stream in (ingest, any
// thread), reroutes run concurrently on a worker pool, and readers observe
// the current FEC table at any time. Three pieces make that safe:
//
//  * one generation-numbered LSDB whose down-link list is an immutable
//    shared object (sharded_lsdb.hpp): ingest serializes on one writer
//    lock, and a reroute's snapshot copies the list's shared_ptr without
//    taking that lock or waiting out an apply;
//  * a lock-free MPMC ring (mpmc_queue.hpp) of demand ids feeding
//    long-running consumers on the existing ThreadPool. The ring has a
//    slot per demand and the dedup flag keeps each demand in it at most
//    once, so a push never finds it full: overload has bounded memory and
//    FIFO draining by construction;
//  * a revalidation loop closing the ingest/reroute race: a worker that
//    installed a route computed against snapshot version v re-enqueues its
//    demand when the LSDB moved past v meanwhile. Together with
//    affected-demand selection this makes the quiescent state a pure
//    function of the final failure mask (see service.cpp for the argument),
//    which is what tests/test_service.cpp's equivalence harness checks
//    bit-for-bit against a serial replay.
//
// Routes follow the pinned source-RBPC recipe (canonical padded shortest
// path + greedy decomposition over the canonical base set), so at
// quiescence every demand's route equals source_rbpc_restore(base, s, t,
// final_mask) exactly. The service keeps one store of unfailed trees: the
// tree pool's base cache serves both SPF repair and canonical membership
// (core::SharedCanonicalBaseSet), and it is thread-safe, so workers
// decompose without a lock. Provisioning the baseline routes runs on the
// worker threads before their loops start (DESIGN.md §10). Routes are
// immutable shared objects: a reroute whose snapshot has no failed link
// takes a reference to the provisioned baseline instead of recomputing or
// copying it, an install swaps pointers, and readers copy a pointer under
// the install lock and deep-copy after releasing it. The reverse index
// (link -> demands whose route uses it) keeps a slot per (demand, hop), and
// each demand remembers where its hops sit, so an install moves a route in
// and out of the index in O(hops).
//
// Workers commit in groups: each computes up to kGroupMax demands, then
// installs them all under one hold of the install lock and appends their
// WAL records with one write (and one fsync). A worker commits when its
// queue pop comes back empty, when the group is full, or when the group's
// window has elapsed, so it never parks or exits holding computed routes.
//
// The event -> restored path has no sleep poll. A worker that runs out of
// work polls the queue for a moment, then registers as a sleeper and parks
// on a condition variable; ingest() wakes parked workers once, after it has
// queued every affected demand, and only when a sleeper is registered, so
// the busy path takes no lock and makes no syscall per demand. quiesce()
// blocks until the pending count drops to zero, woken by the task that
// completes it or by a task that throws. service.cpp states the
// lost-wakeup argument.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/graph.hpp"
#include "lsdb/lsdb.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "persist/io.hpp"
#include "persist/store.hpp"
#include "service/mpmc_queue.hpp"
#include "service/sharded_lsdb.hpp"
#include "spf/metric.hpp"
#include "spf/tree_pool.hpp"
#include "util/thread_pool.hpp"

namespace rbpc::obs {
class ExpositionServer;
class SloTracker;
}  // namespace rbpc::obs

namespace rbpc::service {

/// One long-lived src -> dst LSP the service keeps restored.
struct Demand {
  graph::NodeId src = 0;
  graph::NodeId dst = 0;
};

/// Crash-safe persistence plane configuration (DESIGN.md §14). Disabled by
/// default; set `dir` to turn it on.
struct PersistOptions {
  /// Store directory (created if missing). Empty = persistence disabled.
  std::string dir;
  /// Rotate a fresh snapshot once this many WAL records accumulated
  /// (checked by the maintenance thread, so rotation stays off the worker
  /// hot path).
  std::uint64_t snapshot_every = 512;
  /// Maintenance thread tick. 0 disables the thread entirely — rotation
  /// then only happens through explicit checkpoint() calls, which is what
  /// the deterministic crash-injection sweep uses.
  std::uint64_t maintenance_interval_us = 2000;
  /// fsync after every WAL append: once per applied LSA and once per commit
  /// group (a committed reroute is durable before its worker moves on).
  bool sync_each_record = true;
  /// Injected I/O backend (crash tests pass a FailpointIo); must outlive
  /// the service. nullptr = the service owns a plain FileIo.
  persist::PersistIo* io = nullptr;
};

struct ServiceOptions {
  std::size_t workers = 0;  ///< reroute workers; 0 = hardware default
  /// Compatibility stub: a floor on the MPMC ring size, which is
  /// max(queue_capacity, number of demands) rounded up to 2^k. The ring
  /// always has a slot per demand, so this only matters to callers that
  /// still set it (perfbench/ does); it goes with the next benchmark
  /// change.
  std::size_t queue_capacity = 0;
  spf::Metric metric = spf::Metric::Hops;

  /// Durable snapshot + WAL state plane; recovery happens in the
  /// constructor (see recovered() / ServiceStats recovery fields).
  PersistOptions persist;

  // --- Introspection plane (obs/) ---
  /// When nonempty, the service writes one flight-recorder JSON dump here
  /// the first time something goes wrong: a no-route install (the ladder
  /// escalated past scratch SPF) or a WAL replay anomaly at startup — red
  /// runs ship their own evidence without anyone asking.
  std::string flight_dump_path;
  /// Opt-in scrape endpoint: serve /metrics (Prometheus), /metrics.json,
  /// /flight and /slo on 127.0.0.1:metrics_port (0 = ephemeral; read the
  /// bound port from RestorationService::metrics_port()).
  bool serve_metrics = false;
  std::uint16_t metrics_port = 0;
  /// Ticked on every scrape when set (must outlive the service).
  obs::SloTracker* slo = nullptr;
};

/// Point-in-time service counters (exact once quiesced).
struct ServiceStats {
  std::uint64_t events_applied = 0;
  std::uint64_t events_discarded = 0;  ///< duplicate + stale LSAs
  std::uint64_t reroutes = 0;          ///< reroute tasks run
  std::uint64_t installs = 0;          ///< installs that changed the route
  std::uint64_t revalidations = 0;     ///< re-enqueues after a version race
  /// Compatibility stub, always 0: the ring never fills, so no demand is
  /// deferred. Kept only because perfbench/ reads it; it goes with the
  /// next benchmark change.
  std::uint64_t deferred = 0;
  std::uint64_t no_route = 0;          ///< demands currently unrestorable
  std::uint64_t snapshots = 0;         ///< LSDB snapshots taken by workers
  /// Reroutes with one failed link that the cut scan answered (no view,
  /// no SPF beyond filling the base store).
  std::uint64_t cut_routes = 0;
  /// Reroutes with one failed link where the cut scan could not prove the
  /// route unique and the pass fell back to a pooled view.
  std::uint64_t cut_fallbacks = 0;
  /// Demands whose route differs from their baseline (the dirty index a
  /// link-up event enqueues from); equals the count of dirty(d).
  std::uint64_t dirty = 0;

  // Persistence plane (all zero when persistence is disabled).
  std::uint64_t wal_appends = 0;       ///< records appended this lifetime
  std::uint64_t wal_bytes = 0;         ///< bytes appended this lifetime
  std::uint64_t persist_snapshots = 0; ///< snapshot rotations this lifetime
  bool recovered = false;              ///< startup loaded a prior snapshot
  std::uint64_t recovered_wal_records = 0;  ///< WAL records replayed
  std::uint64_t recovery_reenqueued = 0;    ///< demands re-enqueued at startup
  std::uint64_t replay_anomalies = 0;  ///< skipped undecodable replay items
  std::uint64_t recovery_us = 0;       ///< recover-and-reenqueue wall time
};

class RestorationService {
 public:
  /// Computes every demand's baseline (unfailed-network) route before
  /// returning, so the service starts from the provisioned state. Throws
  /// PreconditionError on out-of-range demand endpoints.
  RestorationService(const graph::Graph& g, std::vector<Demand> demands,
                     ServiceOptions options = {});
  /// stop()s implicitly.
  ~RestorationService();

  RestorationService(const RestorationService&) = delete;
  RestorationService& operator=(const RestorationService&) = delete;

  const graph::Graph& graph() const { return g_; }
  std::size_t num_demands() const { return demands_.size(); }
  const ShardedLsdb& lsdb() const { return lsdb_; }
  const spf::SnapshotTreePool& tree_pool() const { return pool_; }

  /// Feeds one LSA (thread-safe, any number of concurrent ingest threads).
  /// Applies it to the LSDB and enqueues the affected demands. Returns
  /// whether the LSDB accepted the event (false = duplicate/stale).
  bool ingest(const lsdb::LinkEvent& ev);

  /// Blocks until every pending and in-flight reroute (including
  /// revalidation re-runs) completed. After quiesce() with no concurrent
  /// ingest, routes() is the serial restoration of the final mask.
  /// Callable repeatedly; not an end-of-life operation.
  ///
  /// The wait blocks on a completion signal rather than polling: the task
  /// that takes the pending count to zero wakes it. If a reroute task threw
  /// (a WAL write failed, say), its worker has exited: quiesce() wakes and
  /// rethrows the first such exception, and so does every later call.
  void quiesce();

  /// Stops the workers (drains nothing — call quiesce() first when the
  /// final state matters), waking parked workers and the maintenance thread
  /// at once. Idempotent; ingest after stop still updates the
  /// LSDB but reroutes stay queued forever.
  void stop();

  /// The demand's current route (a copy, made after the install lock is
  /// released).
  core::Restoration route(std::size_t demand) const;
  /// All current routes, index-aligned with the demand vector (copies, as
  /// route()).
  std::vector<core::Restoration> routes() const;
  /// True when the demand's current route differs from its unfailed
  /// baseline (including "no route").
  bool dirty(std::size_t demand) const;

  ServiceStats stats() const;

  // --- Persistence plane ----------------------------------------------------

  bool persistent() const { return store_ != nullptr; }
  /// Whether startup recovered a prior snapshot (graceful restart).
  bool recovered() const { return recovered_; }
  /// Forces a snapshot rotation now (blocks WAL appends for its duration).
  /// The maintenance thread calls this on the records_since_rotate
  /// threshold; tests call it for deterministic rotation points. No-op
  /// when persistence is disabled.
  void checkpoint();

  // --- Worker liveness ------------------------------------------------------

  std::size_t num_workers() const { return pool_threads_.size(); }
  /// obs::now_ns() timestamp of worker w's last loop iteration (0 = never
  /// ran). An idle worker parks for at most about a millisecond before it
  /// loops again, so a live worker's heartbeat advances at least that often,
  /// busy or idle. The service_churn watchdog compares these against now to
  /// flag a silent worker.
  std::uint64_t worker_heartbeat_ns(std::size_t w) const;

  /// The service's flight recorder: every reroute's record lands in its
  /// worker's ring.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  /// The bound scrape port, or 0 when serve_metrics is off.
  std::uint16_t metrics_port() const;

 private:
  /// An installed route: immutable once built, shared by the demand state,
  /// in-flight reroutes and readers, and freed by whichever drops it last.
  using RouteRef = std::shared_ptr<const core::Restoration>;

  /// Per-demand state. route / slots / dirty_at / stamp are guarded by
  /// routes_mu_; `queued` is the lock-free enqueue dedup flag. The
  /// request-trace fields ride the same dedup protocol: the enqueuer that
  /// wins the CAS stamps request_id/enqueue_ns, and the worker that later
  /// clears `queued` is the only reader — so plain release/acquire pairs
  /// through `queued` would suffice, but atomics keep TSan's model exact.
  struct DemandState {
    graph::NodeId src = 0;
    graph::NodeId dst = 0;
    std::atomic<bool> queued{false};
    /// Unfailed-network route. Set once before any worker starts and never
    /// reassigned, so workers read the pointer without a lock.
    RouteRef baseline;
    RouteRef route;  ///< current route (== baseline until a reroute moves it)
    /// slots[i]: where hop i of route sits in edge_demands_[its edge].
    std::vector<std::uint32_t> slots;
    /// Position in dirty_ while route != baseline, else kClean.
    std::uint32_t dirty_at = kClean;
    std::uint64_t stamp = 0;     ///< snapshot version of the last install
    std::atomic<std::uint64_t> request_id{0};   ///< causal id of this pass
    std::atomic<std::uint64_t> enqueue_ns{0};   ///< when the pass was queued
    std::atomic<std::uint8_t> enqueue_flags{0}; ///< kFlag* set by the enqueuer
  };

  static constexpr std::uint32_t kClean = ~std::uint32_t{0};

  /// One computed reroute waiting for its group's commit.
  struct Pending {
    std::size_t demand = 0;
    std::uint64_t version = 0;  ///< snapshot version, the install stamp
    /// The computed route; after an install, the route it replaced (dropped
    /// with the group, outside the install lock).
    RouteRef route;
    persist::WalRecord wal;  ///< the install's WAL image (persistence on)
    bool installed = false;
    /// The snapshot had a link down, so the route was computed (and
    /// svc.spf timed) rather than shared from the baseline.
    bool link_down = false;
    obs::RerouteRecord rec;
  };
  /// A worker's uncommitted reroutes (worker-local; storage is reused).
  struct CommitGroup {
    std::vector<Pending> items;
    std::vector<persist::WalRecord> wal;  ///< winning records, in order
    std::uint64_t opened_ns = 0;          ///< when the first item was popped
  };

  void worker_loop(std::size_t worker);
  /// Polls the queue for a short window (no lock, no syscall); true when
  /// work arrived or stop() was called within it.
  bool poll_for_work() const;
  /// Parks an idle worker until a wake-up, stop(), or the idle bound that
  /// keeps heartbeats fresh.
  void wait_for_work();
  /// Wakes parked workers after new work was queued; no lock and no
  /// syscall when none is parked. Called once per batch, not per demand.
  void wake_workers();
  /// Retires n pending demands; the call that drops the count to zero
  /// wakes any quiesce() caller.
  void complete_tasks(std::size_t n);
  /// Records a worker's exception (the first one sticks) and wakes every
  /// quiesce() caller so it can rethrow it.
  void record_failure(std::exception_ptr error);
  /// Marks the demand pending and queues it, unless it is queued already.
  /// `flags` tags the pass's flight record (obs::kFlagRecovery at startup).
  void enqueue_demand(std::size_t d, std::uint8_t flags = 0);
  /// First half of a reroute: clear the dedup flag, snapshot, climb the
  /// ladder, decompose, into `out`.
  void compute_reroute(std::size_t d, std::size_t worker, Pending& out);
  /// Second half, once per group: install every item under one routes_mu_
  /// hold, append the winners' WAL records in one call, revalidate each
  /// item against its own snapshot, publish the flight records. Leaves the
  /// group empty; the caller retires its demands.
  void commit_group(CommitGroup& group);
  /// One-shot flight dump when the ladder escalates past scratch SPF.
  void maybe_dump_flight(const char* reason);
  /// Installs p.route for p.demand (stamp = p.version), swapping the
  /// replaced route into p.route; returns whether the route changed.
  /// Caller holds routes_mu_.
  bool install_locked(Pending& p);
  /// Moves demand d's current route into / out of the reverse index, one
  /// slot per hop (swap-and-pop on removal). Caller holds routes_mu_.
  void index_route_locked(std::size_t d);
  void unindex_route_locked(std::size_t d);
  /// Adds d to or removes it from the dirty index. Caller holds routes_mu_.
  void set_dirty_locked(std::size_t d, bool dirty);

  // --- Persistence plane (service.cpp, "crash consistency" comment) ---------

  /// Opens/recovers the store; called from the constructor before any
  /// worker exists. Throws RecoveryError when the persisted state is
  /// incompatible with (g, demands).
  void init_persistence();
  /// Applies a recovered snapshot + WAL to the in-memory state and
  /// re-enqueues the demands recovery proves stale (dirty, or route using
  /// a known-down edge) — the superset of the work that was in flight.
  void apply_recovered(const persist::RecoverResult& rec);
  /// Consistent capture of (LSDB records, FEC table) for a snapshot.
  /// Caller holds persist_mu_; takes routes_mu_ internally, only to copy
  /// each demand's (stamp, route pointer).
  persist::SnapshotState capture_state();
  /// Rebuilds edge_demands_, dirty_ and no_route_count_ from the current
  /// routes (constructor-only, after recovery may have replaced them).
  void rebuild_route_index();
  /// Appends one WAL record under persist_mu_ (no-op when disabled).
  void append_wal(const persist::WalRecord& rec);
  /// Background snapshot-rotation thread body.
  void maintenance_loop();

  const graph::Graph& g_;
  ServiceOptions options_;
  ShardedLsdb lsdb_;
  spf::SnapshotTreePool pool_;

  /// Decomposition backend: canonical membership reads the padded unfailed
  /// trees of pool_.base(), the same store SPF repair starts from. That
  /// cache is thread-safe, so workers decompose without a lock.
  core::SharedCanonicalBaseSet base_;

  std::deque<DemandState> demands_;  ///< deque: stable, atomics never move

  mutable std::mutex routes_mu_;
  /// One reverse-index entry: hop `hop` of demand `demand`'s current route.
  struct EdgeSlot {
    std::uint32_t demand = 0;
    std::uint32_t hop = 0;
  };
  /// Reverse index: per edge, a slot for each (demand, hop) of a *current*
  /// route on it, in no particular order (DemandState::slots points back).
  std::vector<std::vector<EdgeSlot>> edge_demands_;
  /// Dirty index: the demands whose route differs from their baseline, in
  /// no particular order (DemandState::dirty_at points back into it).
  std::vector<std::uint32_t> dirty_;
  std::size_t no_route_count_ = 0;

  /// Pending demand ids; a slot per demand, so it never fills.
  MpmcQueue<std::size_t> queue_;
  /// Demands pending in the queue plus reroutes mid-flight.
  std::atomic<std::size_t> inflight_{0};
  /// Set under wake_mu_ by stop(); workers and the maintenance thread exit.
  std::atomic<bool> stopping_{false};

  // --- Wake-up plane (service.cpp, "no lost wake-ups" comment) ---
  std::mutex wake_mu_;
  std::condition_variable work_cv_;  ///< parked workers
  /// quiesce() callers (completion or failure) and the maintenance thread.
  std::condition_variable idle_cv_;
  /// Bumped under wake_mu_ by every wake_workers() that notifies; a parked
  /// worker waits for it to move past the value it read before its checks.
  std::atomic<std::uint64_t> wake_seq_{0};
  std::atomic<std::size_t> sleepers_{0};   ///< workers parked or parking
  std::atomic<std::size_t> quiescers_{0};  ///< threads inside quiesce()
  std::exception_ptr failure_;  ///< first worker exception; guarded by wake_mu_

  // --- Persistence plane ---
  std::unique_ptr<persist::FileIo> owned_io_;  ///< when options.persist.io==0
  std::unique_ptr<persist::PersistentStore> store_;  ///< null = disabled
  /// Serializes WAL appends and rotation; capture_state() nests routes_mu_
  /// inside it (never the other way around — see the crash-consistency
  /// comment in service.cpp). mutable: stats() reads store counters under it.
  mutable std::mutex persist_mu_;
  bool recovered_ = false;  // the recovery_* fields are set once in the
  std::uint64_t recovered_wal_records_ = 0;  // constructor and immutable
  std::uint64_t recovery_reenqueued_ = 0;    // afterwards
  std::uint64_t replay_anomalies_ = 0;
  std::uint64_t recovery_us_ = 0;
  std::thread maint_thread_;  ///< joined in stop()

  /// Per-worker liveness: worker w stores obs::now_ns() each loop
  /// iteration. unique_ptr<atomic[]> because atomics are not movable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> heartbeats_;
  std::vector<obs::Gauge> heartbeat_g_;  ///< svc.worker.heartbeat_ns.<w>

  // Service counters: per-instance values mirrored into the process-wide
  // MetricsRegistry (svc.reroutes / svc.installs / ...) through a single
  // increment site each — stats() and a registry scrape can no longer
  // drift apart.
  obs::InstanceCounter reroutes_;
  obs::InstanceCounter installs_;
  obs::InstanceCounter revalidations_;
  obs::InstanceCounter snapshots_;
  obs::Gauge no_route_g_;  ///< mirrors no_route_count_ (set under routes_mu_)
  obs::Gauge dirty_g_;     ///< svc.dirty, mirrors dirty_.size() (ditto)
  /// Compute-stage timers (svc.reroute / svc.spf / svc.decompose), fed by
  /// commit_group() from each RerouteRecord's stamps.
  obs::SpanSite reroute_span_{"svc.reroute"};
  obs::SpanSite spf_span_{"svc.spf"};
  obs::SpanSite decompose_span_{"svc.decompose"};

  obs::FlightRecorder flight_;
  std::atomic<bool> escalation_dumped_{false};
  /// Owned scrape endpoint (serve_metrics); declared after flight_ so the
  /// server stops before the rings it reads are torn down.
  std::unique_ptr<obs::ExpositionServer> exposition_;

  ThreadPool pool_threads_;  ///< last member: workers die first
};

}  // namespace rbpc::service
