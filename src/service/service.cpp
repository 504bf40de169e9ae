#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "core/decompose.hpp"
#include "graph/path_arena.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

// Why the quiescent state is a pure function of the final failure mask
// (the property tests/test_service.cpp checks against a serial replay):
//
// Every install stamps the demand with the snapshot version it was computed
// against, and the worker re-enqueues the demand when the LSDB moved past
// that version during the computation (the *revalidation* step). Both the
// affected-demand scan (under routes_mu_, after the LSDB version bump) and
// the install + version re-read (install under routes_mu_, version read
// after the unlock) are ordered through the same mutex, so for any
// event/reroute race at least one side sees the other: either the scan
// observes the freshly installed route, or the worker observes the bumped
// version and re-enqueues. No demand can end up stale without a pending
// task recording that fact.
//
// At quiescence (queue drained, nothing in flight) each demand's last
// reroute therefore ran against a snapshot no event after which affected
// it. Affected-selection is conservative-exact for the canonical recipe:
//
//  * a DOWN of edge e reroutes exactly the demands whose current route
//    uses e. A canonical (padded, hence unique) shortest route that avoids
//    e stays the canonical shortest when e fails — removing edges never
//    shortens any path and never changes the padded comparison among
//    surviving ones.
//  * an UP reroutes the *dirty* demands (route != unfailed baseline). A
//    clean demand sits on its unfailed-canonical route, which is canonical-
//    shortest under every mask it survives; failing to reroute it is
//    correct. A dirty demand is always reconsidered, so recoveries that
//    re-enable a shorter (or any) route are picked up.
//
// Induction over the post-quiescence event suffix of each demand's last
// snapshot: none of those events changed the demand's canonical route, so
// the installed route equals source_rbpc_restore under the final mask —
// and greedy decomposition over the canonical base set is a deterministic
// function of the route, so the whole Restoration matches bit for bit.
//
// Group commit keeps every step of that argument per demand. A worker
// computes several demands (each clears its dedup flag before its own
// snapshot) and then installs them under one routes_mu_ hold, each stamped
// with its own snapshot's version and gated against its own stamp; the
// version re-read comes after that hold, so it still follows each install,
// and each demand is compared against its own snapshot version. Delaying
// an install until the group commits only widens the window in which an
// event can race it, and the race is closed the same way. The baseline
// a pass reuses when its snapshot has no failed link is the route the
// ladder's cached rung would compute (same unfailed tree, same
// decomposition), so it changes no bit either.
//
// The SPF ladder a reroute climbs down (compute_reroute):
//
//  * no failed link: the demand's provisioned baseline, which was read off
//    the source's unfailed tree (rung "cached"). Routes are immutable and
//    shared, so this is a pointer copy;
//  * otherwise: SnapshotTreePool::route (spf/tree_pool.hpp), the one
//    ladder the batch engine and the controller climb too. With exactly
//    one failed link it reads the route off the source's and the
//    destination's unfailed trees (rung "cut"): two lock-free base-store
//    loads, no view and no FailureMask — the snapshot's down list names
//    the link. Otherwise, or when the cut cannot prove the route unique
//    (counted as ladder.cut_fallback), it takes the pooled view for the
//    down list, repairing the source's tree from the base store (rung
//    "repaired") or running SPF from scratch (rung "scratch"). Every rung
//    yields the repaired tree's path bit for bit (spf/replacement.hpp), so
//    the argument above is untouched.
//
// No lost wake-ups (the event -> restored path has no sleep poll; DESIGN.md
// §10). Two kinds of thread block on wake_mu_'s condition variables, and
// each pairs a seq_cst registration with a re-check against a notifier that
// publishes first and then reads the registration:
//
//  * An idle worker bumps sleepers_, issues a seq_cst fence, reads
//    wake_seq_, and only then re-checks the queue. It parks until wake_seq_
//    moves past the value it read. The notifier (ingest() after its whole
//    batch) pushes the work, issues a seq_cst fence, and reads sleepers_;
//    when it is non-zero it bumps wake_seq_ under wake_mu_ and notifies. A
//    queue push is an atomic the fences order, so either the notifier sees
//    the registration or the worker's re-check sees the work. A bump that
//    precedes the worker's read of wake_seq_ happens-before the re-check,
//    so that re-check sees the work; a bump after it ends the wait. The
//    wait is also bounded (kIdleWait), so the heartbeat keeps moving, and
//    stop() sets stopping_ under wake_mu_.
//  * A quiesce() caller bumps quiescers_ (seq_cst) and waits under
//    wake_mu_ for inflight_ == 0 or a recorded failure. The task whose
//    seq_cst decrement takes inflight_ from 1 to 0 then reads quiescers_
//    (seq_cst): of the two stores, at least one is seen by the other
//    side's load, so either the quiescer's predicate sees zero or the task
//    notifies, after passing through wake_mu_ so the quiescer is already
//    waiting. A task that throws records the failure under wake_mu_ before
//    its count drops, so a quiescer woken by that drop always finds it.
//
// Busy workers never touch wake_mu_, and a batch of N demands costs one
// fence and one load, plus one notify only when a worker is parked. The
// short poll a worker runs before it registers (poll_for_work) changes
// nothing above: it returns only when work is already visible. Neither does
// group commit: a worker commits its group (and only then drops the
// group's count from inflight_) before it polls, parks or exits, so the
// pending count never reaches zero, and no worker sleeps, while a computed
// route is uninstalled. A revalidation re-enqueue from a worker needs no
// notify either: that worker pops it before it polls or parks.
//
// Why the queue never fills: only the thread whose CAS takes a demand's
// `queued` flag from false to true pushes it, and the flag returns to false
// only in compute_reroute, after the worker popped that entry. So the ring
// holds each demand at most once, and it has a slot per demand. That holds
// for every producer: ingest (before and after stop()), revalidation and
// recovery's re-enqueues. MpmcQueue counts an entry a consumer has claimed
// as gone, so a slow pop cannot make a push fail either. The ring costs
// bit_ceil(D) 64-byte cells, and a pending demand waits behind at most
// D - 1 others.
//
// Crash consistency of the persistence plane (DESIGN.md §14):
//
// Applied LSAs and committed reroutes append to the WAL *after* their
// in-memory mutation (lsdb apply / a group's installs under routes_mu_; the
// group's records go out in one append after routes_mu_ is released), and
// snapshot capture runs with persist_mu_ held — the same mutex every append
// holds. So for any append A and rotation R: if A's append happened before
// R took persist_mu_, A's mutation is visible to R's capture (the snapshot
// supersedes the record, and losing the old WAL is safe); if A's append
// happened after, the record lands in the *new* WAL. A record can land in
// the new WAL even though the snapshot already covers it (append raced
// between mutation and lock) — replay absorbs that: LSA replay is
// generation-gated (duplicates discard) and FEC replay is stamp-gated
// newest-wins, both idempotent.
//
// A crash can only lose the *suffix* of in-memory work whose WAL append
// never became durable (plus torn bytes of the record mid-write, which the
// per-record CRC catches and recovery truncates; a group torn mid-write
// keeps a prefix of its records). What remains is a consistent *earlier*
// state of this same service: recovery rebuilds it,
// re-enqueues every demand that is dirty or riding a known-down edge (a
// superset of the work that was in flight), and the LSA flood's
// retransmission/refresh re-delivers whatever the LSDB never durably
// learned — generation gating discards what it already knows. From there
// the purity argument above takes over, so post-recovery quiescence equals
// the serial restoration of the final mask, crash or no crash
// (tests/test_persist.cpp sweeps every kill point to hold exactly this).
namespace rbpc::service {

using graph::EdgeId;
using graph::NodeId;

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

/// Longest an idle worker stays parked: it bounds the gap between the
/// heartbeats of a worker with nothing to do.
constexpr std::chrono::milliseconds kIdleWait{1};

/// How long a worker that just ran out of work polls the queue before it
/// parks. Work often arrives within this window (the next event of a
/// closed loop, say), and picking it up by polling skips a futex wake-up,
/// whose latency grows when the host is busy. Only the first idle pass
/// polls, so an idle service still sleeps.
constexpr std::uint64_t kPollBeforeParkNs = 100'000;

/// Commit-group bounds (DESIGN.md §10): a worker commits its computed
/// reroutes once it holds kGroupMax of them or kGroupWindowNs after it
/// popped the first, whichever comes first, and at once when its queue pop
/// comes back empty. The size fits RerouteRecord::group.
constexpr std::size_t kGroupMax = 32;
constexpr std::uint64_t kGroupWindowNs = 50'000;

/// Failure states whose tree views the pool keeps at once. Churn revisits
/// recent masks (a flapping link alternates two), so a small LRU wins.
constexpr std::size_t kMaxViews = 8;

/// Whether two routes are the same path; a shared route is equal to itself
/// without comparing hops.
bool same_path(const std::shared_ptr<const core::Restoration>& a,
               const std::shared_ptr<const core::Restoration>& b) {
  return a == b || a->backup == b->backup;
}

}  // namespace

RestorationService::RestorationService(const graph::Graph& g,
                                       std::vector<Demand> demands,
                                       ServiceOptions options)
    : g_(g),
      options_(options),
      lsdb_(g.num_edges()),
      pool_(g, spf::SpfOptions{.metric = options.metric, .padded = true},
            spf::TreePoolOptions{.max_views = kMaxViews}),
      base_(pool_.base()),
      edge_demands_(g.num_edges()),
      queue_(std::max(options.queue_capacity, demands.size())),
      reroutes_(registry().counter("svc.reroutes")),
      installs_(registry().counter("svc.installs")),
      revalidations_(registry().counter("svc.revalidations")),
      snapshots_(registry().counter("svc.snapshots")),
      no_route_g_(registry().gauge("svc.no_route")),
      dirty_g_(registry().gauge("svc.dirty")),
      flight_(options.workers == 0 ? ThreadPool::default_threads()
                                   : options.workers,
              options.flight_ring),
      pool_threads_(options.workers) {
  for (const Demand& d : demands) {
    require(d.src < g.num_nodes() && d.dst < g.num_nodes(),
            "RestorationService: demand endpoint out of range");
    require(d.src != d.dst, "RestorationService: demand source == target");
    demands_.emplace_back();
    demands_.back().src = d.src;
    demands_.back().dst = d.dst;
  }

  // Provision the baselines (the unfailed-network canonical routes) on the
  // service's own threads before their worker loops start: this is the
  // state the service starts serving from. Each demand writes only its own
  // slot and every tree is a pure function of its source, so the result is
  // the serial one at any thread count.
  pool_threads_.parallel_for(demands_.size(), [this](std::size_t i) {
    DemandState& st = demands_[i];
    auto r = std::make_shared<core::Restoration>();
    auto tree = pool_.base().tree(st.src);
    if (tree->reachable(st.dst)) {
      r->backup = tree->path_to(g_, st.dst);
      r->decomposition = core::greedy_decompose(base_, r->backup);
    }
    st.baseline = std::move(r);
    st.route = st.baseline;
  });

  // Warm restart: load the persisted state plane (snapshot + WAL replay)
  // over the freshly provisioned baselines, retaining the pre-crash FEC
  // table and re-enqueueing what recovery proves stale. Runs before any
  // worker or the route index exists.
  if (!options_.persist.dir.empty()) init_persistence();

  rebuild_route_index();
  no_route_g_.set(static_cast<std::int64_t>(no_route_count_));
  dirty_g_.set(static_cast<std::int64_t>(dirty_.size()));
  registry().gauge("svc.demands").set(
      static_cast<std::int64_t>(demands_.size()));

  // Per-worker liveness plane: heartbeat slots plus registry gauges the
  // service_churn watchdog (and any scraper) reads.
  heartbeats_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(pool_threads_.size());
  heartbeat_g_.reserve(pool_threads_.size());
  for (std::size_t w = 0; w < pool_threads_.size(); ++w) {
    heartbeats_[w].store(0, std::memory_order_relaxed);
    heartbeat_g_.push_back(
        registry().gauge("svc.worker.heartbeat_ns." + std::to_string(w)));
  }

  if (options_.serve_metrics) {
    obs::ExpositionOptions eo;
    eo.port = options_.metrics_port;
    eo.flight = &flight_;
    eo.slo = options_.slo;
    exposition_ = std::make_unique<obs::ExpositionServer>(eo);
  }

  for (std::size_t w = 0; w < pool_threads_.size(); ++w) {
    pool_threads_.submit([this, w] { worker_loop(w); });
  }

  // Snapshot rotation runs on its own maintenance thread — never on a
  // worker, so the reroute hot path only ever pays a WAL append.
  if (store_ != nullptr && options_.persist.maintenance_interval_us > 0) {
    maint_thread_ = std::thread([this] { maintenance_loop(); });
  }
}

// Out-of-line so the unique_ptr<ExpositionServer> member destroys where the
// type is complete. Member order does the rest: pool_threads_ (workers) dies
// first, then exposition_ (the server joins before the rings it reads go).
RestorationService::~RestorationService() { stop(); }

void RestorationService::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (maint_thread_.joinable()) maint_thread_.join();
}

// --- Persistence plane ------------------------------------------------------

void RestorationService::init_persistence() {
  RBPC_TRACE_SPAN("svc.recover");
  const std::uint64_t t0 = obs::now_ns();
  persist::PersistIo* io = options_.persist.io;
  if (io == nullptr) {
    owned_io_ = std::make_unique<persist::FileIo>();
    io = owned_io_.get();
  }
  store_ = std::make_unique<persist::PersistentStore>(
      *io, persist::StoreOptions{options_.persist.dir,
                                 options_.persist.sync_each_record});

  // Resolve the persistence metric families eagerly so a scrape sees them
  // from service construction, not from the first append/recovery.
  registry().counter("persist.wal.appends");
  registry().counter("persist.wal.bytes");
  registry().counter("persist.wal.truncated");
  registry().counter("persist.snapshots");
  registry().counter("persist.recovery.fallbacks");
  registry().counter("svc.recovery.replayed");
  registry().counter("svc.recovery.reenqueued");
  registry().counter("svc.recovery.anomalies");

  const persist::RecoverResult rec = store_->recover();
  if (rec.found) {
    apply_recovered(rec);
    recovered_ = true;
    recovered_wal_records_ = rec.wal.size();
  } else {
    // Fresh store: publish the provisioned baseline state as snapshot #1 so
    // the rotation invariant ("once the first snapshot exists, every crash
    // leaves a readable one") holds from the very first WAL append.
    store_->rotate(capture_state());
  }
  recovery_us_ = (obs::now_ns() - t0) / 1000;
  if (recovered_) {
    registry().counter("svc.recovery.replayed").add(recovered_wal_records_);
    registry().counter("svc.recovery.reenqueued").add(recovery_reenqueued_);
    registry().counter("svc.recovery.anomalies").add(replay_anomalies_);
    // Registered lazily (recovery path only) so services that never restart
    // do not export an empty histogram.
    registry().histogram("svc.recovery.latency").record(recovery_us_);
  }
}

void RestorationService::apply_recovered(const persist::RecoverResult& rec) {
  const persist::SnapshotState& s = rec.snapshot;
  if (s.num_edges != g_.num_edges() || s.demands.size() != demands_.size()) {
    throw persist::RecoveryError(
        "persist: recovered snapshot does not match this service's graph or "
        "demand set");
  }
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    if (s.demands[i].src != demands_[i].src ||
        s.demands[i].dst != demands_[i].dst) {
      throw persist::RecoveryError(
          "persist: recovered demand endpoints do not match");
    }
  }

  // 1. LSDB: snapshot records then WAL link events, both through the
  // generation-gated apply — replay is order-independent and idempotent.
  lsdb_.import_records(s.links);

  // 2. FEC table: snapshot routes (arena section), then WAL installs
  // stamp-gated newest-wins. Decompositions are recomputed afterwards —
  // greedy decomposition is a deterministic function of (base set, route),
  // so the rebuilt Restoration is bit-identical to the persisted one's.
  graph::PathArena arena;
  arena.adopt(s.arena_nodes, s.arena_edges);
  std::vector<char> replayed(demands_.size(), 0);
  std::vector<graph::Path> backups(demands_.size());  // valid where replayed
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    const persist::DemandRecord& dr = s.demands[i];
    DemandState& st = demands_[i];
    st.stamp = dr.stamp;
    try {
      backups[i] =
          dr.route.empty() ? graph::Path{} : arena.to_path(g_, dr.route);
      replayed[i] = 1;
    } catch (const Error&) {
      ++replay_anomalies_;  // keep the provisioned baseline route
    }
  }
  for (const persist::WalRecord& w : rec.wal) {
    switch (w.type) {
      case persist::WalType::kLinkEvent:
        if (w.link.edge >= g_.num_edges()) {
          ++replay_anomalies_;
          break;
        }
        lsdb_.apply(w.link);
        break;
      case persist::WalType::kFecInstall: {
        if (w.fec.demand >= demands_.size()) {
          ++replay_anomalies_;
          break;
        }
        DemandState& st = demands_[w.fec.demand];
        if (w.fec.stamp < st.stamp) break;  // superseded within the old life
        try {
          backups[w.fec.demand] =
              w.fec.nodes.empty()
                  ? graph::Path{}
                  : graph::Path::from_parts(g_, w.fec.nodes, w.fec.edges);
          st.stamp = w.fec.stamp;
          replayed[w.fec.demand] = 1;
        } catch (const Error&) {
          ++replay_anomalies_;
        }
        break;
      }
    }
  }

  // 3. Finalize: recompute decompositions for replayed routes, reset the
  // install stamps (they ordered installs within the *old* process's
  // snapshot-version sequence; carrying them over would make them compare
  // against a fresh version counter and reject every new install), and
  // re-enqueue the superset of in-flight work — every demand that is dirty
  // or riding an edge the recovered LSDB knows is down. Clean demands keep
  // serving their retained FECs untouched: that is the graceful restart.
  const ShardedLsdb::Snapshot snap = lsdb_.snapshot();
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    DemandState& st = demands_[i];
    if (replayed[i] != 0) {
      if (backups[i] == st.baseline->backup) {
        st.route = st.baseline;  // reuse the baseline's decomposition
      } else {
        auto r = std::make_shared<core::Restoration>();
        r->backup = std::move(backups[i]);
        if (r->restored()) {
          r->decomposition = core::greedy_decompose(base_, r->backup);
        }
        st.route = std::move(r);
      }
    }
    st.stamp = 0;
    const bool dirty = !same_path(st.route, st.baseline);
    bool rides_down_edge = false;
    for (const EdgeId e : st.route->backup.edges()) {
      if (snap.edge_failed(e)) {
        rides_down_edge = true;
        break;
      }
    }
    if (dirty || rides_down_edge) {
      enqueue_demand(i, obs::kFlagRecovery);
      ++recovery_reenqueued_;
    }
  }
  if (replay_anomalies_ > 0) {
    maybe_dump_flight("persist: WAL replay anomaly");
  }
}

persist::SnapshotState RestorationService::capture_state() {
  persist::SnapshotState s;
  s.num_edges = static_cast<std::uint32_t>(g_.num_edges());
  s.links = lsdb_.export_records();

  // The FEC table: each demand's (stamp, route) is read under the install
  // lock, and since routes are immutable the paths are encoded after it is
  // released, into the snapshot's arena section in the PathArena pad-slot
  // layout (nodes/edges index-aligned).
  const auto store_path = [&s](const graph::Path& p) {
    graph::PathRef r;
    if (p.empty()) return r;
    r.offset = static_cast<std::uint32_t>(s.arena_nodes.size());
    r.len = static_cast<std::uint32_t>(p.num_nodes());
    s.arena_nodes.insert(s.arena_nodes.end(), p.nodes().begin(),
                         p.nodes().end());
    s.arena_edges.insert(s.arena_edges.end(), p.edges().begin(),
                         p.edges().end());
    s.arena_edges.push_back(graph::kInvalidEdge);  // pad slot
    return r;
  };
  std::vector<RouteRef> routes;
  routes.reserve(demands_.size());
  s.demands.reserve(demands_.size());
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (const DemandState& st : demands_) {
      persist::DemandRecord dr;
      dr.src = st.src;
      dr.dst = st.dst;
      dr.stamp = st.stamp;
      s.demands.push_back(dr);
      routes.push_back(st.route);
    }
  }
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    s.demands[i].route = store_path(routes[i]->backup);
  }
  return s;
}

void RestorationService::rebuild_route_index() {
  for (auto& list : edge_demands_) list.clear();
  dirty_.clear();
  no_route_count_ = 0;
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    DemandState& st = demands_[i];
    st.dirty_at = kClean;
    set_dirty_locked(i, !same_path(st.route, st.baseline));
    if (!st.route->restored()) ++no_route_count_;
    index_route_locked(i);
  }
}

void RestorationService::append_wal(const persist::WalRecord& rec) {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> lock(persist_mu_);
  store_->append(rec);
}

void RestorationService::checkpoint() {
  if (store_ == nullptr) return;
  RBPC_TRACE_SPAN("svc.checkpoint");
  // persist_mu_ held across capture + rotate: appends racing the capture
  // land in the new WAL (idempotent on replay); appends that beat the lock
  // are covered by the capture. See the crash-consistency comment above.
  std::lock_guard<std::mutex> lock(persist_mu_);
  store_->rotate(capture_state());
}

void RestorationService::maintenance_loop() {
  const auto tick =
      std::chrono::microseconds(options_.persist.maintenance_interval_us);
  const auto stopping = [this] {
    return stopping_.load(std::memory_order_seq_cst);
  };
  for (;;) {
    {
      // stop() wakes this wait, so shutdown never sleeps out a whole tick.
      std::unique_lock<std::mutex> lock(wake_mu_);
      if (idle_cv_.wait_for(lock, tick, stopping)) return;
    }
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(persist_mu_);
      due = store_->records_since_rotate() >= options_.persist.snapshot_every;
    }
    if (due) checkpoint();
  }
}

std::uint16_t RestorationService::metrics_port() const {
  return exposition_ != nullptr ? exposition_->port() : 0;
}

void RestorationService::maybe_dump_flight(const char* reason) {
  if (options_.flight_dump_path.empty()) return;
  bool expected = false;
  if (!escalation_dumped_.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
    return;  // first escalation already shipped the evidence
  }
  flight_.dump_to_file(options_.flight_dump_path, reason);
}

bool RestorationService::ingest(const lsdb::LinkEvent& ev) {
  RBPC_TRACE_SPAN("svc.ingest");
  static obs::Counter applied_c = registry().counter("svc.lsa.applied");
  static obs::Counter discarded_c = registry().counter("svc.lsa.discarded");
  if (!lsdb_.apply(ev)) {
    discarded_c.inc();
    return false;
  }
  applied_c.inc();

  if (store_ != nullptr) {
    // Log the applied LSA before scanning for affected demands: a crash
    // after the in-memory apply but before the append loses only state the
    // flood's retransmission re-delivers (generation gating dedups it).
    persist::WalRecord wr;
    wr.type = persist::WalType::kLinkEvent;
    wr.link = ev;
    append_wal(wr);
  }

  std::vector<std::size_t> affected;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    if (!ev.up) {
      for (const EdgeSlot& slot : edge_demands_[ev.edge]) {
        affected.push_back(slot.demand);
      }
    } else {
      affected.assign(dirty_.begin(), dirty_.end());
    }
  }
  for (const std::size_t d : affected) enqueue_demand(d);
  // One wake-up for the whole batch, after every demand is queued.
  if (!affected.empty()) wake_workers();
  return true;
}

void RestorationService::wake_workers() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_seq_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
}

void RestorationService::enqueue_demand(std::size_t d, std::uint8_t flags) {
  DemandState& st = demands_[d];
  bool expected = false;
  if (!st.queued.compare_exchange_strong(expected, true,
                                         std::memory_order_seq_cst)) {
    return;  // already pending; its task will snapshot fresh state
  }
  // Winning the dedup CAS starts a new causal pass: assign its request id
  // here so every stage downstream — queue, snapshot, SPF, decompose,
  // install, revalidation — reports under one id. The worker that clears
  // `queued` is the only reader, ordered through the flag.
  st.request_id.store(obs::next_request_id(), std::memory_order_relaxed);
  st.enqueue_ns.store(obs::now_ns(), std::memory_order_relaxed);
  st.enqueue_flags.store(flags, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  // The ring holds each queued demand at most once (this CAS is the only
  // way in, and only compute_reroute, after the pop, clears the flag), and
  // it has a slot per demand, so the push cannot find it full.
  const bool pushed = queue_.push(d);
  RBPC_ASSERT(pushed);
}

void RestorationService::worker_loop(std::size_t worker) {
  CommitGroup group;
  group.items.reserve(kGroupMax);
  std::size_t held = 0;  // demands popped and not yet retired
  bool idle = true;  // no task run since the worker last polled or parked
  try {
    std::size_t d = 0;
    for (;;) {
      // Watchdog food: any pass through the loop — busy or idle — proves
      // the worker is alive. service_churn's watchdog compares this against
      // now_ns() and dumps the flight ring for a worker silent too long.
      const std::uint64_t now = obs::now_ns();
      heartbeats_[worker].store(now, std::memory_order_relaxed);
      heartbeat_g_[worker].set(static_cast<std::int64_t>(now));
      if (queue_.pop(d)) {
        ++held;
        if (group.items.empty()) group.opened_ns = now;
        compute_reroute(d, worker, group.items.emplace_back());
        if (group.items.size() >= kGroupMax ||
            obs::now_ns() - group.opened_ns >= kGroupWindowNs) {
          commit_group(group);
          complete_tasks(std::exchange(held, 0));
        }
        idle = false;
        continue;
      }
      // Nothing queued: commit before anything that may park or exit.
      if (!group.items.empty()) {
        commit_group(group);
        complete_tasks(std::exchange(held, 0));
        continue;
      }
      if (stopping_.load(std::memory_order_seq_cst)) return;
      if (!std::exchange(idle, true) && poll_for_work()) continue;
      wait_for_work();
    }
  } catch (...) {
    // Record before the held demands' count drops: a quiescer woken by that
    // drop must find the failure. The worker then exits.
    record_failure(std::current_exception());
    if (held != 0) complete_tasks(held);
  }
}

bool RestorationService::poll_for_work() const {
  // obs::now_ns() reads the vDSO clock: no syscall while polling.
  const std::uint64_t until = obs::now_ns() + kPollBeforeParkNs;
  do {
    if (queue_.approx_size() != 0 ||
        stopping_.load(std::memory_order_relaxed)) {
      return true;
    }
  } while (obs::now_ns() < until);
  return false;
}

void RestorationService::wait_for_work() {
  // Register, then re-check (the lost-wake-up comment at the top).
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint64_t seen = wake_seq_.load(std::memory_order_acquire);
  if (queue_.approx_size() == 0) {
    std::unique_lock<std::mutex> lock(wake_mu_);
    work_cv_.wait_for(lock, kIdleWait, [this, seen] {
      return wake_seq_.load(std::memory_order_relaxed) != seen ||
             stopping_.load(std::memory_order_seq_cst);
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
}

void RestorationService::complete_tasks(std::size_t n) {
  if (inflight_.fetch_sub(n, std::memory_order_seq_cst) != n) return;
  if (quiescers_.load(std::memory_order_seq_cst) == 0) return;
  // Passing through the mutex orders this notify after a quiescer's
  // predicate check, so a quiescer that saw a non-zero count is waiting.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  idle_cv_.notify_all();
}

void RestorationService::record_failure(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (!failure_) failure_ = std::move(error);
  }
  idle_cv_.notify_all();
}

void RestorationService::compute_reroute(std::size_t d, std::size_t worker,
                                         Pending& out) {
  DemandState& st = demands_[d];
  out.demand = d;
  // The causal record for this pass rides in the group's reused storage —
  // no allocation for it on the warm path. The trace fields must be read
  // *before* the dedup flag is cleared below: afterwards a fresh enqueue
  // may overwrite them.
  obs::RerouteRecord& rec = out.rec;
  rec.request_id = st.request_id.load(std::memory_order_relaxed);
  rec.enqueue_ns = st.enqueue_ns.load(std::memory_order_relaxed);
  rec.flags |= st.enqueue_flags.load(std::memory_order_relaxed);
  rec.demand = static_cast<std::uint32_t>(d);
  rec.src = st.src;
  rec.dst = st.dst;
  rec.worker = static_cast<std::uint32_t>(worker);
  rec.start_ns = obs::now_ns();

  // Clear the dedup flag *before* snapshotting: an event applied after the
  // snapshot re-enqueues the demand rather than being swallowed.
  st.queued.store(false, std::memory_order_seq_cst);

  ShardedLsdb::Snapshot snap = lsdb_.snapshot();
  snapshots_.inc();
  out.version = snap.version();
  rec.snapshot_ns = obs::now_ns();
  rec.snapshot_version = out.version;

  obs::Rung rung = obs::Rung::kCached;
  // No link down: the route is the provisioned baseline (same unfailed
  // tree, same decomposition), which is immutable — share it.
  std::shared_ptr<core::Restoration> fresh;
  out.link_down = snap.failed_edge_count() != 0;
  if (!out.link_down) {
    out.route = st.baseline;
  } else {
    fresh = std::make_shared<core::Restoration>();
    rung = pool_.route(st.src, st.dst, snap.failed_edges(), {}, fresh->backup);
  }
  rec.spf_ns = obs::now_ns();
  if (fresh != nullptr) {
    if (fresh->restored()) {
      fresh->decomposition = core::greedy_decompose(base_, fresh->backup);
    }
    out.route = std::move(fresh);
  }
  const core::Restoration& r = *out.route;
  const bool reachable = r.restored();
  rec.decompose_ns = obs::now_ns();
  rec.rung = static_cast<std::uint8_t>(reachable ? rung : obs::Rung::kNoRoute);

  // The WAL image is built here, outside the install lock; commit_group()
  // appends it only when the install won the stamp gate, so the WAL
  // carries exactly the committed route sequence.
  if (store_ != nullptr) {
    out.wal.type = persist::WalType::kFecInstall;
    out.wal.fec.demand = static_cast<std::uint32_t>(d);
    out.wal.fec.stamp = out.version;
    out.wal.fec.nodes.assign(r.backup.nodes().begin(), r.backup.nodes().end());
    out.wal.fec.edges.assign(r.backup.edges().begin(), r.backup.edges().end());
  }
}

void RestorationService::commit_group(CommitGroup& group) {
  RBPC_TRACE_SPAN("svc.commit");
  static obs::Histogram latency = registry().histogram("svc.restore.latency");

  std::uint64_t installed = 0;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (Pending& p : group.items) {
      p.installed = install_locked(p);
      installed += p.installed ? 1 : 0;
    }
    if (installed != 0) {
      no_route_g_.set(static_cast<std::int64_t>(no_route_count_));
      dirty_g_.set(static_cast<std::int64_t>(dirty_.size()));
    }
  }
  // routes_mu_ is released before persist_mu_ is taken (the lock order the
  // crash-consistency comment relies on).
  if (store_ != nullptr && installed != 0) {
    group.wal.clear();
    for (Pending& p : group.items) {
      if (p.installed) group.wal.push_back(std::move(p.wal));
    }
    std::lock_guard<std::mutex> lock(persist_mu_);
    store_->append_group(group.wal);
  }
  installs_.add(installed);
  reroutes_.add(group.items.size());

  // Revalidation: events applied during a computation may not have seen
  // the route just installed when they scanned for affected demands. Any
  // version movement past a demand's own snapshot re-queues it; the rerun
  // snapshots fresh state and usually installs the identical route. One
  // version read after the whole commit follows every install in it.
  const std::uint64_t version = lsdb_.version();
  const std::uint64_t committed_ns = obs::now_ns();
  for (Pending& p : group.items) {
    const bool stale = version != p.version;
    if (stale) {
      revalidations_.inc();
      enqueue_demand(p.demand);
    }
    obs::RerouteRecord& rec = p.rec;
    const bool no_route =
        rec.rung == static_cast<std::uint8_t>(obs::Rung::kNoRoute);
    // The compute stages, timed from the record's own stamps.
    reroute_span_.record(rec.start_ns, rec.decompose_ns);
    if (p.link_down) {
      spf_span_.record(rec.snapshot_ns, rec.spf_ns);
      if (!no_route) decompose_span_.record(rec.spf_ns, rec.decompose_ns);
    }
    if (p.installed) rec.flags |= obs::kFlagInstalled;
    if (stale) rec.flags |= obs::kFlagRevalidated;
    rec.group = static_cast<std::uint8_t>(group.items.size());
    rec.install_ns = committed_ns;
    rec.done_ns = obs::now_ns();
    latency.record_with_exemplar((rec.done_ns - rec.start_ns) / 1000,
                                 rec.request_id);
    flight_.publish(rec.worker, rec);
    if (no_route) maybe_dump_flight("degradation ladder: no-route install");
  }
  group.items.clear();  // frees the replaced routes, outside every lock
}

bool RestorationService::install_locked(Pending& p) {
  DemandState& st = demands_[p.demand];
  if (p.version < st.stamp) return false;  // a newer concurrent install won
  st.stamp = p.version;
  if (same_path(p.route, st.route)) return false;
  unindex_route_locked(p.demand);
  if (st.route->restored() && !p.route->restored()) ++no_route_count_;
  if (!st.route->restored() && p.route->restored()) --no_route_count_;
  std::swap(st.route, p.route);
  index_route_locked(p.demand);
  set_dirty_locked(p.demand, !same_path(st.route, st.baseline));
  return true;
}

void RestorationService::index_route_locked(std::size_t d) {
  DemandState& st = demands_[d];
  const std::span<const EdgeId> edges = st.route->backup.edges();
  st.slots.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::vector<EdgeSlot>& list = edge_demands_[edges[i]];
    st.slots[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(
        {static_cast<std::uint32_t>(d), static_cast<std::uint32_t>(i)});
  }
}

void RestorationService::unindex_route_locked(std::size_t d) {
  const DemandState& st = demands_[d];
  const std::span<const EdgeId> edges = st.route->backup.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    // Swap-and-pop: the list's last slot takes this hop's place, and its
    // owner's back-pointer follows it.
    std::vector<EdgeSlot>& list = edge_demands_[edges[i]];
    const std::uint32_t at = st.slots[i];
    const EdgeSlot last = list.back();
    list[at] = last;
    demands_[last.demand].slots[last.hop] = at;
    list.pop_back();
  }
}

void RestorationService::set_dirty_locked(std::size_t d, bool dirty) {
  DemandState& st = demands_[d];
  if (dirty == (st.dirty_at != kClean)) return;
  if (dirty) {
    st.dirty_at = static_cast<std::uint32_t>(dirty_.size());
    dirty_.push_back(static_cast<std::uint32_t>(d));
    return;
  }
  const std::uint32_t last = dirty_.back();
  dirty_[st.dirty_at] = last;
  demands_[last].dirty_at = st.dirty_at;
  dirty_.pop_back();
  st.dirty_at = kClean;
}

void RestorationService::quiesce() {
  quiescers_.fetch_add(1, std::memory_order_seq_cst);
  struct Unregister {
    std::atomic<std::size_t>& n;
    ~Unregister() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } unregister{quiescers_};
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [this] {
    return failure_ != nullptr ||
           inflight_.load(std::memory_order_seq_cst) == 0;
  });
  // Surface a worker exception instead of waiting on work it dropped.
  if (failure_) std::rethrow_exception(failure_);
}

core::Restoration RestorationService::route(std::size_t demand) const {
  require(demand < demands_.size(), "RestorationService::route: bad demand");
  RouteRef r;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    r = demands_[demand].route;
  }
  return *r;  // deep copy outside the install lock; the route is immutable
}

std::vector<core::Restoration> RestorationService::routes() const {
  std::vector<RouteRef> refs;
  refs.reserve(demands_.size());
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (const DemandState& st : demands_) refs.push_back(st.route);
  }
  std::vector<core::Restoration> out;
  out.reserve(refs.size());
  for (const RouteRef& r : refs) out.push_back(*r);
  return out;
}

bool RestorationService::dirty(std::size_t demand) const {
  require(demand < demands_.size(), "RestorationService::dirty: bad demand");
  std::lock_guard<std::mutex> lock(routes_mu_);
  return demands_[demand].dirty_at != kClean;
}

ServiceStats RestorationService::stats() const {
  ServiceStats s;
  s.events_applied = lsdb_.version();
  s.events_discarded =
      lsdb_.duplicates_discarded() + lsdb_.stale_discarded();
  // Single source of truth: these are the same InstanceCounters that feed
  // the registry's svc.* series, so a scrape and stats() cannot disagree
  // about this instance (the registry additionally sums across instances).
  s.reroutes = reroutes_.value();
  s.installs = installs_.value();
  s.revalidations = revalidations_.value();
  s.snapshots = snapshots_.value();
  s.cut_routes = pool_.answers(obs::Rung::kCut);
  s.cut_fallbacks = pool_.cut_fallbacks();
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    s.no_route = no_route_count_;
    s.dirty = dirty_.size();
  }
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(persist_mu_);
    s.wal_appends = store_->appends();
    s.wal_bytes = store_->bytes_appended();
    s.persist_snapshots = store_->rotations();
  }
  s.recovered = recovered_;
  s.recovered_wal_records = recovered_wal_records_;
  s.recovery_reenqueued = recovery_reenqueued_;
  s.replay_anomalies = replay_anomalies_;
  s.recovery_us = recovery_us_;
  return s;
}

std::uint64_t RestorationService::worker_heartbeat_ns(std::size_t worker) const {
  require(worker < pool_threads_.size(),
          "RestorationService::worker_heartbeat_ns: bad worker");
  return heartbeats_[worker].load(std::memory_order_relaxed);
}

}  // namespace rbpc::service
