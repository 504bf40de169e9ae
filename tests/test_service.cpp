// Concurrency test harness for the always-on restoration service
// (src/service): epoch reclamation, the bounded MPMC queue, the service's
// LSDB, the thread-safe EventQueue cancel path, and the service itself.
//
// Two regimes, per the harness design:
//
//  * deterministic-mode equivalence — every corpus topology gets a seeded
//    chaos storm (losses, jitter reordering, duplicates, flaps); the
//    service ingests the perturbed stream, quiesces, and its FEC table
//    must be *bit-identical* (backup path, decomposition pieces, piece
//    kinds) to a serial source_rbpc_restore replay of the final mask. The
//    interleaving-independence matrix re-runs fixed-seed storms across
//    {1,2,8} workers and requires identical quiescent tables from every
//    configuration.
//
//  * free-running stress — concurrent ingest threads, reroute workers and
//    a scraping thread race without any schedule; chaos invariants are
//    asserted during churn (snapshot versions monotone, readers never
//    crash or see a torn down list) and after quiescence (view == truth,
//    FEC table == serial replay).
//
// This file is built standalone (rbpc_add_test) so CI runs it under
// ThreadSanitizer and ASan/UBSan.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "chaos/fault_plan.hpp"
#include "chaos/storm.hpp"
#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "lsdb/event_queue.hpp"
#include "lsdb/lsdb.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "persist/format.hpp"
#include "persist/io.hpp"
#include "service/epoch.hpp"
#include "service/mpmc_queue.hpp"
#include "service/service.hpp"
#include "service/sharded_lsdb.hpp"
#include "spf/oracle.hpp"
#include "util/rng.hpp"

namespace rbpc::service {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using rbpc::testing::TopoCase;
using rbpc::testing::corpus;

// ---------------------------------------------------------------------------
// Epoch reclamation.
// ---------------------------------------------------------------------------

TEST(EpochReclamation, PinnedReaderBlocksReclaim) {
  EpochManager mgr;
  auto obj = std::make_shared<int>(42);
  std::weak_ptr<int> alive = obj;

  EpochManager::Guard reader = mgr.pin();
  mgr.retire(std::move(obj));
  // The reader pinned an epoch <= the retire epoch: nothing reclaimable.
  EXPECT_EQ(mgr.try_reclaim(), 0u);
  EXPECT_EQ(mgr.limbo_size(), 1u);
  EXPECT_FALSE(alive.expired());

  reader.release();
  EXPECT_EQ(mgr.try_reclaim(), 1u);
  EXPECT_EQ(mgr.limbo_size(), 0u);
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(mgr.reclaimed(), 1u);
}

TEST(EpochReclamation, LateReaderDoesNotBlockEarlierRetire) {
  EpochManager mgr;
  auto obj = std::make_shared<int>(1);
  std::weak_ptr<int> alive = obj;
  // retire() advances the epoch and reclaims opportunistically: with no
  // reader pinned the object dies right away.
  mgr.retire(std::move(obj));
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(mgr.reclaimed(), 1u);
  // A reader pinning *after* the advance can never reach old objects and
  // never blocks subsequent reclamation of pre-pin retirees.
  EpochManager::Guard reader = mgr.pin();
  auto obj2 = std::make_shared<int>(2);
  std::weak_ptr<int> alive2 = obj2;
  mgr.retire(std::move(obj2));
  EXPECT_FALSE(alive2.expired()) << "reader pinned <= retire epoch";
  reader.release();
  EXPECT_EQ(mgr.try_reclaim(), 1u);
  EXPECT_TRUE(alive2.expired());
}

TEST(EpochReclamation, GuardReleasesExactlyOnce) {
  EpochManager mgr;
  EpochManager::Guard g1 = mgr.pin();
  const std::uint64_t pinned = g1.epoch();
  EXPECT_TRUE(g1.active());
  EXPECT_EQ(mgr.min_pinned(), pinned);

  g1.release();
  EXPECT_FALSE(g1.active());
  EXPECT_EQ(mgr.min_pinned(), std::numeric_limits<std::uint64_t>::max());
  g1.release();  // idempotent: must not free another reader's slot
  EXPECT_EQ(mgr.min_pinned(), std::numeric_limits<std::uint64_t>::max());

  // Moved-from guards are inert; the moved-to guard owns the single unpin.
  EpochManager::Guard g2 = mgr.pin();
  EpochManager::Guard g3 = std::move(g2);
  EXPECT_FALSE(g2.active());  // NOLINT(bugprone-use-after-move): contract
  EXPECT_TRUE(g3.active());
  g2.release();  // releasing the husk must not unpin g3's slot
  EXPECT_NE(mgr.min_pinned(), std::numeric_limits<std::uint64_t>::max());
  g3.release();
  EXPECT_EQ(mgr.min_pinned(), std::numeric_limits<std::uint64_t>::max());
}

TEST(EpochReclamation, ConcurrentPinRetireStress) {
  EpochManager mgr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  // Readers continuously pin/unpin; writers retire live objects. TSan
  // verifies the slot CAS protocol; the weak_ptr sampling verifies no
  // object dies while a guard taken before its retirement is live.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochManager::Guard g = mgr.pin();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  constexpr int kRetires = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kRetires; ++i) {
        mgr.retire(std::make_shared<int>(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // With every guard dropped, everything still in limbo is reclaimable.
  mgr.retire(std::make_shared<int>(-1));
  mgr.try_reclaim();
  EXPECT_EQ(mgr.limbo_size(), 0u);
  EXPECT_EQ(mgr.reclaimed(), static_cast<std::uint64_t>(2 * kRetires + 1));
  EXPECT_GT(reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded MPMC queue.
// ---------------------------------------------------------------------------

TEST(MpmcQueue, CapacityAndFifoSingleThreaded) {
  MpmcQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_FALSE(q.push(99)) << "push into a full queue must fail";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i) << "single-threaded order must be FIFO";
  }
  EXPECT_FALSE(q.pop(out));
}

TEST(MpmcQueue, CloseRejectsPushesButDrains) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));
}

TEST(MpmcQueue, ConcurrentFullEmptyRaces) {
  // Small ring so both the full and the empty edge are hit constantly.
  MpmcQueue<std::uint64_t> q(8);
  constexpr std::uint64_t kPerProducer = 5000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;

  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!q.push(v)) std::this_thread::yield();
      }
    });
  }
  constexpr std::uint64_t kTotal = kPerProducer * kProducers;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      while (popped_count.load(std::memory_order_relaxed) < kTotal) {
        if (q.pop(v)) {
          popped_sum.fetch_add(v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(popped_count.load(), kTotal);
  EXPECT_EQ(popped_sum.load(), kTotal * (kTotal - 1) / 2)
      << "every pushed value must be popped exactly once";
}

TEST(MpmcQueue, PushFailsOnlyWhenFullByCount) {
  // As many tokens as slots, and every thread pops a token and pushes it
  // back: the ring never holds more than capacity() items, so no push may
  // fail. A push often lands on the cell a consumer has claimed but not
  // yet released; it must wait for that consumer, not report the ring
  // full. The restoration service asserts its pushes on this guarantee.
  constexpr std::size_t kTokens = 4;
  MpmcQueue<std::size_t> q(kTokens);
  ASSERT_EQ(q.capacity(), kTokens);
  for (std::size_t t = 0; t < kTokens; ++t) ASSERT_TRUE(q.push(t));
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      std::size_t token = 0;
      for (int n = 0; n < 20000; ++n) {
        if (!q.pop(token)) {
          std::this_thread::yield();
          continue;
        }
        if (!q.push(token)) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failed.load(), 0u);
  std::vector<std::size_t> left;
  std::size_t token = 0;
  while (q.pop(token)) left.push_back(token);
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(MpmcQueue, ShutdownWithInflightProducers) {
  MpmcQueue<int> q(16);
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<bool> closed{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      // Push until the queue is closed; a failed push on a *full* open
      // queue retries, a failed push after close gives up.
      while (!closed.load(std::memory_order_acquire)) {
        if (q.push(1)) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        } else if (q.closed()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  // Let producers race the close.
  std::uint64_t drained = 0;
  int out = 0;
  while (pushed.load(std::memory_order_relaxed) < 200) {
    if (q.pop(out)) ++drained;
  }
  q.close();
  closed.store(true, std::memory_order_release);
  for (std::thread& t : producers) t.join();
  // Post-join drain: exactly the successful pushes come back out.
  while (q.pop(out)) ++drained;
  EXPECT_EQ(drained, pushed.load());
  EXPECT_FALSE(q.push(7)) << "closed queue must reject new work";
}

// ---------------------------------------------------------------------------
// Service LSDB (ShardedLsdb: one lsdb::Lsdb plus a published down list).
// ---------------------------------------------------------------------------

/// Fresh, duplicate, stale and ungated (generation 0) LSAs on `edges` links,
/// including downs of links already down.
std::vector<lsdb::LinkEvent> perturbed_events(std::size_t edges, int count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<lsdb::LinkEvent> events;
  std::vector<std::uint64_t> gen(edges, 0);
  for (int i = 0; i < count; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.below(edges));
    lsdb::LinkEvent ev{e, rng.chance(0.4), 0};
    const double kind = rng.uniform();
    if (kind < 0.5) {
      ev.generation = ++gen[e];
    } else if (kind < 0.7) {
      ev.generation = gen[e];  // duplicate (or ungated while gen is 0)
    } else if (kind < 0.85 && gen[e] > 1) {
      ev.generation = 1 + rng.below(gen[e] - 1);  // stale
    }  // else: generation 0, applied without gating
    events.push_back(ev);
  }
  return events;
}

TEST(ShardedLsdb, GenerationGatingMirrorsLsdb) {
  // A perturbed event sequence (dups, stale reordering) must leave the
  // service's view, the classic Lsdb, and their discard counters identical.
  constexpr std::size_t kEdges = 10;
  lsdb::Lsdb reference;
  ShardedLsdb db(kEdges);
  for (const lsdb::LinkEvent& ev : perturbed_events(kEdges, 300, 77)) {
    EXPECT_EQ(reference.apply(ev), db.apply(ev))
        << "edge=" << ev.edge << " gen=" << ev.generation;
  }
  EXPECT_EQ(db.duplicates_discarded(), reference.duplicates_discarded());
  EXPECT_EQ(db.stale_discarded(), reference.stale_discarded());
  EXPECT_EQ(db.export_records(), reference.export_records());
  const ShardedLsdb::Snapshot snap = db.snapshot();
  for (EdgeId e = 0; e < kEdges; ++e) {
    EXPECT_EQ(snap.edge_failed(e), reference.knows_down(e)) << "edge=" << e;
  }
}

TEST(ShardedLsdb, GenerationsSuppressDuplicatesAndStaleLsas) {
  // Lsdb.GenerationsSuppressDuplicatesAndStaleLsas's sequence, replayed on
  // the service's view: both apply lsdb::gate_generation, so the verdicts,
  // the discard counts and the resulting view must be the same.
  using Records = std::vector<lsdb::LinkStateRecord>;
  ShardedLsdb db(8);
  EXPECT_TRUE(db.apply(lsdb::LinkEvent{3, /*up=*/false, /*generation=*/2}));
  EXPECT_TRUE(db.snapshot().edge_failed(3));
  EXPECT_EQ(db.export_records(), (Records{{3, true, 2}}));

  // A re-flooded copy of the same generation is discarded.
  EXPECT_FALSE(db.apply(lsdb::LinkEvent{3, /*up=*/false, /*generation=*/2}));
  EXPECT_EQ(db.duplicates_discarded(), 1u);

  // A reordered older LSA must not roll the view back.
  EXPECT_FALSE(db.apply(lsdb::LinkEvent{3, /*up=*/true, /*generation=*/1}));
  EXPECT_TRUE(db.snapshot().edge_failed(3));
  EXPECT_EQ(db.stale_discarded(), 1u);

  // Newer generations win.
  EXPECT_TRUE(db.apply(lsdb::LinkEvent{3, /*up=*/true, /*generation=*/5}));
  EXPECT_FALSE(db.snapshot().edge_failed(3));
  EXPECT_EQ(db.export_records(), (Records{{3, false, 5}}));
  EXPECT_EQ(db.version(), 2u);
}

TEST(ShardedLsdb, FailedLinkListsMatchFullScan) {
  // Snapshots enumerate the failure set from the down list kept at apply
  // time. After random sequences of fresh, duplicate, stale and ungated
  // LSAs the list must agree with a scan of every link.
  constexpr std::size_t kEdges = 37;
  ShardedLsdb db(kEdges);
  int step = 0;
  for (const lsdb::LinkEvent& ev : perturbed_events(kEdges, 400, 900)) {
    db.apply(ev);
    const ShardedLsdb::Snapshot snap = db.snapshot();
    FailureMask scan;
    for (EdgeId x = 0; x < kEdges; ++x) {
      if (snap.edge_failed(x)) scan.fail_edge(x);
    }
    const std::string ctx = "step=" + std::to_string(step++);
    ASSERT_EQ(snap.to_mask().failed_edges(), scan.failed_edges()) << ctx;
    ASSERT_EQ(snap.failed_edge_count(), scan.failed_edge_count()) << ctx;
    const std::vector<EdgeId> listed(snap.failed_edges().begin(),
                                     snap.failed_edges().end());
    ASSERT_EQ(listed, scan.failed_edges()) << ctx << ": list not ascending";
  }
}

TEST(ShardedLsdb, ImportRecordsRoundTripsExport) {
  // Recovery imports the records a snapshot exported: the imported view has
  // the same records, the same down list, and a version that counts them.
  constexpr std::size_t kEdges = 23;
  ShardedLsdb db(kEdges);
  for (const lsdb::LinkEvent& ev : perturbed_events(kEdges, 200, 31)) {
    db.apply(ev);
  }
  const std::vector<lsdb::LinkStateRecord> records = db.export_records();
  ASSERT_FALSE(records.empty());
  ShardedLsdb restored(kEdges);
  EXPECT_EQ(restored.import_records(records), records.size());
  EXPECT_EQ(restored.export_records(), records);
  EXPECT_EQ(restored.version(), records.size());
  EXPECT_EQ(restored.snapshot().to_mask().failed_edges(),
            db.snapshot().to_mask().failed_edges());
  // Importing again changes nothing: sequenced records are now duplicates
  // and unsequenced ones (generation 0) re-apply the same state.
  const auto unsequenced = static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(),
      [](const lsdb::LinkStateRecord& r) { return r.generation == 0; }));
  EXPECT_EQ(restored.import_records(records), unsequenced);
  EXPECT_EQ(restored.export_records(), records);
  EXPECT_THROW(restored.import_records({{kEdges, true, 1}}), PreconditionError);
}

TEST(ShardedLsdb, SnapshotPinsBlockReclamationUntilDropped) {
  ShardedLsdb db(4);
  ASSERT_TRUE(db.apply({0, false, 1}));
  auto held = std::make_unique<ShardedLsdb::Snapshot>(db.snapshot());
  EXPECT_FALSE(held->edge_failed(1));
  // Writes behind the pinned snapshot park the old down lists in limbo.
  ASSERT_TRUE(db.apply({1, false, 1}));
  ASSERT_TRUE(db.apply({1, true, 2}));
  EXPECT_GT(db.epochs().limbo_size(), 0u);
  EXPECT_FALSE(held->edge_failed(1)) << "pinned snapshot must stay immutable";
  EXPECT_EQ(held->version(), 1u);

  held.reset();  // unpin
  db.epochs().try_reclaim();
  EXPECT_EQ(db.epochs().limbo_size(), 0u);
  const ShardedLsdb::Snapshot fresh = db.snapshot();
  EXPECT_TRUE(fresh.edge_failed(0));
  EXPECT_FALSE(fresh.edge_failed(1));
  EXPECT_EQ(fresh.version(), 3u);
}

TEST(ShardedLsdb, SnapshotIsAPrefixOfAppliedEvents) {
  // One writer applies a scripted sequence; readers check that every
  // snapshot's down set is the state after some event index j >= its
  // version(), i.e. a snapshot is atomic across all links. The list a
  // snapshot loads was published by event j before j's version bump, so j
  // is also at most one past the version read right after the snapshot:
  // the check accepts only that window. The script is a random walk over
  // 2^24 down sets, so a torn view is unlikely to equal a prefix in it.
  constexpr std::size_t kEdges = 24;
  Rng rng(4242);
  std::vector<lsdb::LinkEvent> script;
  std::vector<std::uint64_t> gen(kEdges, 0);
  for (int i = 0; i < 5000; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.below(kEdges));
    script.push_back({e, rng.chance(0.5), ++gen[e]});
  }
  // prefix[i] is the sorted down set after the first i events.
  std::vector<std::vector<EdgeId>> prefix{{}};
  {
    lsdb::Lsdb reference;
    for (const lsdb::LinkEvent& ev : script) {
      reference.apply(ev);
      prefix.push_back(reference.view().failed_edges());
    }
  }

  constexpr int kReaders = 3;
  ShardedLsdb db(kEdges);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_release);
      std::uint64_t last_version = 0;
      bool last_round = false;
      while (!last_round) {
        last_round = done.load(std::memory_order_acquire);
        const ShardedLsdb::Snapshot snap = db.snapshot();
        const std::size_t hi =
            std::min<std::size_t>(db.version() + 1, script.size());
        const std::uint64_t v = snap.version();
        ASSERT_GE(v, last_version) << "snapshot versions must be monotone";
        last_version = v;
        const std::vector<EdgeId> down(snap.failed_edges().begin(),
                                       snap.failed_edges().end());
        std::size_t j = v;
        while (j <= hi && prefix[j] != down) ++j;
        ASSERT_LE(j, hi) << "snapshot at version " << v
                         << " is not the down set after any of events "
                         << v << ".." << hi;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  std::size_t discarded = 0;
  for (const lsdb::LinkEvent& ev : script) discarded += db.apply(ev) ? 0 : 1;
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(discarded, 0u);
  EXPECT_GE(checked.load(), static_cast<std::uint64_t>(kReaders));
  EXPECT_EQ(db.version(), script.size());
  EXPECT_EQ(db.snapshot().to_mask().failed_edges(), prefix.back());
}

TEST(ShardedLsdb, ConcurrentApplySnapshotStress) {
  constexpr std::size_t kEdges = 32;
  ShardedLsdb db(kEdges);
  std::atomic<bool> stop{false};

  // Writers: disjoint edge ranges so per-edge generations stay monotone.
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t g = 1; g <= 400; ++g) {
        for (std::size_t e = static_cast<std::size_t>(w) * kEdges / 2;
             e < static_cast<std::size_t>(w + 1) * kEdges / 2; ++e) {
          db.apply({static_cast<EdgeId>(e), g % 2 == 0, g});
        }
      }
    });
  }
  // Readers: versions are monotone, every exported record set is coherent
  // (ascending, one per touched edge) and no edge's generation regresses
  // relative to an earlier export by the same thread.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      std::uint64_t last_version = 0;
      std::vector<std::uint64_t> last_gen(kEdges, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        const ShardedLsdb::Snapshot snap = db.snapshot();
        const std::uint64_t v = snap.version();
        ASSERT_GE(v, last_version) << "snapshot versions must be monotone";
        last_version = v;
        ASSERT_LE(snap.failed_edge_count(), kEdges);
        EdgeId prev = 0;
        bool first = true;
        for (const lsdb::LinkStateRecord& rec : db.export_records()) {
          ASSERT_LT(rec.edge, kEdges);
          ASSERT_TRUE(first || rec.edge > prev) << "records not ascending";
          first = false;
          prev = rec.edge;
          ASSERT_GE(rec.generation, last_gen[rec.edge])
              << "edge generation went backwards";
          // Generation g is a failure exactly when g is odd.
          ASSERT_EQ(rec.down, rec.generation % 2 == 1);
          last_gen[rec.edge] = rec.generation;
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();

  const ShardedLsdb::Snapshot final_snap = db.snapshot();
  EXPECT_EQ(final_snap.version(), static_cast<std::uint64_t>(400 * kEdges));
  EXPECT_EQ(final_snap.failed_edge_count(), 0u);  // generation 400 is an up
  const std::vector<lsdb::LinkStateRecord> records = db.export_records();
  ASSERT_EQ(records.size(), kEdges);
  for (EdgeId e = 0; e < kEdges; ++e) {
    EXPECT_EQ(records[e], (lsdb::LinkStateRecord{e, false, 400}));
  }
}

// ---------------------------------------------------------------------------
// EventQueue: concurrent cancel vs fire.
// ---------------------------------------------------------------------------

TEST(EventQueueRace, CancelAndFireAreExclusive) {
  // The regression this pins down: cancel() used to mutate the live set
  // unsynchronized with step(), so a token could be "successfully"
  // cancelled after its callback started (or corrupt the sets outright).
  // Contract now: cancel() == true  <=>  the callback never runs.
  constexpr int kEvents = 2000;
  lsdb::EventQueue q;
  std::vector<std::atomic<char>> fired(kEvents);
  for (auto& f : fired) f.store(0, std::memory_order_relaxed);
  std::vector<lsdb::EventToken> tokens;
  tokens.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    tokens.push_back(q.schedule(static_cast<double>(i % 7), [&fired, i] {
      fired[i].store(1, std::memory_order_relaxed);
    }));
  }

  std::vector<std::atomic<char>> cancelled(kEvents);
  for (auto& c : cancelled) c.store(0, std::memory_order_relaxed);
  std::thread runner([&] { q.run_all(); });
  std::vector<std::thread> cancellers;
  for (int c = 0; c < 3; ++c) {
    cancellers.emplace_back([&, c] {
      // Each canceller sweeps a stride of tokens while the runner drains.
      for (int i = c; i < kEvents; i += 3) {
        if (q.cancel(tokens[i])) {
          cancelled[i].store(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : cancellers) t.join();
  runner.join();
  q.run_all();  // events cancelled after the first drain finished: none left

  int fired_count = 0;
  for (int i = 0; i < kEvents; ++i) {
    const bool f = fired[i].load(std::memory_order_relaxed) != 0;
    const bool k = cancelled[i].load(std::memory_order_relaxed) != 0;
    EXPECT_NE(f, k) << "event " << i
                    << (f && k ? " both fired and cancelled"
                               : " neither fired nor cancelled");
    fired_count += f ? 1 : 0;
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.cancelled_pending(), 0u);
  // Sanity: cancel after the fact is a no-op returning false.
  EXPECT_FALSE(q.cancel(tokens[0]));
  (void)fired_count;
}

TEST(EventQueueRace, CallbacksMayScheduleAndCancelReentrantly) {
  lsdb::EventQueue q;
  int ran = 0;
  lsdb::EventToken victim = 0;
  q.schedule(1.0, [&] {
    ++ran;
    victim = q.schedule(5.0, [&] { ran += 100; });
    q.schedule(2.0, [&] {
      ++ran;
      EXPECT_TRUE(q.cancel(victim));
    });
  });
  q.run_all();
  EXPECT_EQ(ran, 2) << "the cancelled reentrant event must not fire";
}

// ---------------------------------------------------------------------------
// Service equivalence harness.
// ---------------------------------------------------------------------------

std::vector<Demand> random_demands(const Graph& g, std::size_t count,
                                   Rng& rng) {
  std::vector<Demand> demands;
  while (demands.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    demands.push_back(Demand{s, t});
  }
  return demands;
}

/// The ground truth: a serial source-RBPC restoration of every demand
/// against the final mask, exactly as the drill engines would compute it.
std::vector<core::Restoration> serial_replay(const Graph& g,
                                             spf::Metric metric,
                                             const std::vector<Demand>& demands,
                                             const FailureMask& mask) {
  spf::DistanceOracle oracle(g, FailureMask{}, metric);
  core::CanonicalBaseSet base(oracle);
  std::vector<core::Restoration> out;
  out.reserve(demands.size());
  for (const Demand& d : demands) {
    out.push_back(core::source_rbpc_restore(base, d.src, d.dst, mask));
  }
  return out;
}

void expect_identical_tables(const std::vector<core::Restoration>& want,
                             const std::vector<core::Restoration>& got,
                             const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string ctx = context + " demand " + std::to_string(i);
    EXPECT_EQ(want[i].backup, got[i].backup) << ctx << ": backup differs";
    EXPECT_EQ(want[i].decomposition, got[i].decomposition)
        << ctx << ": decomposition differs";
  }
}

chaos::StormConfig storm_config() {
  chaos::StormConfig config;
  config.events = 14;
  config.max_concurrent = 3;
  config.faults.lsa_loss = 0.2;
  config.faults.lsa_jitter = 6.0;
  config.faults.lsa_dup = 0.2;
  config.faults.detect_jitter = 1.0;
  config.faults.miss_detect = 0.1;
  config.faults.flap_count = 1;
  return config;
}

/// Ingests the full delivery stream (already time-sorted) and quiesces.
void ingest_all(RestorationService& svc,
                const std::vector<chaos::StormEvent>& deliveries) {
  for (const chaos::StormEvent& d : deliveries) svc.ingest(d.event);
  svc.quiesce();
}

void expect_view_matches_truth(const RestorationService& svc,
                               const chaos::Storm& storm,
                               const std::string& context) {
  const FailureMask truth = storm.final_mask();
  const std::vector<std::uint64_t> gens =
      storm.final_generations(svc.graph().num_edges());
  std::vector<lsdb::LinkStateRecord> want;
  for (EdgeId e = 0; e < svc.graph().num_edges(); ++e) {
    if (truth.edge_failed(e) || gens[e] != 0) {
      want.push_back({e, truth.edge_failed(e), gens[e]});
    }
  }
  EXPECT_EQ(svc.lsdb().export_records(), want)
      << context << ": LSDB records (down flags, generations) != truth";
  EXPECT_EQ(svc.lsdb().snapshot().to_mask().failed_edges(),
            truth.failed_edges())
      << context << ": view != truth";
}

TEST(ServiceEquivalence, QuiescentTablesMatchSerialReplayAcrossCorpus) {
  const std::vector<TopoCase> cases = corpus();
  ASSERT_GE(cases.size(), 54u);
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Graph& g = cases[ci].g;
    Rng rng(9000 + ci);
    const std::vector<Demand> demands = random_demands(g, 8, rng);
    const chaos::Storm storm = chaos::plan_storm(g, storm_config(), rng);

    ServiceOptions options;
    options.workers = 4;
    RestorationService svc(g, demands, options);
    ingest_all(svc, storm.deliveries);

    expect_view_matches_truth(svc, storm, cases[ci].name);
    expect_identical_tables(
        serial_replay(g, options.metric, demands, storm.final_mask()),
        svc.routes(), cases[ci].name);
    svc.stop();
  }
}

TEST(ServiceEquivalence, NoEventsKeepsProvisionedBaselines) {
  // Provisioning runs on the service's worker threads: on the largest
  // corpus graph, with enough demands to spread over every worker, the
  // provisioned table must equal the serial replay at any worker count.
  const std::vector<TopoCase> cases = corpus();
  const TopoCase& big = *std::max_element(
      cases.begin(), cases.end(), [](const TopoCase& a, const TopoCase& b) {
        return a.g.num_nodes() < b.g.num_nodes();
      });
  const Graph& g = big.g;
  Rng rng(1);
  const std::vector<Demand> demands = random_demands(g, 200, rng);
  const std::vector<core::Restoration> want =
      serial_replay(g, ServiceOptions{}.metric, demands, FailureMask{});
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const std::string ctx =
        big.name + " workers=" + std::to_string(workers) + " baseline";
    ServiceOptions options;
    options.workers = workers;
    RestorationService svc(g, demands, options);
    svc.quiesce();
    expect_identical_tables(want, svc.routes(), ctx);
    for (std::size_t d = 0; d < demands.size(); ++d) {
      EXPECT_FALSE(svc.dirty(d)) << ctx << " demand " << d;
    }
    EXPECT_EQ(svc.stats().reroutes, 0u) << ctx;
  }
}

TEST(ServiceEquivalence, ServiceBuildsNoDistanceOracle) {
  // Canonical membership reads the tree pool's unfailed trees, so neither
  // provisioning nor rerouting caches a tree in a DistanceOracle (whose
  // bytes the rbpc.mem.oracle_trees gauge reports).
  const obs::Gauge oracle_trees =
      obs::MetricsRegistry::global().gauge("rbpc.mem.oracle_trees");
  const std::int64_t before = oracle_trees.value();
  const Graph g = testing::make_wheel16();
  Rng rng(5);
  const std::vector<Demand> demands = random_demands(g, 24, rng);
  const chaos::Storm storm = chaos::plan_storm(g, storm_config(), rng);
  ServiceOptions options;
  options.workers = 2;
  RestorationService svc(g, demands, options);
  EXPECT_EQ(oracle_trees.value(), before) << "after provisioning";
  ingest_all(svc, storm.deliveries);
  EXPECT_GT(svc.stats().reroutes, 0u);
  EXPECT_EQ(oracle_trees.value(), before) << "after the storm";
  svc.stop();
}

/// queue_capacity is only a floor: with 2 slots asked for and 24 demands
/// under a wheel16 hub storm, the ring still holds every demand, so no push
/// fails (a failed push asserts, and quiesce() would rethrow it), nothing is
/// deferred, and the quiescent table is the serial replay at every worker
/// count in `worker_counts`.
void expect_tiny_queue_storm_converges(
    std::uint64_t seed, std::initializer_list<std::size_t> worker_counts) {
  const Graph g = testing::make_wheel16();
  Rng rng(seed);
  const std::vector<Demand> demands = random_demands(g, 24, rng);
  chaos::StormConfig config = storm_config();
  config.events = 20;
  const chaos::Storm storm = chaos::plan_storm(g, config, rng);
  const std::vector<core::Restoration> want = serial_replay(
      g, ServiceOptions{}.metric, demands, storm.final_mask());
  for (const std::size_t workers : worker_counts) {
    const std::string ctx = "seed=" + std::to_string(seed) +
                            " workers=" + std::to_string(workers);
    ServiceOptions options;
    options.queue_capacity = 2;
    options.workers = workers;
    RestorationService svc(g, demands, options);
    ASSERT_NO_THROW(ingest_all(svc, storm.deliveries)) << ctx;
    expect_identical_tables(want, svc.routes(), ctx);
    const ServiceStats stats = svc.stats();
    EXPECT_GT(stats.reroutes, 0u) << ctx;
    EXPECT_EQ(stats.deferred, 0u) << ctx;
    svc.stop();
  }
}

TEST(ServiceEquivalence, OverloadDefersButStillConverges) {
  // More demands than requested queue slots: the storm must still converge
  // to the serial replay, and nothing may be deferred.
  expect_tiny_queue_storm_converges(42, {2});
}

// ---------------------------------------------------------------------------
// The single-failure rung: k = 1 reroutes come from two unfailed trees.
// ---------------------------------------------------------------------------

/// Ingests one LSA for `e` and waits for the service to settle.
void flip(RestorationService& svc, std::vector<std::uint64_t>& gens, EdgeId e,
          bool up) {
  svc.ingest({e, up, ++gens[e]});
  svc.quiesce();
}

TEST(ServiceRung, SingleFailuresBuildNoViews) {
  // Closed loop over the corpus: fail a link, settle, check the table,
  // recover. Every fail pass sees exactly one failed link, so it must run
  // at the cut rung and build no pool view, unless the guard fell back.
  // A second phase overlaps two failures; only the events that leave two
  // links down may add views (at most one each).
  std::uint64_t cut_routes = 0;
  for (const TopoCase& c : corpus()) {
    const Graph& g = c.g;
    Rng rng(4400 + g.num_nodes());
    const std::vector<Demand> demands = random_demands(g, 10, rng);
    ServiceOptions options;
    options.workers = 2;
    RestorationService svc(g, demands, options);
    std::vector<std::uint64_t> gens(g.num_edges(), 0);

    for (int i = 0; i < 6; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
      flip(svc, gens, e, /*up=*/false);
      expect_identical_tables(
          serial_replay(g, options.metric, demands, FailureMask::of_edges({e})),
          svc.routes(), c.name + " fail " + std::to_string(e));
      flip(svc, gens, e, /*up=*/true);
    }
    ServiceStats stats = svc.stats();
    EXPECT_LE(svc.tree_pool().views_created(), stats.cut_fallbacks) << c.name;

    std::size_t two_down = 0;
    for (int i = 0; i < 3; ++i) {
      const std::vector<std::uint64_t> pair = rng.sample_distinct(
          g.num_edges(), 2);
      const EdgeId a = static_cast<EdgeId>(pair[0]);
      const EdgeId b = static_cast<EdgeId>(pair[1]);
      flip(svc, gens, a, false);
      flip(svc, gens, b, false);
      ++two_down;
      flip(svc, gens, a, true);
      expect_identical_tables(
          serial_replay(g, options.metric, demands, FailureMask::of_edges({b})),
          svc.routes(), c.name + " overlap " + std::to_string(b));
      flip(svc, gens, b, true);
    }
    stats = svc.stats();
    EXPECT_LE(svc.tree_pool().views_created(), two_down + stats.cut_fallbacks)
        << c.name;
    cut_routes += stats.cut_routes;
    svc.stop();
  }
  EXPECT_GT(cut_routes, 0u);
}

TEST(ServiceRung, BridgeFailureNoRouteMatchesSerialReplay) {
  // Two 5-rings joined by one bridge (link 10): failing it strands every
  // demand that crosses, which the cut rung must report as "no route"
  // exactly like the serial replay — and the no_route count must agree.
  graph::GraphBuilder b(10);
  for (NodeId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(5 + i, 5 + (i + 1) % 5);
  }
  const EdgeId bridge = b.add_edge(2, 7);
  const Graph g = b.build();
  const std::vector<Demand> demands = {{0, 9}, {1, 6}, {3, 4}, {8, 5},
                                       {4, 7}, {0, 2}};
  ServiceOptions options;
  options.workers = 2;
  RestorationService svc(g, demands, options);
  std::vector<std::uint64_t> gens(g.num_edges(), 0);

  flip(svc, gens, bridge, /*up=*/false);
  const std::vector<core::Restoration> want = serial_replay(
      g, options.metric, demands, FailureMask::of_edges({bridge}));
  expect_identical_tables(want, svc.routes(), "bridge down");
  const std::size_t stranded = static_cast<std::size_t>(
      std::count_if(want.begin(), want.end(),
                    [](const core::Restoration& r) { return !r.restored(); }));
  EXPECT_EQ(stranded, 3u);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.no_route, stranded);
  EXPECT_EQ(stats.cut_routes, 3u);
  EXPECT_EQ(stats.cut_fallbacks, 0u);
  EXPECT_EQ(svc.tree_pool().views_created(), 0u);

  flip(svc, gens, bridge, /*up=*/true);
  expect_identical_tables(
      serial_replay(g, options.metric, demands, FailureMask{}), svc.routes(),
      "bridge up");
  EXPECT_EQ(svc.stats().no_route, 0u);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Interleaving independence: fixed seed, any worker count -> same
// quiescent FEC tables. 20 seeds x {1,2,8} workers.
// ---------------------------------------------------------------------------

TEST(ServiceProperty, InterleavingIndependenceMatrix) {
  const Graph g = topo::make_grid(4, 5);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng scenario_rng(5000 + seed);
    const std::vector<Demand> demands = random_demands(g, 10, scenario_rng);
    const chaos::Storm storm =
        chaos::plan_storm(g, storm_config(), scenario_rng);
    const std::vector<core::Restoration> want = serial_replay(
        g, ServiceOptions{}.metric, demands, storm.final_mask());

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ServiceOptions options;
      options.workers = workers;
      RestorationService svc(g, demands, options);
      ingest_all(svc, storm.deliveries);
      expect_identical_tables(
          want, svc.routes(),
          "seed " + std::to_string(seed) + " workers " +
              std::to_string(workers));
      svc.stop();
    }
  }
}

// ---------------------------------------------------------------------------
// Free-running stress: ingest threads + reroute workers + a scraper, no
// schedule, all invariants asserted live. The TSan CI job runs this.
// ---------------------------------------------------------------------------

TEST(ServiceStress, LadderEscalationDumpsFlightRecorder) {
  // A chain 0 - 1 - 2 - 3: every link is a bridge, so failing link 1 - 2
  // strands the demand 0 -> 3, whose pass installs an explicit empty route.
  // That escalation past scratch SPF dumps the flight recorder once.
  const Graph g = topo::make_chain(4);
  const std::string dump_path =
      ::testing::TempDir() + "rbpc_flight_escalation.json";
  std::remove(dump_path.c_str());
  ServiceOptions options;
  options.workers = 1;
  options.flight_dump_path = dump_path;
  RestorationService svc(g, {{0, 3}, {0, 1}}, options);
  ASSERT_TRUE(svc.ingest({1, /*up=*/false, 1}));
  svc.quiesce();
  const ServiceStats stats = svc.stats();
  svc.stop();

  EXPECT_EQ(stats.no_route, 1u);
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open()) << "no flight dump at " << dump_path;
  const std::string dump((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(dump.find("no-route install"), std::string::npos);
  EXPECT_NE(dump.find("\"request_id\""), std::string::npos);
  EXPECT_NE(dump.find("\"rung_name\": \"no-route\""), std::string::npos);
  std::remove(dump_path.c_str());
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (headers + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ServiceStress, FreeRunningChurnWithConcurrentScraper) {
  const Graph g = [] {
    Rng rng(3005);
    return topo::make_barabasi_albert(21, 2, 0.3, rng, 0.4);
  }();
  Rng rng(777);
  const std::vector<Demand> demands = random_demands(g, 16, rng);
  chaos::StormConfig config = storm_config();
  config.events = 24;
  const chaos::Storm storm = chaos::plan_storm(g, config, rng);

  ServiceOptions options;
  options.workers = 4;
  options.serve_metrics = true;  // scrape through the live endpoint too
  RestorationService svc(g, demands, options);
  ASSERT_NE(svc.metrics_port(), 0);

  // Split the stream between two ingest threads. Each thread preserves its
  // slice's order; the cross-thread interleaving is whatever the scheduler
  // does. Generation gating makes the quiescent view order-independent.
  std::vector<chaos::StormEvent> even, odd;
  for (std::size_t i = 0; i < storm.deliveries.size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(storm.deliveries[i]);
  }
  std::atomic<bool> churn_done{false};
  // Ingest waits until both scrapers run, so each one observes at least
  // once during churn however the threads are scheduled.
  std::atomic<int> scrapers_started{0};
  std::thread scraper([&] {
    scrapers_started.fetch_add(1, std::memory_order_release);
    // Chaos invariant during churn: snapshot versions are monotone and a
    // pinned view is coherent (readable end to end) while writers publish.
    std::uint64_t last_version = 0;
    std::uint64_t observations = 0;
    while (!churn_done.load(std::memory_order_acquire)) {
      const ShardedLsdb::Snapshot snap = svc.lsdb().snapshot();
      ASSERT_GE(snap.version(), last_version);
      last_version = snap.version();
      FailureMask mask = snap.to_mask();
      ASSERT_LE(mask.failed_edge_count(), g.num_edges());
      const std::vector<core::Restoration> routes = svc.routes();
      ASSERT_EQ(routes.size(), demands.size());
      (void)svc.stats();
      ++observations;
    }
    EXPECT_GT(observations, 0u);
  });
  std::thread http_scraper([&] {
    // Same races as the in-process scraper, but through the exposition
    // server: the full scrape path (registry shards, flight-recorder
    // seqlock rings, HTTP framing) must stay coherent while workers
    // publish. Runs under TSan in CI like the rest of this binary.
    std::uint64_t ok = 0;
    scrapers_started.fetch_add(1, std::memory_order_release);
    while (!churn_done.load(std::memory_order_acquire)) {
      const std::string resp = http_get(svc.metrics_port(), "/metrics");
      if (!resp.empty()) {
        ASSERT_NE(resp.find("200 OK"), std::string::npos);
        ++ok;
      }
      (void)http_get(svc.metrics_port(), "/flight");
    }
    EXPECT_GT(ok, 0u);
  });
  while (scrapers_started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  std::thread ingest_a([&] {
    for (const chaos::StormEvent& d : even) svc.ingest(d.event);
  });
  std::thread ingest_b([&] {
    for (const chaos::StormEvent& d : odd) svc.ingest(d.event);
  });
  ingest_a.join();
  ingest_b.join();
  svc.quiesce();
  churn_done.store(true, std::memory_order_release);
  scraper.join();
  http_scraper.join();

  // Post-quiescence chaos invariants: view == truth, table == serial.
  expect_view_matches_truth(svc, storm, "stress");
  expect_identical_tables(
      serial_replay(g, options.metric, demands, storm.final_mask()),
      svc.routes(), "stress");
  const ServiceStats stats = svc.stats();
  EXPECT_GT(stats.reroutes, 0u);
  EXPECT_EQ(stats.events_applied + stats.events_discarded,
            storm.deliveries.size());

  // Request-trace lifecycle: every flight-recorder record carries a live
  // request id and a rung from the degradation ladder, and its stage
  // timestamps are causally ordered.
  const std::vector<obs::RerouteRecord> records =
      svc.flight_recorder().collect();
  ASSERT_FALSE(records.empty());
  for (const obs::RerouteRecord& rec : records) {
    EXPECT_NE(rec.request_id, 0u);
    EXPECT_LE(rec.rung, static_cast<std::uint8_t>(obs::Rung::kNoRoute));
    EXPECT_LE(rec.start_ns, rec.done_ns);
    EXPECT_LE(rec.snapshot_ns, rec.spf_ns);
    EXPECT_LE(rec.spf_ns, rec.decompose_ns);
  }
  // ServiceStats and the registry agree: stats() reads the same
  // InstanceCounters that mirror into the global registry, so the
  // process-wide counter can only be >= this instance's share.
  EXPECT_GE(obs::MetricsRegistry::global().counter("svc.reroutes").value(),
            stats.reroutes);
  // And the endpoint serves the same families a Prometheus scraper needs.
  const std::string final_scrape = http_get(svc.metrics_port(), "/metrics");
  EXPECT_NE(final_scrape.find("svc_reroutes_total"), std::string::npos);
  EXPECT_NE(final_scrape.find("svc_restore_latency_bucket"),
            std::string::npos);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Worker heartbeats (the service_churn watchdog's signal).
// ---------------------------------------------------------------------------

TEST(WorkerHeartbeat, EveryWorkerBeatsWhileIdleAndBusy) {
  const Graph g = testing::make_wheel16();
  Rng rng(44);
  const std::vector<Demand> demands = random_demands(g, 8, rng);
  ServiceOptions options;
  options.workers = 3;
  RestorationService svc(g, demands, options);
  ASSERT_EQ(svc.num_workers(), 3u);

  // Idle workers still beat (the heartbeat is fed on every loop pass, busy
  // or not) — poll until all three have a nonzero timestamp.
  for (int spin = 0; spin < 2000; ++spin) {
    bool all = true;
    for (std::size_t w = 0; w < svc.num_workers(); ++w) {
      all = all && svc.worker_heartbeat_ns(w) != 0;
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<std::uint64_t> first;
  for (std::size_t w = 0; w < svc.num_workers(); ++w) {
    first.push_back(svc.worker_heartbeat_ns(w));
    ASSERT_NE(first.back(), 0u) << "worker " << w << " never beat";
  }

  // Heartbeats advance while the service sits idle: a parked worker wakes
  // within the bounded idle wait, so 20 ms of idleness moves every one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t w = 0; w < svc.num_workers(); ++w) {
    EXPECT_GT(svc.worker_heartbeat_ns(w), first[w]) << "worker " << w;
  }
  svc.stop();
}

// ---------------------------------------------------------------------------
// Wake-up protocol: parked workers, the blocking quiesce(), stop().
// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rbpc_wake_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Wraps another PersistIo; its WAL streams throw IoError on the first
/// FEC-install record written through them (once per instance), and every
/// other operation passes through.
class FecWriteFailsIo final : public persist::PersistIo {
 public:
  explicit FecWriteFailsIo(persist::PersistIo& inner) : inner_(inner) {}

  bool thrown() const { return thrown_.load(); }

  std::unique_ptr<Stream> open_trunc(const std::string& path) override {
    return wrap(path, inner_.open_trunc(path));
  }
  std::unique_ptr<Stream> open_append(const std::string& path) override {
    return wrap(path, inner_.open_append(path));
  }
  void rename_file(const std::string& from, const std::string& to) override {
    inner_.rename_file(from, to);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }
  void truncate_file(const std::string& path, std::uint64_t len) override {
    inner_.truncate_file(path, len);
  }
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override {
    return inner_.read_file(path, out);
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return inner_.list_dir(dir);
  }
  void make_dirs(const std::string& dir) override { inner_.make_dirs(dir); }

 private:
  class WalStream final : public Stream {
   public:
    WalStream(std::unique_ptr<Stream> inner, std::atomic<bool>& thrown)
        : inner_(std::move(inner)), thrown_(thrown) {}
    void write(const void* data, std::size_t len) override {
      // Records are framed as u32 length | payload | u32 CRC, and the
      // payload starts with the record type (the header's byte 4 is 'W').
      const auto* b = static_cast<const std::uint8_t*>(data);
      const bool fec =
          len > 4 &&
          b[4] == static_cast<std::uint8_t>(persist::WalType::kFecInstall);
      if (fec && !thrown_.exchange(true)) {
        throw persist::IoError("injected FEC WAL write failure");
      }
      inner_->write(data, len);
    }
    void sync() override { inner_->sync(); }

   private:
    std::unique_ptr<Stream> inner_;
    std::atomic<bool>& thrown_;
  };

  std::unique_ptr<Stream> wrap(const std::string& path,
                               std::unique_ptr<Stream> s) {
    if (path.find("/wal-") == std::string::npos) return s;
    return std::make_unique<WalStream>(std::move(s), thrown_);
  }

  persist::PersistIo& inner_;
  std::atomic<bool> thrown_{false};
};

TEST(ServiceWake, QuiesceSurfacesRerouteFailure) {
  // A reroute task that throws takes its worker down; quiesce() must wake
  // and rethrow rather than wait for work the dead worker dropped. With one
  // worker nothing else drains the queue; with two the survivor finishes
  // the event, and quiesce() must still report the failure.
  const Graph g = testing::make_wheel16();
  Rng rng(46);
  const std::vector<Demand> demands = random_demands(g, 24, rng);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const std::string ctx = "workers=" + std::to_string(workers);
    TempDir dir;
    persist::FileIo disk;
    FecWriteFailsIo io(disk);
    ServiceOptions options;
    options.workers = workers;
    options.persist.dir = dir.path;
    options.persist.maintenance_interval_us = 0;
    options.persist.io = &io;
    {
      RestorationService svc(g, demands, options);
      const core::Restoration r = svc.route(0);
      ASSERT_TRUE(r.restored()) << ctx;
      ASSERT_TRUE(svc.ingest(lsdb::LinkEvent{r.backup.edges().front(),
                                             /*up=*/false, 1}))
          << ctx;
      EXPECT_THROW(svc.quiesce(), persist::IoError) << ctx;
      EXPECT_TRUE(io.thrown()) << ctx;
      // The failure sticks: a dead worker means the service cannot
      // converge, so a second quiesce() must not hang either.
      EXPECT_THROW(svc.quiesce(), persist::IoError) << ctx;
    }  // the destructor must return with the failed worker gone
  }
}

TEST(ServiceWake, StopWakesParkedWorkers) {
  // Idle workers sit parked; stop() and the destructor must wake and join
  // them (and the maintenance thread, when persistence runs one) promptly
  // rather than after a poll or a maintenance tick.
  const Graph g = testing::make_wheel16();
  Rng rng(47);
  const std::vector<Demand> demands = random_demands(g, 16, rng);
  for (const bool persist : {false, true}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const std::string ctx = "workers=" + std::to_string(workers) +
                              " persist=" + (persist ? "on" : "off");
      TempDir dir;
      ServiceOptions options;
      options.workers = workers;
      if (persist) {
        options.persist.dir = dir.path;
        // A tick far longer than the bound below: stop() must not sleep
        // it out.
        options.persist.maintenance_interval_us = 60'000'000;
      }
      auto svc = std::make_unique<RestorationService>(g, demands, options);
      svc->quiesce();
      // Let every worker reach its parked wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const auto t0 = std::chrono::steady_clock::now();
      svc->stop();
      svc.reset();
      EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
          << ctx;
    }
  }
}

TEST(ServiceWake, DeferredDrainWakesWorkers) {
  // A two-slot request under a storm: the pushes that queue its demands
  // must wake parked workers (there is no deferred set left to drain) at
  // one, two and eight workers, or quiesce() would wait on a dead queue.
  expect_tiny_queue_storm_converges(48, {1, 2, 8});
}

// ---------------------------------------------------------------------------
// Group commit: workers install a group of computed reroutes under one
// install-lock hold and append its WAL records with one write. Per demand
// nothing changes, so every table must still be the serial replay.
// ---------------------------------------------------------------------------

/// The corpus topologies the group-commit tests storm: the three largest,
/// where one event reroutes the most demands (so groups hold more than one).
std::vector<TopoCase> largest_cases(std::size_t n) {
  std::vector<TopoCase> cases = corpus();
  std::sort(cases.begin(), cases.end(),
            [](const TopoCase& a, const TopoCase& b) {
              return a.g.num_nodes() > b.g.num_nodes();
            });
  cases.resize(std::min(n, cases.size()));
  return cases;
}

std::size_t count_dirty(const RestorationService& svc) {
  std::size_t n = 0;
  for (std::size_t d = 0; d < svc.num_demands(); ++d) n += svc.dirty(d);
  return n;
}

TEST(ServiceGroupCommit, PersistentTablesMatchSerialReplayAtAnyWorkerCount) {
  // Persistence on: every group ends in one WAL write. The quiescent table
  // must be the serial replay at 1, 2 and 4 workers, and the WAL must hold
  // exactly one record per applied LSA and one per install. Only demands
  // that end off their baseline are sure to install: a storm that ends with
  // every link up may be absorbed before any worker runs.
  std::uint64_t installs = 0;
  for (const TopoCase& tc : largest_cases(3)) {
    const Graph& g = tc.g;
    Rng rng(6100 + g.num_nodes());
    const std::vector<Demand> demands = random_demands(g, 60, rng);
    const chaos::Storm storm = chaos::plan_storm(g, storm_config(), rng);
    const std::vector<core::Restoration> want = serial_replay(
        g, ServiceOptions{}.metric, demands, storm.final_mask());
    const std::vector<core::Restoration> baseline =
        serial_replay(g, ServiceOptions{}.metric, demands, FailureMask{});
    std::uint64_t off_baseline = 0;
    for (std::size_t d = 0; d < want.size(); ++d) {
      off_baseline += want[d].backup == baseline[d].backup ? 0 : 1;
    }
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::string ctx = tc.name + " workers=" + std::to_string(workers);
      TempDir dir;
      ServiceOptions options;
      options.workers = workers;
      options.persist.dir = dir.path;
      RestorationService svc(g, demands, options);
      ingest_all(svc, storm.deliveries);
      expect_view_matches_truth(svc, storm, ctx);
      expect_identical_tables(want, svc.routes(), ctx);
      const ServiceStats stats = svc.stats();
      EXPECT_GE(stats.installs, off_baseline) << ctx;
      EXPECT_EQ(stats.wal_appends, stats.installs + stats.events_applied)
          << ctx;
      installs += stats.installs;
      svc.stop();
    }
  }
  EXPECT_GT(installs, 0u) << "no storm installed a route";
}

TEST(ServiceGroupCommit, DirtyIndexMatchesDirtyFlagsAfterStorms) {
  // The dirty index a link-up event enqueues from is kept in the commit
  // section; its size (ServiceStats::dirty, the svc.dirty gauge) must equal
  // the number of demands dirty(d) reports, with links still down and
  // after every link came back.
  const obs::Gauge dirty_g = obs::MetricsRegistry::global().gauge("svc.dirty");
  std::size_t dirty_seen = 0;
  for (const TopoCase& tc : largest_cases(4)) {
    const Graph& g = tc.g;
    Rng rng(6200 + g.num_nodes());
    const std::vector<Demand> demands = random_demands(g, 40, rng);
    chaos::StormConfig config = storm_config();
    config.events = 24;
    const chaos::Storm storm = chaos::plan_storm(g, config, rng);
    ServiceOptions options;
    options.workers = 2;
    RestorationService svc(g, demands, options);
    ingest_all(svc, storm.deliveries);
    expect_identical_tables(
        serial_replay(g, options.metric, demands, storm.final_mask()),
        svc.routes(), tc.name);
    const std::size_t dirty = count_dirty(svc);
    dirty_seen += dirty;
    EXPECT_EQ(svc.stats().dirty, dirty) << tc.name;
    EXPECT_EQ(dirty_g.value(), static_cast<std::int64_t>(dirty)) << tc.name;

    // Bring every link back: the index must drain to empty.
    for (const lsdb::LinkStateRecord& rec : svc.lsdb().export_records()) {
      if (rec.down) svc.ingest({rec.edge, true, rec.generation + 1});
    }
    svc.quiesce();
    EXPECT_EQ(count_dirty(svc), 0u) << tc.name;
    EXPECT_EQ(svc.stats().dirty, 0u) << tc.name;
    EXPECT_EQ(dirty_g.value(), 0) << tc.name;
    svc.stop();
  }
  EXPECT_GT(dirty_seen, 0u) << "no storm left a demand dirty";
}

TEST(ServiceGroupCommit, RecoveryToEmptyMaskReusesTheBaseline) {
  // A link-up that empties the failure mask reroutes every dirty demand
  // onto its provisioned baseline by copying it: no greedy decomposition
  // runs (no decompose.pieces samples), and every route equals the
  // provisioned one.
  const obs::Histogram pieces =
      obs::MetricsRegistry::global().histogram("decompose.pieces");
  for (const TopoCase& tc : largest_cases(3)) {
    const Graph& g = tc.g;
    Rng rng(6300 + g.num_nodes());
    const std::vector<Demand> demands = random_demands(g, 40, rng);
    ServiceOptions options;
    options.workers = 2;
    RestorationService svc(g, demands, options);
    const std::vector<core::Restoration> provisioned = svc.routes();
    std::vector<std::uint64_t> gens(g.num_edges(), 0);
    std::uint64_t recovered_reroutes = 0;
    for (int i = 0; i < 6; ++i) {
      // A link on some demand's route, so the failure dirties it.
      const graph::Path& hit = provisioned[rng.below(demands.size())].backup;
      if (hit.empty()) continue;
      const EdgeId e = hit.edges()[rng.below(hit.edges().size())];
      flip(svc, gens, e, /*up=*/false);
      const std::uint64_t pieces_before = pieces.count();
      const std::uint64_t reroutes_before = svc.stats().reroutes;
      flip(svc, gens, e, /*up=*/true);
      const std::string ctx = tc.name + " recover " + std::to_string(e);
      EXPECT_EQ(pieces.count(), pieces_before) << ctx;
      expect_identical_tables(provisioned, svc.routes(), ctx);
      EXPECT_EQ(svc.stats().dirty, 0u) << ctx;
      recovered_reroutes += svc.stats().reroutes - reroutes_before;
    }
    EXPECT_GT(recovered_reroutes, 0u) << tc.name;
    svc.stop();
  }
}

TEST(ServiceStageTimers, HistogramsAndTraceEventsFollowTheRecord) {
  // commit_group() times the compute stages from each RerouteRecord's
  // stamps: one svc.reroute sample per reroute, an svc.spf sample only when
  // a link was down, an svc.decompose sample only for a restored route.
  // With the tracer on, each svc.spf event lies inside an svc.reroute event
  // on the same (worker) thread.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::Histogram reroute_h = reg.histogram("svc.reroute");
  const obs::Histogram spf_h = reg.histogram("svc.spf");
  const obs::Histogram decompose_h = reg.histogram("svc.decompose");
  const TopoCase tc = largest_cases(1).front();
  const Graph& g = tc.g;
  Rng rng(6500 + g.num_nodes());
  const std::vector<Demand> demands = random_demands(g, 60, rng);
  const chaos::Storm storm = chaos::plan_storm(g, storm_config(), rng);
  ServiceOptions options;
  options.workers = 2;
  RestorationService svc(g, demands, options);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  const std::uint64_t reroutes0 = svc.stats().reroutes;
  const std::uint64_t reroute0 = reroute_h.count();
  const std::uint64_t spf0 = spf_h.count();
  const std::uint64_t decompose0 = decompose_h.count();
  // Quiesce after each event, so every link-down event's reroutes run
  // while that link is still down.
  for (const chaos::StormEvent& d : storm.deliveries) {
    svc.ingest(d.event);
    svc.quiesce();
  }
  tracer.disable();

  const std::uint64_t reroutes = svc.stats().reroutes - reroutes0;
  const std::uint64_t spf = spf_h.count() - spf0;
  EXPECT_GT(reroutes, 0u);
  EXPECT_GT(spf, 0u) << "the storm never rerouted with a link down";
  EXPECT_EQ(reroute_h.count() - reroute0, reroutes);
  EXPECT_LE(spf, reroutes);
  EXPECT_LE(decompose_h.count() - decompose0, spf);

  std::vector<obs::TraceEvent> reroute_events;
  std::vector<obs::TraceEvent> spf_events;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.name) == "svc.reroute") reroute_events.push_back(ev);
    if (std::string_view(ev.name) == "svc.spf") spf_events.push_back(ev);
  }
  EXPECT_EQ(reroute_events.size(), reroutes);
  EXPECT_EQ(spf_events.size(), spf);
  for (const obs::TraceEvent& inner : spf_events) {
    const bool nested = std::any_of(
        reroute_events.begin(), reroute_events.end(),
        [&](const obs::TraceEvent& outer) {
          return outer.tid == inner.tid && outer.ts_ns <= inner.ts_ns &&
                 inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns;
        });
    EXPECT_TRUE(nested) << "svc.spf at " << inner.ts_ns << " on tid "
                        << inner.tid << " outside every svc.reroute";
  }
  tracer.clear();
  svc.stop();
}

// ---------------------------------------------------------------------------
// The reverse index: a slot per (demand, hop), moved by swap-and-pop on every
// install. A link-down event must reroute exactly the demands on the link.
// ---------------------------------------------------------------------------

TEST(ServiceEquivalence, DownEventReroutesExactlyTheDemandsOnTheLink) {
  // A storm first moves many routes in and out of the index. Then every
  // link some current route uses is failed alone (over the storm's final
  // mask) and recovered. A stale slot reroutes a demand that is not on the
  // link (the reroute delta grows); a lost slot misses one (the table
  // differs from the serial replay).
  const TopoCase tc = largest_cases(1).front();
  const Graph& g = tc.g;
  Rng rng(6400 + g.num_nodes());
  const std::vector<Demand> demands = random_demands(g, 60, rng);
  chaos::StormConfig config = storm_config();
  config.events = 24;
  const chaos::Storm storm = chaos::plan_storm(g, config, rng);
  const FailureMask storm_mask = storm.final_mask();
  const std::vector<core::Restoration> settled =
      serial_replay(g, ServiceOptions{}.metric, demands, storm_mask);

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServiceOptions options;
    options.workers = workers;
    RestorationService svc(g, demands, options);
    ingest_all(svc, storm.deliveries);
    const std::string base_ctx =
        tc.name + " workers=" + std::to_string(workers);
    expect_identical_tables(settled, svc.routes(), base_ctx + " storm");
    EXPECT_GT(svc.stats().installs, 0u) << base_ctx;

    std::vector<std::uint64_t> gens = storm.final_generations(g.num_edges());
    std::size_t links_failed = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      std::size_t on_link = 0;
      for (const core::Restoration& r : svc.routes()) {
        const auto edges = r.backup.edges();
        on_link += std::find(edges.begin(), edges.end(), e) != edges.end();
      }
      if (on_link == 0) continue;
      ++links_failed;
      const std::string ctx = base_ctx + " fail " + std::to_string(e);
      const std::uint64_t before = svc.stats().reroutes;
      flip(svc, gens, e, /*up=*/false);
      EXPECT_EQ(svc.stats().reroutes - before, on_link) << ctx;
      FailureMask mask = storm_mask;
      mask.fail_edge(e);
      expect_identical_tables(
          serial_replay(g, options.metric, demands, mask), svc.routes(), ctx);
      flip(svc, gens, e, /*up=*/true);
      expect_identical_tables(settled, svc.routes(), ctx + " recovered");
    }
    EXPECT_GT(links_failed, 0u) << base_ctx;
    svc.stop();
  }
}

}  // namespace
}  // namespace rbpc::service
