// Crash-injection and recovery property suite for the persistence plane
// (src/persist + the RestorationService recovery path).
//
// The central property (ISSUE: crash-safe persistence): kill the process at
// *every* durability-operation boundary — clean stop, torn write, bit-flip —
// and recovery must (a) never crash or throw, (b) find a readable snapshot
// whenever the first rotation ever published one, and (c) after the LSA
// flood's redelivery, converge to a FEC table bit-identical to the serial
// source-RBPC restoration of the final failure mask. The sweep runs the
// service single-worker with a quiesce between ingests and explicit
// checkpoint() calls, so the operation numbering (and hence every kill
// point) is deterministic; FailpointIo models the dying process and a plain
// FileIo plays the disk the next process boots from.
//
// Built standalone (rbpc_add_test) so the CI crash-matrix job runs it under
// ASan/UBSan on both compilers.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/storm.hpp"
#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "persist/format.hpp"
#include "persist/io.hpp"
#include "persist/store.hpp"
#include "service/service.hpp"
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

// --- Shared scaffolding ----------------------------------------------------

/// A unique on-disk store directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rbpc_persist_XXXXXX";
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

/// Ground truth: serial source-RBPC restoration against the final mask.
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

/// Mild storm: the sweep re-runs the whole scenario once per kill point, so
/// the per-run op count has to stay small while still exercising loss,
/// reorder, duplication and flaps.
chaos::StormConfig sweep_storm_config() {
  chaos::StormConfig config;
  config.events = 6;
  config.max_concurrent = 2;
  config.faults.lsa_loss = 0.15;
  config.faults.lsa_jitter = 4.0;
  config.faults.lsa_dup = 0.15;
  config.faults.detect_jitter = 1.0;
  config.faults.miss_detect = 0.1;
  config.faults.flap_count = 1;
  return config;
}

/// Deterministic-op-order service configuration: one worker, no
/// maintenance thread (rotation only through explicit checkpoint()).
ServiceOptions sweep_options(const std::string& dir, persist::PersistIo* io) {
  ServiceOptions o;
  o.workers = 1;
  o.queue_capacity = 64;
  o.persist.dir = dir;
  o.persist.maintenance_interval_us = 0;
  o.persist.io = io;
  return o;
}

/// Drives the scenario until done — or until the armed kill fires, at which
/// point the process is "dead" and feeding it further events is meaningless.
void run_scenario(RestorationService& svc,
                  const std::vector<chaos::StormEvent>& deliveries,
                  const persist::FailpointIo* fp) {
  std::size_t i = 0;
  for (const chaos::StormEvent& d : deliveries) {
    if (fp != nullptr && fp->fired()) return;
    svc.ingest(d.event);
    svc.quiesce();
    if (++i % 3 == 0) svc.checkpoint();
  }
}

/// One full kill-point sweep over one topology: for every durability
/// operation in the deterministic schedule, crash there in `mode`, recover
/// through the real filesystem, redeliver the flood, and require the
/// quiescent table to match the serial replay bit for bit.
void sweep_topology(const TopoCase& tc, std::uint64_t seed,
                    persist::FailMode mode) {
  const Graph& g = tc.g;
  Rng rng(seed);
  const std::vector<Demand> demands = random_demands(g, 5, rng);
  const chaos::Storm storm = chaos::plan_storm(g, sweep_storm_config(), rng);
  const std::vector<core::Restoration> want = serial_replay(
      g, ServiceOptions{}.metric, demands, storm.final_mask());

  TempDir dir;
  persist::FileIo disk;
  persist::FailpointIo fp(disk);

  // Counting run: huge kill point, so ops_seen() after the run is the total
  // number of kill points to sweep; the count after construction bounds the
  // ops of the initial rotation (the first published snapshot).
  fp.arm(std::numeric_limits<std::uint64_t>::max(), mode);
  std::uint64_t construction_ops = 0;
  {
    RestorationService svc(g, demands, sweep_options(dir.path, &fp));
    construction_ops = fp.ops_seen();
    run_scenario(svc, storm.deliveries, nullptr);
  }
  const std::uint64_t total_ops = fp.ops_seen();
  ASSERT_GT(total_ops, construction_ops) << tc.name;

  // k == total_ops is the no-crash control.
  for (std::uint64_t k = 0; k <= total_ops; ++k) {
    const std::string ctx =
        tc.name + " kill@" + std::to_string(k) + "/" +
        std::to_string(total_ops) + " mode=" +
        std::to_string(static_cast<int>(mode));
    persist::PersistentStore::wipe(disk, dir.path);
    fp.arm(k, mode);
    {
      RestorationService svc(g, demands, sweep_options(dir.path, &fp));
      run_scenario(svc, storm.deliveries, &fp);
    }  // process memory gone: the other half of the crash

    // Reboot on the real disk. Must never throw, whatever the kill left.
    RestorationService svc2(g, demands, sweep_options(dir.path, &disk));
    if (k >= construction_ops) {
      // Rotation atomicity: once the constructor published snapshot #1, no
      // later kill point may leave the directory without a readable one.
      EXPECT_TRUE(svc2.recovered()) << ctx << ": snapshot lost";
    }
    // The flood's refresh redelivers everything; generation gating discards
    // what the recovered LSDB already knows.
    for (const chaos::StormEvent& d : storm.deliveries) svc2.ingest(d.event);
    svc2.quiesce();
    expect_identical_tables(want, svc2.routes(), ctx);
    if (::testing::Test::HasFailure()) return;  // one kill point is enough
  }
}

// --- Kill-point sweeps across the corpus -----------------------------------

class CrashSweepStop : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweepStop, RecoveryConvergesFromEveryKillPoint) {
  const std::vector<TopoCase> cases = corpus();
  const std::size_t ci = static_cast<std::size_t>(GetParam());
  ASSERT_LT(ci, cases.size());
  sweep_topology(cases[ci], 7100 + ci, persist::FailMode::kStop);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CrashSweepStop, ::testing::Range(0, 60),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus()[static_cast<std::size_t>(
                                               info.param)].name;
                         });

// Torn-write and bit-flip modes land corrupted bytes that recovery must
// detect via CRC; sweep them on a cross-section of the corpus (every fifth
// topology touches every family: gadgets, SRLG shapes, all three random
// families).
class CrashSweepTorn : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweepTorn, RecoveryConvergesFromEveryKillPoint) {
  const std::vector<TopoCase> cases = corpus();
  const std::size_t ci = static_cast<std::size_t>(GetParam());
  ASSERT_LT(ci, cases.size());
  sweep_topology(cases[ci], 7300 + ci, persist::FailMode::kTorn);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CrashSweepTorn,
                         ::testing::Range(0, 60, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus()[static_cast<std::size_t>(
                                               info.param)].name;
                         });

class CrashSweepFlip : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweepFlip, RecoveryConvergesFromEveryKillPoint) {
  const std::vector<TopoCase> cases = corpus();
  const std::size_t ci = static_cast<std::size_t>(GetParam());
  ASSERT_LT(ci, cases.size());
  sweep_topology(cases[ci], 7500 + ci, persist::FailMode::kFlip);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CrashSweepFlip,
                         ::testing::Range(0, 60, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus()[static_cast<std::size_t>(
                                               info.param)].name;
                         });

// --- Graceful restart (planned downtime) -----------------------------------

TEST(GracefulRestart, RetainedFecsServeSurvivingPathsThroughDowntime) {
  const std::vector<TopoCase> cases = corpus();
  for (const std::size_t ci : {1u, 8u, 13u, 20u, 35u, 50u}) {
    const Graph& g = cases[ci].g;
    const std::string& name = cases[ci].name;
    Rng rng(7700 + ci);
    const std::vector<Demand> demands = random_demands(g, 8, rng);
    chaos::StormConfig config = sweep_storm_config();
    config.events = 10;
    const chaos::Storm storm = chaos::plan_storm(g, config, rng);
    const std::size_t half = storm.deliveries.size() / 2;

    TempDir dir;
    persist::FileIo disk;

    // First life: half the storm, then the process goes away *without* a
    // final checkpoint — the synced WAL alone must carry the state over.
    std::vector<core::Restoration> routes1;
    std::vector<bool> dirty1(demands.size(), false);
    {
      RestorationService svc(g, demands, sweep_options(dir.path, &disk));
      for (std::size_t i = 0; i < half; ++i) {
        svc.ingest(storm.deliveries[i].event);
      }
      svc.quiesce();
      routes1 = svc.routes();
      for (std::size_t d = 0; d < demands.size(); ++d) {
        dirty1[d] = svc.dirty(d);
      }
      EXPECT_GT(svc.stats().wal_appends, 0u) << name;
    }

    // Second life. Recovery must retain the pre-downtime FEC for every
    // demand it has no reason to touch: clean (route == baseline) and not
    // riding an edge the recovered LSDB knows is down. Those LSPs kept
    // delivering through the downtime (their paths survive the truth mask
    // at the crash instant whenever the LSDB view was current) and keep
    // delivering now — the graceful restart.
    RestorationService svc2(g, demands, sweep_options(dir.path, &disk));
    ASSERT_TRUE(svc2.recovered()) << name;
    const ServiceStats rs = svc2.stats();
    EXPECT_EQ(rs.replay_anomalies, 0u) << name;
    const auto view = svc2.lsdb().snapshot();
    std::size_t retained = 0;
    for (std::size_t d = 0; d < demands.size(); ++d) {
      bool rides_down = false;
      for (const EdgeId e : routes1[d].backup.edges()) {
        if (view.edge_failed(e)) rides_down = true;
      }
      if (dirty1[d] || rides_down) continue;
      ++retained;
      const core::Restoration got = svc2.route(d);
      EXPECT_EQ(routes1[d].backup, got.backup)
          << name << " demand " << d << ": retained FEC changed";
      EXPECT_EQ(routes1[d].decomposition, got.decomposition)
          << name << " demand " << d << ": retained decomposition changed";
    }
    EXPECT_EQ(retained + rs.recovery_reenqueued, demands.size()) << name;

    // Catch up: the rest of the storm plus the full redelivery refresh.
    for (std::size_t i = half; i < storm.deliveries.size(); ++i) {
      svc2.ingest(storm.deliveries[i].event);
    }
    for (const chaos::StormEvent& d : storm.deliveries) svc2.ingest(d.event);
    svc2.quiesce();
    expect_identical_tables(
        serial_replay(g, ServiceOptions{}.metric, demands,
                      storm.final_mask()),
        svc2.routes(), name + " post-restart");
  }
}

TEST(GracefulRestart, SecondRestartWithNoNewEventsIsStable) {
  const Graph g = rbpc::testing::make_wheel16();
  Rng rng(7801);
  const std::vector<Demand> demands = random_demands(g, 8, rng);
  const chaos::Storm storm = chaos::plan_storm(g, sweep_storm_config(), rng);

  TempDir dir;
  persist::FileIo disk;
  std::vector<core::Restoration> settled;
  {
    RestorationService svc(g, demands, sweep_options(dir.path, &disk));
    run_scenario(svc, storm.deliveries, nullptr);
    svc.quiesce();
    settled = svc.routes();
  }
  for (int life = 0; life < 3; ++life) {
    RestorationService svc(g, demands, sweep_options(dir.path, &disk));
    ASSERT_TRUE(svc.recovered()) << "life " << life;
    svc.quiesce();
    expect_identical_tables(settled, svc.routes(),
                            "life " + std::to_string(life));
    EXPECT_EQ(svc.stats().replay_anomalies, 0u);
  }
}

TEST(GracefulRestart, RecoveryStatsAndMetricsArePopulated) {
  const Graph g = rbpc::testing::make_wheel16();
  Rng rng(7802);
  const std::vector<Demand> demands = random_demands(g, 6, rng);
  const chaos::Storm storm = chaos::plan_storm(g, sweep_storm_config(), rng);

  TempDir dir;
  persist::FileIo disk;
  {
    RestorationService svc(g, demands, sweep_options(dir.path, &disk));
    EXPECT_TRUE(svc.persistent());
    EXPECT_FALSE(svc.recovered());
    run_scenario(svc, storm.deliveries, nullptr);
    // One fresh LSA after the last checkpoint so the WAL is guaranteed to
    // hold at least one record the next recovery must replay.
    svc.ingest(lsdb::LinkEvent{0, /*up=*/false, /*generation=*/10000});
    svc.quiesce();
    const ServiceStats s = svc.stats();
    EXPECT_GT(s.wal_appends, 0u);
    EXPECT_GT(s.wal_bytes, 0u);
    EXPECT_GE(s.persist_snapshots, 1u);
  }
  RestorationService svc2(g, demands, sweep_options(dir.path, &disk));
  EXPECT_TRUE(svc2.recovered());
  const ServiceStats s2 = svc2.stats();
  EXPECT_GT(s2.recovered_wal_records, 0u);
  EXPECT_GT(s2.recovery_us, 0u);
}

// --- PersistentStore unit behavior -----------------------------------------

persist::WalRecord link_record(EdgeId e, bool up, std::uint64_t gen) {
  persist::WalRecord r;
  r.type = persist::WalType::kLinkEvent;
  r.link = lsdb::LinkEvent{e, up, gen};
  return r;
}

TEST(PersistentStore, FreshDirRecoversEmptyAndRoundTripsAppends) {
  TempDir dir;
  persist::FileIo disk;
  persist::SnapshotState state;
  state.num_edges = 4;
  {
    persist::PersistentStore store(disk, {dir.path});
    const persist::RecoverResult rec = store.recover();
    EXPECT_FALSE(rec.found);
    EXPECT_FALSE(store.has_snapshot());
    store.rotate(state);
    EXPECT_TRUE(store.has_snapshot());
    store.append(link_record(0, false, 1));
    store.append(link_record(2, false, 3));
    EXPECT_EQ(store.records_since_rotate(), 2u);
  }
  persist::PersistentStore store(disk, {dir.path});
  const persist::RecoverResult rec = store.recover();
  ASSERT_TRUE(rec.found);
  EXPECT_EQ(rec.snapshot.num_edges, 4u);
  ASSERT_EQ(rec.wal.size(), 2u);
  EXPECT_EQ(rec.wal[0].link.edge, 0u);
  EXPECT_EQ(rec.wal[1].link.generation, 3u);
  EXPECT_FALSE(rec.wal_truncated);
}

TEST(PersistentStore, TornWalTailIsTruncatedNotFatal) {
  TempDir dir;
  persist::FileIo disk;
  std::uint64_t seq = 0;
  {
    persist::PersistentStore store(disk, {dir.path});
    store.recover();
    seq = store.rotate(persist::SnapshotState{});
    store.append(link_record(1, false, 1));
  }
  // A crash mid-append: garbage after the valid record.
  {
    auto s = disk.open_append(dir.path + "/wal-" + std::to_string(seq) +
                              ".log");
    const std::uint8_t junk[] = {0x21, 0x00, 0x00, 0x00, 0xde, 0xad};
    s->write(junk, sizeof(junk));
    s->sync();
  }
  persist::PersistentStore store(disk, {dir.path});
  const persist::RecoverResult rec = store.recover();
  ASSERT_TRUE(rec.found);
  EXPECT_TRUE(rec.wal_truncated);
  ASSERT_EQ(rec.wal.size(), 1u);
  EXPECT_EQ(rec.wal[0].link.edge, 1u);
  // The torn tail is gone from disk: appends continue on a clean file that
  // the next recovery reads back whole.
  store.append(link_record(2, false, 2));
  persist::PersistentStore again(disk, {dir.path});
  const persist::RecoverResult rec2 = again.recover();
  EXPECT_FALSE(rec2.wal_truncated);
  ASSERT_EQ(rec2.wal.size(), 2u);
}

TEST(PersistentStore, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir;
  persist::FileIo disk;
  std::uint64_t newest = 0;
  {
    persist::PersistentStore store(disk, {dir.path});
    store.recover();
    persist::SnapshotState s1;
    s1.num_edges = 11;
    store.rotate(s1);
    persist::SnapshotState s2;
    s2.num_edges = 22;
    newest = store.rotate(s2);
  }
  // rotate() removed the older pair, so re-create an older snapshot the
  // fallback can land on, then flip a byte in the newest.
  {
    persist::SnapshotState s1;
    s1.seq = newest - 1;
    s1.num_edges = 11;
    const std::vector<std::uint8_t> bytes = persist::encode_snapshot(s1);
    auto s = disk.open_trunc(dir.path + "/snap-" +
                             std::to_string(newest - 1) + ".rbpc");
    s->write(bytes.data(), bytes.size());
    s->sync();
  }
  const std::string newest_path =
      dir.path + "/snap-" + std::to_string(newest) + ".rbpc";
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(disk.read_file(newest_path, bytes));
  bytes[bytes.size() / 2] ^= 0x01;
  {
    auto s = disk.open_trunc(newest_path);
    s->write(bytes.data(), bytes.size());
    s->sync();
  }
  persist::PersistentStore store(disk, {dir.path});
  const persist::RecoverResult rec = store.recover();
  ASSERT_TRUE(rec.found);
  EXPECT_EQ(rec.snapshot.num_edges, 11u);
  EXPECT_EQ(rec.snapshots_skipped, 1u);
  // Sequence numbers seen on disk are never reused.
  EXPECT_GT(store.rotate(persist::SnapshotState{}), newest);
}

TEST(PersistentStore, WipeClearsTheDirectory) {
  TempDir dir;
  persist::FileIo disk;
  {
    persist::PersistentStore store(disk, {dir.path});
    store.recover();
    store.rotate(persist::SnapshotState{});
    store.append(link_record(0, false, 1));
  }
  persist::PersistentStore::wipe(disk, dir.path);
  persist::PersistentStore store(disk, {dir.path});
  EXPECT_FALSE(store.recover().found);
}

persist::WalRecord fec_record(std::uint32_t demand, std::uint64_t stamp,
                              std::vector<std::uint32_t> nodes,
                              std::vector<std::uint32_t> edges) {
  persist::WalRecord r;
  r.type = persist::WalType::kFecInstall;
  r.fec.demand = demand;
  r.fec.stamp = stamp;
  r.fec.nodes = std::move(nodes);
  r.fec.edges = std::move(edges);
  return r;
}

TEST(PersistentStore, GroupAppendWritesTheBytesOfSingleAppends) {
  // One append_group() call must leave the WAL, and the store's counters,
  // exactly as the same records appended one at a time would.
  const std::vector<persist::WalRecord> recs = {
      link_record(3, false, 1), fec_record(0, 1, {0, 4, 2}, {7, 9}),
      fec_record(5, 1, {}, {}), link_record(3, true, 2),
      fec_record(0, 2, {0, 1}, {3})};
  persist::FileIo disk;
  TempDir single_dir;
  TempDir group_dir;
  persist::PersistentStore single(disk, {single_dir.path});
  persist::PersistentStore group(disk, {group_dir.path});
  single.recover();
  group.recover();
  const std::uint64_t seq = single.rotate(persist::SnapshotState{});
  ASSERT_EQ(group.rotate(persist::SnapshotState{}), seq);
  for (const persist::WalRecord& r : recs) single.append(r);
  group.append_group(recs);
  group.append_group({});  // an empty group writes nothing

  EXPECT_EQ(group.appends(), single.appends());
  EXPECT_EQ(group.appends(), recs.size());
  EXPECT_EQ(group.bytes_appended(), single.bytes_appended());
  EXPECT_EQ(group.records_since_rotate(), single.records_since_rotate());
  const std::string wal = "/wal-" + std::to_string(seq) + ".log";
  std::vector<std::uint8_t> single_bytes;
  std::vector<std::uint8_t> group_bytes;
  ASSERT_TRUE(disk.read_file(single_dir.path + wal, single_bytes));
  ASSERT_TRUE(disk.read_file(group_dir.path + wal, group_bytes));
  EXPECT_EQ(group_bytes, single_bytes);
  EXPECT_EQ(group_bytes.size(),
            persist::kWalHeaderBytes + group.bytes_appended());

  persist::PersistentStore again(disk, {group_dir.path});
  const persist::RecoverResult rec = again.recover();
  ASSERT_EQ(rec.wal.size(), recs.size());
  EXPECT_EQ(rec.wal[1].fec.nodes, recs[1].fec.nodes);
  EXPECT_EQ(rec.wal[4].fec.stamp, 2u);
}

TEST(PersistentStore, TornGroupWriteRecoversAPrefixOfTheGroup) {
  // Five 22-byte records in one group; a torn kill lands the first half of
  // the in-flight bytes (55), so recovery keeps two whole records and
  // truncates the torn third, whether the kill hits the write or the sync.
  std::vector<persist::WalRecord> recs;
  for (EdgeId e = 0; e < 5; ++e) recs.push_back(link_record(e, false, e + 1));
  for (const std::uint64_t kill_at : {0u, 1u}) {  // 0 = write, 1 = fsync
    const std::string ctx = "kill at group op " + std::to_string(kill_at);
    TempDir dir;
    persist::FileIo disk;
    persist::FailpointIo fp(disk);
    {
      persist::PersistentStore store(fp, {dir.path});
      store.recover();
      store.rotate(persist::SnapshotState{});
      fp.arm(kill_at, persist::FailMode::kTorn);  // counts from here
      store.append_group(recs);
      EXPECT_TRUE(fp.fired()) << ctx;
    }
    persist::PersistentStore store(disk, {dir.path});
    const persist::RecoverResult rec = store.recover();
    ASSERT_TRUE(rec.found) << ctx;
    EXPECT_TRUE(rec.wal_truncated) << ctx;
    ASSERT_EQ(rec.wal.size(), 2u) << ctx;
    for (std::size_t i = 0; i < rec.wal.size(); ++i) {
      EXPECT_EQ(rec.wal[i].link.edge, recs[i].link.edge) << ctx;
      EXPECT_EQ(rec.wal[i].link.generation, recs[i].link.generation) << ctx;
    }
  }
}

// --- Format round-trips ----------------------------------------------------

TEST(PersistFormat, Crc32MatchesKnownVector) {
  const char msg[] = "123456789";
  EXPECT_EQ(persist::crc32(msg, 9), 0xCBF43926u);
}

TEST(PersistFormat, SnapshotRoundTripsExactly) {
  persist::SnapshotState s;
  s.seq = 7;
  s.num_edges = 9;
  s.links.push_back({3, true, 5});
  s.links.push_back({8, false, 2});
  s.arena_nodes = {0, 1, 2, 4, 5};
  s.arena_edges = {0, 1, graph::kInvalidEdge, 3, graph::kInvalidEdge};
  persist::DemandRecord d;
  d.src = 0;
  d.dst = 2;
  d.stamp = 13;
  d.route = graph::PathRef{0, 3};
  s.demands.push_back(d);
  d.src = 4;
  d.dst = 5;
  d.stamp = 0;
  d.route = graph::PathRef{3, 2};
  s.demands.push_back(d);

  const persist::SnapshotState out =
      persist::decode_snapshot(persist::encode_snapshot(s));
  EXPECT_EQ(out.seq, s.seq);
  EXPECT_EQ(out.num_edges, s.num_edges);
  ASSERT_EQ(out.links.size(), 2u);
  EXPECT_EQ(out.links[0].edge, 3u);
  EXPECT_TRUE(out.links[0].down);
  EXPECT_EQ(out.links[0].generation, 5u);
  ASSERT_EQ(out.demands.size(), 2u);
  EXPECT_EQ(out.demands[0].stamp, 13u);
  EXPECT_EQ(out.demands[0].route.offset, 0u);
  EXPECT_EQ(out.demands[0].route.len, 3u);
  EXPECT_EQ(out.demands[1].src, 4u);
  EXPECT_EQ(out.demands[1].route.offset, 3u);
  EXPECT_EQ(out.demands[1].route.len, 2u);
  EXPECT_EQ(out.arena_nodes, s.arena_nodes);
  EXPECT_EQ(out.arena_edges, s.arena_edges);
}

TEST(PersistFormat, V1SnapshotIsRefused) {
  // Format 1 carried a version floor and a baseline ref per demand, which
  // recovery never read. A well-formed v1 image (its own magic, layout and
  // CRC) must be refused with a RecoveryError, not misread as format 2.
  persist::BufWriter payload;
  payload.u64(7);   // seq
  payload.u64(42);  // lsdb_version (v1 only)
  payload.u32(9);   // num_edges
  payload.u32(1);   // one link record
  payload.u32(3);
  payload.u8(1);
  payload.u64(5);
  payload.u32(1);  // one demand
  payload.u32(0);
  payload.u32(2);
  payload.u64(13);
  payload.u32(0);  // route ref
  payload.u32(3);
  payload.u32(0);  // baseline ref (v1 only)
  payload.u32(3);
  const std::vector<std::uint32_t> nodes = {0, 1, 2};
  const std::vector<std::uint32_t> edges = {0, 1, graph::kInvalidEdge};
  payload.u64(nodes.size());
  payload.u32_span(nodes);
  payload.u64(edges.size());
  payload.u32_span(edges);
  const char v1_magic[8] = {'R', 'B', 'P', 'C', 'S', 'N', 'P', '1'};
  persist::BufWriter image;
  image.raw(v1_magic, sizeof(v1_magic));
  image.u64(payload.bytes().size());
  image.raw(payload.bytes().data(), payload.bytes().size());
  image.u32(persist::crc32(payload.bytes().data(), payload.bytes().size()));
  EXPECT_THROW(persist::decode_snapshot(image.bytes()), persist::RecoveryError);
  // The same payload under the current magic is a different format: it
  // must not decode either (its demand records are 8 bytes longer).
  std::vector<std::uint8_t> relabelled = image.take();
  std::copy(std::begin(persist::kSnapshotMagic),
            std::end(persist::kSnapshotMagic), relabelled.begin());
  EXPECT_THROW(persist::decode_snapshot(relabelled), persist::RecoveryError);
}

TEST(PersistFormat, WalRoundTripsExactly) {
  std::vector<std::uint8_t> bytes = persist::encode_wal_header(9);
  persist::WalRecord fec;
  fec.type = persist::WalType::kFecInstall;
  fec.fec.demand = 4;
  fec.fec.stamp = 77;
  fec.fec.nodes = {1, 5, 9};
  fec.fec.edges = {2, 6};
  for (const persist::WalRecord& r :
       {link_record(2, false, 3), fec, link_record(2, true, 4)}) {
    const std::vector<std::uint8_t> enc = persist::encode_wal_record(r);
    bytes.insert(bytes.end(), enc.begin(), enc.end());
  }
  const persist::WalScan scan = persist::scan_wal(bytes);
  EXPECT_EQ(scan.snapshot_seq, 9u);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].link.edge, 2u);
  EXPECT_FALSE(scan.records[0].link.up);
  EXPECT_EQ(scan.records[1].fec.demand, 4u);
  EXPECT_EQ(scan.records[1].fec.stamp, 77u);
  EXPECT_EQ(scan.records[1].fec.nodes, (std::vector<std::uint32_t>{1, 5, 9}));
  EXPECT_EQ(scan.records[1].fec.edges, (std::vector<std::uint32_t>{2, 6}));
  EXPECT_TRUE(scan.records[2].link.up);
}

}  // namespace
}  // namespace rbpc::service
