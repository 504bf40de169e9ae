// Property fuzz over every deserializer that reads untrusted bytes: graph
// serialization round-trips across generator families, and the persistence
// plane's snapshot/WAL decoders (src/persist/format.hpp) survive truncated,
// bit-flipped, length-lying and random-garbage images with a clean
// RecoveryError (snapshot) or a reported torn tail (WAL) — never UB. Built
// standalone so CI runs it under ASan/UBSan on both compilers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "graph/io.hpp"
#include "persist/format.hpp"
#include "topo/gadgets.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace rbpc::graph {
namespace {

void expect_same(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.directed(), b.directed());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    EXPECT_EQ(a.edge(e).weight, b.edge(e).weight);
  }
}

Graph round_trip(const Graph& g) {
  std::stringstream ss;
  save_graph(ss, g);
  return load_graph(ss);
}

class IoFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IoFuzz, RandomGraphsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.below(60);
  const std::size_t max_edges = n * (n - 1) / 2;
  const std::size_t edges = std::min(n - 1 + rng.below(2 * n), max_edges);
  const Graph g = topo::make_random_connected(
      n, edges, rng, static_cast<Weight>(1 + rng.below(1000)));
  expect_same(g, round_trip(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IoFuzzSpecial, GadgetsRoundTrip) {
  expect_same(topo::make_comb(4).g, round_trip(topo::make_comb(4).g));
  expect_same(topo::make_weighted_chain(3).g,
              round_trip(topo::make_weighted_chain(3).g));
  expect_same(topo::make_parallel_chain(2).g,
              round_trip(topo::make_parallel_chain(2).g));  // parallel edges
  expect_same(topo::make_directed_counterexample(6).g,
              round_trip(topo::make_directed_counterexample(6).g));  // digraph
}

TEST(IoFuzzSpecial, IspRoundTripPreservesSemantics) {
  Rng rng(9);
  const Graph g = topo::make_isp_like(rng);
  const Graph h = round_trip(g);
  expect_same(g, h);
  // Double round-trip is byte-identical.
  std::stringstream s1;
  std::stringstream s2;
  save_graph(s1, g);
  save_graph(s2, h);
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(IoFuzzSpecial, EmptyAndEdgelessGraphs) {
  GraphBuilder b(3);
  expect_same(b.build(), round_trip(b.build()));
  GraphBuilder empty(0);
  expect_same(empty.build(), round_trip(empty.build()));
}

// ---------------------------------------------------------------------------
// Persistence-plane deserializer fuzz: decode_snapshot and scan_wal consume
// crash debris and must hold "clean error, never UB" on every corruption.
// ---------------------------------------------------------------------------

/// A nontrivial but small valid snapshot image to corrupt.
std::vector<std::uint8_t> valid_snapshot_bytes() {
  persist::SnapshotState s;
  s.seq = 3;
  s.num_edges = 6;
  s.links.push_back({1, true, 4});
  s.links.push_back({5, false, 9});
  s.arena_nodes = {0, 2, 3, 1, 4};
  s.arena_edges = {0, 1, kInvalidEdge, 2, kInvalidEdge};
  persist::DemandRecord d;
  d.src = 0;
  d.dst = 3;
  d.stamp = 8;
  d.route = PathRef{0, 3};
  s.demands.push_back(d);
  d.src = 1;
  d.dst = 4;
  d.stamp = 0;
  d.route = PathRef{3, 2};
  s.demands.push_back(d);
  return persist::encode_snapshot(s);
}

/// A valid WAL image: header + one link event + one FEC install.
std::vector<std::uint8_t> valid_wal_bytes() {
  std::vector<std::uint8_t> bytes = persist::encode_wal_header(3);
  persist::WalRecord link;
  link.type = persist::WalType::kLinkEvent;
  link.link = lsdb::LinkEvent{2, false, 7};
  persist::WalRecord fec;
  fec.type = persist::WalType::kFecInstall;
  fec.fec.demand = 0;
  fec.fec.stamp = 21;
  fec.fec.nodes = {0, 2, 3};
  fec.fec.edges = {0, 1};
  for (const persist::WalRecord& r : {link, fec}) {
    persist::encode_wal_record_into(r, bytes);
  }
  return bytes;
}

TEST(PersistFuzz, EveryTruncatedSnapshotThrowsRecoveryError) {
  const std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  ASSERT_NO_THROW(persist::decode_snapshot(bytes));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(persist::decode_snapshot(
                     std::span<const std::uint8_t>(bytes.data(), len)),
                 persist::RecoveryError)
        << "prefix length " << len;
  }
}

TEST(PersistFuzz, EverySingleBitFlipInASnapshotThrowsRecoveryError) {
  const std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  std::vector<std::uint8_t> mutated = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = bytes[i] ^ static_cast<std::uint8_t>(1u << bit);
      // The CRC covers the whole payload and the framing is exact, so any
      // single-bit flip must be detected — no silent misdecode.
      EXPECT_THROW(persist::decode_snapshot(mutated), persist::RecoveryError)
          << "byte " << i << " bit " << bit;
    }
    mutated[i] = bytes[i];
  }
}

TEST(PersistFuzz, LengthLyingSnapshotsThrowRecoveryError) {
  // The u64 payload-length field sits right after the 8-byte magic.
  const std::size_t len_at = sizeof(persist::kSnapshotMagic);
  for (const std::uint64_t lie :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 20,
        ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
    ASSERT_GT(bytes.size(), len_at + 8);
    for (int b = 0; b < 8; ++b) {
      bytes[len_at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(lie >> (8 * b));
    }
    EXPECT_THROW(persist::decode_snapshot(bytes), persist::RecoveryError)
        << "lied length " << lie;
  }
}

TEST(PersistFuzz, RandomGarbageSnapshotsThrowRecoveryError) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> junk(rng.below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_THROW(persist::decode_snapshot(junk), persist::RecoveryError);
  }
}

TEST(PersistFuzz, TruncatedWalsReportTornTailsNeverThrowPastHeader) {
  const std::vector<std::uint8_t> bytes = valid_wal_bytes();
  const persist::WalScan whole = persist::scan_wal(bytes);
  ASSERT_EQ(whole.records.size(), 2u);
  ASSERT_FALSE(whole.truncated);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    if (len < persist::kWalHeaderBytes) {
      // No usable header: the file is not a WAL at all.
      EXPECT_THROW(persist::scan_wal(prefix), persist::RecoveryError) << len;
      continue;
    }
    const persist::WalScan scan = persist::scan_wal(prefix);
    EXPECT_EQ(scan.snapshot_seq, 3u) << len;
    EXPECT_LE(scan.records.size(), 2u) << len;
    EXPECT_LE(scan.valid_bytes, len) << len;
    // Every returned record is an intact prefix of the original sequence.
    for (std::size_t r = 0; r < scan.records.size(); ++r) {
      EXPECT_EQ(static_cast<int>(scan.records[r].type),
                static_cast<int>(whole.records[r].type))
          << len;
    }
    EXPECT_EQ(scan.truncated, len != bytes.size() &&
                                  scan.valid_bytes != len)
        << len;
  }
}

TEST(PersistFuzz, EverySingleBitFlipInAWalStopsCleanlyAtTheFlip) {
  const std::vector<std::uint8_t> bytes = valid_wal_bytes();
  std::vector<std::uint8_t> mutated = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = bytes[i] ^ static_cast<std::uint8_t>(1u << bit);
      if (i < persist::kWalHeaderBytes) {
        // Header flips either break the magic (RecoveryError) or change the
        // sequence number (caught later by the snapshot-seq match).
        try {
          const persist::WalScan scan = persist::scan_wal(mutated);
          EXPECT_NE(scan.snapshot_seq, 3u) << "byte " << i << " bit " << bit;
        } catch (const persist::RecoveryError&) {
        }
      } else {
        // Record flips are a torn tail: the scan keeps the intact prefix
        // and never returns a record whose bytes failed the CRC.
        const persist::WalScan scan = persist::scan_wal(mutated);
        EXPECT_TRUE(scan.truncated) << "byte " << i << " bit " << bit;
        EXPECT_LT(scan.valid_bytes, bytes.size())
            << "byte " << i << " bit " << bit;
        EXPECT_LE(scan.valid_bytes, i) << "byte " << i << " bit " << bit;
      }
      mutated[i] = bytes[i];
    }
    mutated[i] = bytes[i];
  }
}

TEST(PersistFuzz, LengthLyingWalRecordsAreTornTails) {
  for (const std::uint32_t lie :
       {std::uint32_t{0}, std::uint32_t{3}, persist::kMaxWalRecordBytes + 1,
        ~std::uint32_t{0}}) {
    std::vector<std::uint8_t> bytes = valid_wal_bytes();
    // Overwrite the first record's u32 length field (right after the
    // header) with the lie; the CRC covers the length, so even a plausible
    // lie fails the checksum instead of walking out of bounds.
    for (int b = 0; b < 4; ++b) {
      bytes[persist::kWalHeaderBytes + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(lie >> (8 * b));
    }
    const persist::WalScan scan = persist::scan_wal(bytes);
    EXPECT_TRUE(scan.truncated) << "lied length " << lie;
    EXPECT_TRUE(scan.records.empty()) << "lied length " << lie;
    EXPECT_EQ(scan.valid_bytes, persist::kWalHeaderBytes)
        << "lied length " << lie;
  }
}

TEST(PersistFuzz, RandomGarbageWalBodiesNeverReturnRecords) {
  Rng rng(78);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes = persist::encode_wal_header(1);
    const std::size_t junk = rng.below(200);
    for (std::size_t i = 0; i < junk; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    const persist::WalScan scan = persist::scan_wal(bytes);
    EXPECT_EQ(scan.snapshot_seq, 1u);
    // A random body passing framing + CRC32 is a ~2^-32 event per round;
    // treat any decoded record as a bug.
    EXPECT_TRUE(scan.records.empty()) << "round " << round;
  }
}

}  // namespace
}  // namespace rbpc::graph
