// Differential and property tests for the parallel batch restoration
// engine: core/batch.hpp (BatchRestorer), spf/tree_cache.hpp (shared
// per-source SPF trees) and util/thread_pool.hpp.
//
// The correctness backbone is the differential harness: on a corpus of 50+
// topologies (random families + the paper's gadgets), under both metrics
// and 1-4 edge failures, BatchRestorer with 1, 2 and 8 threads must produce
// results *identical* to the serial source_rbpc_restore loop — same backup
// path, same decomposition, same PC length. Restoration quality under
// failures hinges on consistent tiebreaking (cf. Bodwin-Wang / Bodwin-
// Parter on restorable tiebreaking), so bit-for-bit equality, not just
// equal cost, is the requirement.
//
// This file is also built standalone (rbpc_add_test in tests/CMakeLists.txt)
// so CI can run it under ThreadSanitizer to catch pool/cache data races.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <atomic>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "core/batch.hpp"
#include "core/decompose.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "apsp.hpp"
#include "spf/oracle.hpp"
#include "spf/tree_cache.hpp"
#include "topo/gadgets.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rbpc::core {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using graph::Path;

// The shared 54-topology corpus lives in corpus.hpp.
using rbpc::testing::TopoCase;
using rbpc::testing::corpus;

FailureMask random_edge_failures(const Graph& g, std::size_t k, Rng& rng) {
  FailureMask mask;
  for (auto e : rng.sample_distinct(g.num_edges(), k)) {
    mask.fail_edge(static_cast<EdgeId>(e));
  }
  return mask;
}

std::vector<RestoreJob> random_jobs(const Graph& g, std::size_t count,
                                    Rng& rng) {
  std::vector<RestoreJob> jobs;
  while (jobs.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    jobs.push_back(RestoreJob{s, t});
  }
  // Duplicates and shared sources are the batch engine's bread and butter:
  // repeat the first job and re-root the second at the first's source.
  if (jobs.size() >= 2) {
    jobs.push_back(jobs[0]);
    jobs.push_back(RestoreJob{jobs[0].src, jobs[1].dst});
  }
  return jobs;
}

void expect_identical(const Restoration& want, const Restoration& got,
                      const std::string& context) {
  EXPECT_EQ(want.backup, got.backup) << context << ": backup path differs";
  EXPECT_EQ(want.decomposition.pieces, got.decomposition.pieces)
      << context << ": decomposition pieces differ";
  EXPECT_EQ(want.decomposition.is_base, got.decomposition.is_base)
      << context << ": piece kinds differ";
  EXPECT_EQ(want.pc_length(), got.pc_length())
      << context << ": PC length differs";
}

// ---------------------------------------------------------------------------
// The differential harness. For the hop metric we use the all-pairs base
// set (Theorem 1 applies: <= k+1 pieces); for the weighted metric the
// canonical set (Theorems 2-3: <= 2k+1 components). Both bounds are
// asserted *through the batch API* on every restored job.
// ---------------------------------------------------------------------------

TEST(BatchDifferential, MatchesSerialLoopAcrossCorpusAndThreadCounts) {
  const std::vector<TopoCase> cases = corpus();
  ASSERT_GE(cases.size(), 50u);
  std::size_t compared = 0;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Graph& g = cases[ci].g;
    for (const spf::Metric metric :
         {spf::Metric::Hops, spf::Metric::Weighted}) {
      spf::DistanceOracle oracle(g, FailureMask{}, metric);
      AllPairsShortestBaseSet all_pairs(oracle);
      CanonicalBaseSet canonical(oracle);
      BasePathSet& base = (metric == spf::Metric::Hops)
                              ? static_cast<BasePathSet&>(all_pairs)
                              : static_cast<BasePathSet&>(canonical);

      // One restorer per thread count, reused across the k sweep so the
      // mask-change cache reset is exercised too.
      BatchRestorer batch1(base, BatchOptions{.threads = 1});
      BatchRestorer batch2(base, BatchOptions{.threads = 2});
      BatchRestorer batch8(base, BatchOptions{.threads = 8});

      Rng rng(7700 + ci * 17 + (metric == spf::Metric::Hops ? 0 : 1));
      for (std::size_t k = 1; k <= 4 && k < g.num_edges(); ++k) {
        const FailureMask mask = random_edge_failures(g, k, rng);
        const std::vector<RestoreJob> jobs = random_jobs(g, 6, rng);

        std::vector<Restoration> want;
        for (const RestoreJob& job : jobs) {
          want.push_back(source_rbpc_restore(base, job.src, job.dst, mask));
        }

        for (BatchRestorer* batch : {&batch1, &batch2, &batch8}) {
          const std::vector<Restoration> got = batch->restore_all(mask, jobs);
          ASSERT_EQ(got.size(), jobs.size());
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            expect_identical(
                want[i], got[i],
                cases[ci].name + " k=" + std::to_string(k) + " threads=" +
                    std::to_string(batch->threads()) + " job#" +
                    std::to_string(i));
            ++compared;
          }
        }

        // Theorem 1 / Theorems 2-3 PC-length ceilings, via the batch API.
        const std::size_t removed = mask.removed_edge_count(g);
        const std::size_t bound = (metric == spf::Metric::Hops)
                                      ? removed + 1
                                      : 2 * removed + 1;
        const std::vector<Restoration> got = batch8.restore_all(mask, jobs);
        for (const Restoration& r : got) {
          if (!r.restored()) continue;
          EXPECT_LE(r.pc_length(), bound)
              << cases[ci].name << ": theorem bound violated (k=" << removed
              << ")";
        }
      }
    }
  }
  // 54 topologies x 2 metrics x up-to-4 k x 8 jobs x 3 thread counts.
  EXPECT_GT(compared, 5000u);
}

// The gadget scenarios where the theorems are *tight*, replayed through the
// batch engine: the bound is hit exactly, proving the batch path preserves
// the canonical tie-breaking the constructions rely on.
TEST(BatchDifferential, TheoremTightGadgetsThroughBatchApi) {
  {
    // Figure 2 comb: failing all k spine edges forces exactly k+1 pieces.
    const std::size_t k = 4;
    const topo::CombGadget comb = topo::make_comb(k);
    spf::DistanceOracle oracle(comb.g, FailureMask{}, spf::Metric::Hops);
    AllPairsShortestBaseSet base(oracle);
    FailureMask mask;
    for (EdgeId e : comb.spine_edges) mask.fail_edge(e);
    BatchRestorer batch(base, BatchOptions{.threads = 4});
    const auto got =
        batch.restore_all(mask, {RestoreJob{comb.s, comb.t}});
    ASSERT_TRUE(got[0].restored());
    EXPECT_EQ(got[0].pc_length(), k + 1);
    const Restoration serial = source_rbpc_restore(base, comb.s, comb.t, mask);
    expect_identical(serial, got[0], "comb");
  }
  {
    // Figure 3 weighted chain: k+1 base paths interleaved with k loose
    // edges — 2k+1 components exactly.
    const std::size_t k = 3;
    const topo::WeightedChainGadget chain = topo::make_weighted_chain(k);
    spf::DistanceOracle oracle(chain.g, FailureMask{}, spf::Metric::Weighted);
    AllPairsShortestBaseSet base(oracle);
    FailureMask mask;
    for (EdgeId e : chain.cheap_parallel_edges) mask.fail_edge(e);
    BatchRestorer batch(base, BatchOptions{.threads = 4});
    const auto got =
        batch.restore_all(mask, {RestoreJob{chain.s, chain.t}});
    ASSERT_TRUE(got[0].restored());
    EXPECT_EQ(got[0].pc_length(), 2 * k + 1);
    EXPECT_EQ(got[0].decomposition.base_count(), k + 1);
    EXPECT_EQ(got[0].decomposition.edge_count(), k);
  }
}

// ---------------------------------------------------------------------------
// BatchRestorer semantics and stats.
// ---------------------------------------------------------------------------

TEST(BatchRestorer, EdgeCasesMatchSerialSemantics) {
  Rng topo_rng(42);
  const Graph g = topo::make_random_connected(16, 30, topo_rng, 5);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet base(oracle);
  BatchRestorer batch(base, BatchOptions{.threads = 3});

  // Empty batch.
  EXPECT_TRUE(batch.restore_all(FailureMask{}, {}).empty());

  // Trivial pair (src == dst): restored with an empty decomposition, like
  // the serial engine.
  const auto trivial = batch.restore_all(FailureMask{}, {RestoreJob{3, 3}});
  const Restoration serial_trivial = source_rbpc_restore(base, 3, 3, FailureMask{});
  expect_identical(serial_trivial, trivial[0], "trivial pair");
  EXPECT_TRUE(trivial[0].restored());
  EXPECT_EQ(trivial[0].pc_length(), 0u);

  // Failed source throws, exactly like spf::shortest_tree in the serial
  // path; failed destination is merely unrestorable.
  FailureMask dead_node;
  dead_node.fail_node(5);
  EXPECT_THROW(batch.restore_all(dead_node, {RestoreJob{5, 7}}),
               PreconditionError);
  EXPECT_THROW(source_rbpc_restore(base, 5, 7, dead_node), PreconditionError);
  const auto to_dead = batch.restore_all(dead_node, {RestoreJob{7, 5}});
  EXPECT_FALSE(to_dead[0].restored());

  // Out-of-range endpoints throw.
  EXPECT_THROW(batch.restore_all(
                   FailureMask{},
                   {RestoreJob{0, static_cast<NodeId>(g.num_nodes())}}),
               PreconditionError);
}

TEST(BatchRestorer, SharesTreesAcrossJobsAndBatchesUnderOneMask) {
  // Two failed links per mask: the cut rung takes only single failures, so
  // every job here reads a tree under the mask.
  Rng topo_rng(77);
  const Graph g = topo::make_random_connected(20, 45, topo_rng, 6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet base(oracle);
  BatchRestorer batch(base, BatchOptions{.threads = 2});

  const FailureMask mask = FailureMask::of_edges({0, 2});
  // 8 jobs from only 2 distinct sources.
  std::vector<RestoreJob> jobs;
  for (NodeId t = 2; t < 6; ++t) jobs.push_back(RestoreJob{0, t});
  for (NodeId t = 6; t < 10; ++t) jobs.push_back(RestoreJob{1, t});
  batch.restore_all(mask, jobs);
  EXPECT_EQ(batch.stats().spf_cache_misses, 2u);
  EXPECT_EQ(batch.stats().spf_cache_hits, jobs.size() - 2);

  // Same mask again (fresh object, equal content): everything is a hit.
  const FailureMask same = FailureMask::of_edges({2, 0});
  batch.restore_all(same, jobs);
  EXPECT_EQ(batch.stats().spf_cache_misses, 2u);
  EXPECT_EQ(batch.stats().spf_cache_hits, 2 * jobs.size() - 2);
  EXPECT_EQ(batch.stats().mask_changes, 0u);

  // New mask: the shared trees are invalid and rebuilt.
  const FailureMask other = FailureMask::of_edges({1, 3});
  batch.restore_all(other, jobs);
  EXPECT_EQ(batch.stats().mask_changes, 1u);
  EXPECT_EQ(batch.stats().spf_cache_misses, 4u);
  EXPECT_EQ(batch.stats().batches, 3u);
  EXPECT_EQ(batch.stats().jobs, 3 * jobs.size());

  // Back to the first mask: the engine keeps one view, so the first mask's
  // trees were dropped with it and are computed again.
  batch.restore_all(mask, jobs);
  const BatchStats stats = batch.stats();
  EXPECT_EQ(stats.mask_changes, 2u);
  EXPECT_EQ(stats.spf_cache_misses, 6u);
  EXPECT_EQ(stats.spf_cache_hits, 4 * jobs.size() - 6);
  // Every mask is non-empty, so every miss is a repair from the unfailed
  // trees or its from-scratch fallback.
  EXPECT_EQ(stats.spf_repairs + stats.spf_repair_fallbacks,
            stats.spf_cache_misses);
  EXPECT_EQ(stats.cut_routes + stats.cut_fallbacks, 0u);
}

TEST(BatchRestorer, SingleLinkBatchesTakeTheCutRungAndBuildNoView) {
  // One failed link: every job's route comes off two unfailed trees, so
  // the engine builds no view and the output still equals the serial loop.
  Rng topo_rng(78);
  const Graph g = topo::make_random_connected(20, 45, topo_rng, 6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet base(oracle);
  BatchRestorer batch(base, BatchOptions{.threads = 2});
  spf::DistanceOracle serial_oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet serial_base(serial_oracle);

  std::vector<RestoreJob> jobs;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 0; t < g.num_nodes(); t += 3) {
      jobs.push_back(RestoreJob{s, t});
    }
  }
  std::size_t answered = 0;
  for (EdgeId e = 0; e < g.num_edges(); e += 5) {
    const FailureMask mask = FailureMask::of_edges({e});
    const std::vector<Restoration> got = batch.restore_all(mask, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_identical(source_rbpc_restore(serial_base, jobs[i].src,
                                           jobs[i].dst, mask),
                       got[i], "link " + std::to_string(e));
    }
    answered += jobs.size();
  }
  const BatchStats stats = batch.stats();
  EXPECT_EQ(batch.tree_pool().views_created(), 0u);
  EXPECT_EQ(stats.cut_fallbacks, 0u);
  EXPECT_EQ(stats.cut_routes, answered);
  EXPECT_EQ(stats.spf_cache_hits + stats.spf_cache_misses, 0u);
  EXPECT_EQ(stats.mask_changes, 0u);
}

TEST(BatchRestorer, HardwareDefaultThreadCount) {
  Rng topo_rng(7);
  const Graph g = topo::make_ring(6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  AllPairsShortestBaseSet base(oracle);
  BatchRestorer batch(base, BatchOptions{.threads = 0});
  EXPECT_GE(batch.threads(), 1u);
  EXPECT_EQ(batch.threads(), ThreadPool::default_threads());
}

TEST(BatchRestorer, AffectedLspsFindsBrokenPaths) {
  const Graph g = topo::make_chain(5);  // edges i: i -- i+1
  std::vector<Path> lsps;
  lsps.push_back(Path::from_nodes(g, {0, 1, 2}));
  lsps.push_back(Path::from_nodes(g, {2, 3}));
  lsps.push_back(Path::trivial(4));
  lsps.push_back(Path{});
  FailureMask mask;
  mask.fail_edge(1);  // breaks 1-2, so only the first LSP
  EXPECT_EQ(affected_lsps(g, lsps, mask), (std::vector<std::size_t>{0}));
  FailureMask node_mask;
  node_mask.fail_node(2);  // breaks both non-trivial LSPs
  EXPECT_EQ(affected_lsps(g, lsps, node_mask),
            (std::vector<std::size_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// TreeCache property tests: a cached tree under mask M must agree with a
// fresh ApspMatrix(g, M) oracle on every distance.
// ---------------------------------------------------------------------------

TEST(TreeCacheProperty, AgreesWithApspOracleOnEveryDistance) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(500 + seed);
    const Graph g = topo::make_random_connected(14, 26, rng, 7);
    FailureMask mask = random_edge_failures(g, 1 + seed % 4, rng);
    if (seed % 2 == 1) {
      mask.fail_node(static_cast<NodeId>(rng.below(g.num_nodes())));
    }
    for (const spf::Metric metric :
         {spf::Metric::Hops, spf::Metric::Weighted}) {
      for (const bool padded : {false, true}) {
        spf::TreeCache cache(
            g, mask, spf::SpfOptions{.metric = metric, .padded = padded});
        const spf::ApspMatrix apsp(g, mask, metric);
        for (NodeId s = 0; s < g.num_nodes(); ++s) {
          if (!mask.node_alive(s)) {
            EXPECT_THROW(cache.tree(s), PreconditionError);
            continue;
          }
          const std::shared_ptr<const spf::ShortestPathTree> tree =
              cache.tree(s);
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            EXPECT_EQ(tree->dist(v), apsp.dist(s, v))
                << "seed=" << seed << " s=" << s << " v=" << v;
          }
        }
      }
    }
  }
}

TEST(TreeCacheProperty, DisconnectedSourceRegression) {
  // Failing node 0's only link isolates it without failing it: the cached
  // tree must report everything (but the source itself) unreachable, in
  // agreement with the APSP oracle — and the batch engine must report the
  // pair unrestorable rather than crash or hang.
  const Graph g = topo::make_chain(4);
  FailureMask mask;
  mask.fail_edge(0);  // 0 -- 1
  spf::TreeCache cache(g, mask,
                       spf::SpfOptions{.metric = spf::Metric::Weighted,
                                       .padded = true});
  const spf::ApspMatrix apsp(g, mask, spf::Metric::Weighted);
  const std::shared_ptr<const spf::ShortestPathTree> tree = cache.tree(0);
  EXPECT_EQ(tree->dist(0), 0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_EQ(tree->dist(v), graph::kUnreachable);
    EXPECT_EQ(tree->dist(v), apsp.dist(0, v));
    EXPECT_FALSE(tree->reachable(v));
  }

  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet base(oracle);
  BatchRestorer batch(base, BatchOptions{.threads = 2});
  const auto got = batch.restore_all(mask, {RestoreJob{0, 3}});
  EXPECT_FALSE(got[0].restored());
  const Restoration serial = source_rbpc_restore(base, 0, 3, mask);
  expect_identical(serial, got[0], "disconnected source");
}

TEST(TreeCacheProperty, CountsHitsAndComputesEachTreeOnce) {
  Rng rng(9);
  const Graph g = topo::make_random_connected(12, 20, rng, 4);
  spf::TreeCache cache(g, FailureMask{},
                       spf::SpfOptions{.metric = spf::Metric::Weighted});
  cache.tree(0);
  cache.tree(1);
  cache.tree(0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Full runs only: an early-exit cache would silently serve wrong answers.
  EXPECT_THROW(
      spf::TreeCache(g, FailureMask{},
                     spf::SpfOptions{.metric = spf::Metric::Hops,
                                     .stop_at = 3}),
      PreconditionError);
}

TEST(TreeCacheProperty, ConcurrentRequestsComputeOncePerSource) {
  // Half the sources are settled before the parallel phase, so lock-free
  // hits on them race the first computes and publishes of the other half.
  // Run under TSan in CI: a hit that could see a published entry before
  // its tree is a data race.
  Rng rng(13);
  const Graph g = topo::make_random_connected(24, 60, rng, 8);
  const spf::SpfOptions options{.metric = spf::Metric::Weighted,
                                .padded = true};
  spf::TreeCache cache(g, FailureMask{}, options);
  std::vector<spf::ShortestPathTree> want;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    want.push_back(spf::shortest_tree(g, s, FailureMask{}, options));
  }
  constexpr NodeId kSources = 10;
  for (NodeId s = 0; s < kSources; s += 2) cache.tree(s);  // settle evens
  const std::size_t misses0 = cache.misses();
  ThreadPool pool(8);
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for(400, [&](std::size_t i) {
    const NodeId s = static_cast<NodeId>(i % kSources);
    const std::shared_ptr<const spf::ShortestPathTree> tree = cache.tree(s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (tree->dist(v) != want[s].dist(v) ||
          tree->parent_edge(v) != want[s].parent_edge(v)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  // Each unsettled source ran SPF exactly once; every other call was a hit.
  EXPECT_EQ(cache.misses() - misses0, kSources / 2);
  EXPECT_EQ(cache.hits() + cache.misses(), 400u + kSources / 2);
  EXPECT_EQ(cache.size(), kSources);
}

// ---------------------------------------------------------------------------
// ThreadPool unit tests.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  pool.parallel_for(touched.size(),
                    [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i % 7 == 3) {
                                     require(false, "boom from worker");
                                   }
                                 }),
               PreconditionError);
  // The pool survives a throwing batch and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, SubmittedTasksDrainBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SizeAndDefaults) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "n == 0 runs nothing"; });
}

}  // namespace
}  // namespace rbpc::core
