// Unit tests for src/util: RNG, statistics, histograms, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <source_location>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rbpc {
namespace {

// --- require ------------------------------------------------------------------

// require() is an inline compare with an out-of-line thrower; its default
// std::source_location argument must still resolve at the caller, so the
// message names this file and the line of the call.

TEST(Require, LiteralFailureNamesTheCallSite) {
  const std::source_location here = std::source_location::current();
  try {
    require(false, "literal check");  // here.line() + 2
    FAIL() << "require(false, ...) returned";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("literal check [at "), std::string::npos) << what;
    const std::string site =
        std::string(here.file_name()) + ':' + std::to_string(here.line() + 2);
    EXPECT_NE(what.find(site), std::string::npos) << what;
  }
  EXPECT_NO_THROW(require(true, "literal check"));
}

TEST(Require, StringFailureNamesTheCallSite) {
  const std::source_location here = std::source_location::current();
  try {
    require(false, std::string("built ") + "message");  // here.line() + 2
    FAIL() << "require(false, ...) returned";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("built message [at "), std::string::npos) << what;
    const std::string site =
        std::string(here.file_name()) + ':' + std::to_string(here.line() + 2);
    EXPECT_NE(what.find(site), std::string::npos) << what;
  }
  EXPECT_NO_THROW(require(true, std::string("built message")));
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), PreconditionError);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, SampleDistinctProducesDistinctValues) {
  Rng rng(13);
  const auto sample = rng.sample_distinct(100, 30);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleDistinctFullRange) {
  Rng rng(13);
  const auto sample = rng.sample_distinct(10, 10);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleDistinctRejectsOversample) {
  Rng rng(13);
  EXPECT_THROW(rng.sample_distinct(5, 6), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child stream should differ from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.next() == child.next());
  EXPECT_LT(equal, 4);
}

// --- StatAccumulator -----------------------------------------------------------

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  StatAccumulator single;
  single.add(3.5);
  EXPECT_DOUBLE_EQ(single.mean(), 3.5);
}

TEST(StatAccumulator, EmptyThrows) {
  StatAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_THROW(acc.mean(), PreconditionError);
  EXPECT_THROW(acc.min(), PreconditionError);
  EXPECT_THROW(acc.max(), PreconditionError);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  StatAccumulator whole;
  StatAccumulator left;
  StatAccumulator right;
  Rng rng(33);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10 - 5;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(StatAccumulator, MergeWithEmpty) {
  StatAccumulator a;
  a.add(1.0);
  StatAccumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// --- QuantileSketch -------------------------------------------------------------

TEST(QuantileSketch, ExactQuantiles) {
  QuantileSketch q;
  for (int i = 1; i <= 100; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.0, 1.0);
}

TEST(QuantileSketch, EmptyThrows) {
  QuantileSketch q;
  EXPECT_THROW(q.quantile(0.5), PreconditionError);
}

TEST(QuantileSketch, AddAfterQuery) {
  QuantileSketch q;
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.median(), 1.0);
  q.add(100.0);
  q.add(101.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 101.0);
}

// --- RatioOfMeans ----------------------------------------------------------------

TEST(RatioOfMeans, IsRatioOfSums) {
  RatioOfMeans r;
  r.add(4.0, 2.0);
  r.add(2.0, 2.0);
  // mean(num) / mean(den) = 3/2.
  EXPECT_DOUBLE_EQ(r.value(), 1.5);
}

TEST(RatioOfMeans, ZeroDenominatorThrows) {
  RatioOfMeans r;
  r.add(1.0, 0.0);
  EXPECT_THROW(r.value(), PreconditionError);
}

// --- IntHistogram ------------------------------------------------------------------

TEST(IntHistogram, CountsAndFractions) {
  IntHistogram h;
  h.add(2);
  h.add(2);
  h.add(3);
  h.add(7);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(2), 2u);
  EXPECT_EQ(h.count(5), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
  EXPECT_EQ(h.min_key(), 2);
  EXPECT_EQ(h.max_key(), 7);
}

TEST(IntHistogram, EmptyBehaviour) {
  IntHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
  EXPECT_THROW(h.min_key(), PreconditionError);
}

TEST(IntHistogram, WeightedAdd) {
  IntHistogram h;
  h.add(1, 10);
  h.add(2, 30);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

// --- BinnedHistogram -----------------------------------------------------------------

TEST(BinnedHistogram, BinPlacement) {
  BinnedHistogram h(1.0, 2.0, 10);
  h.add(1.0);   // bin 0
  h.add(1.05);  // bin 0
  h.add(1.15);  // bin 1
  h.add(1.999);  // bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(BinnedHistogram, OutOfRangeClamps) {
  BinnedHistogram h(1.0, 2.0, 4);
  h.add(0.5);
  h.add(99.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(BinnedHistogram, EdgesAndLabels) {
  BinnedHistogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 0.5);
  EXPECT_EQ(h.bin_label(0), "[0.00,0.25)");
}

TEST(BinnedHistogram, InvalidConstruction) {
  EXPECT_THROW(BinnedHistogram(2.0, 1.0, 4), PreconditionError);
  EXPECT_THROW(BinnedHistogram(0.0, 1.0, 0), PreconditionError);
}

// --- TablePrinter -------------------------------------------------------------------

TEST(TablePrinter, TextLayout) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  // Header comes first.
  EXPECT_LT(text.find("name"), text.find("alpha"));
}

TEST(TablePrinter, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::percent(0.256, 1), "25.6%");
}

// --- CliArgs -----------------------------------------------------------------------

TEST(CliArgs, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--samples", "40", "--seed=7", "--flag"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("samples", 0), 40);
  EXPECT_EQ(args.get_int("seed", 0), 7);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("missing", 123), 123);
}

TEST(CliArgs, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliArgs(2, argv), InputError);
}

TEST(CliArgs, RejectsBadInteger) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.get_int("n", 0), InputError);
}

TEST(CliArgs, UintRejectsNegative) {
  const char* argv[] = {"prog", "--n", "-4"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.get_uint("n", 0), InputError);
}

TEST(CliArgs, DoubleAndBoolParsing) {
  const char* argv[] = {"prog", "--x=2.5", "--b=no"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_THROW(args.get_bool("x", false), InputError);
}

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 11u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_lo(i)), i);
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_hi(i)), i);
  }
}

TEST(LatencyHistogram, RecordCountSumMean) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.mean(), PreconditionError);
  h.record(10);
  h.record(20, 2);  // weight 2
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 50u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.0 / 3.0);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::bucket_of(10)), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::bucket_of(20)), 2u);
}

TEST(LatencyHistogram, QuantileNearestRank) {
  LatencyHistogram h;
  EXPECT_THROW(h.quantile(0.5), PreconditionError);
  for (int i = 0; i < 90; ++i) h.record(10);   // bucket [8, 15]
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket [512, 1023]
  // Quantiles are reported as the containing bucket's upper bound.
  EXPECT_EQ(h.quantile(0.0), 15u);
  EXPECT_EQ(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(0.9), 15u);
  EXPECT_EQ(h.quantile(0.91), 1023u);
  EXPECT_EQ(h.quantile(1.0), 1023u);
}

TEST(LatencyHistogram, MergeMatchesSequential) {
  LatencyHistogram a, b, all;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.below(100000);
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), all.bucket_count(i));
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(LatencyHistogram, MergeWithEmptyAndAddBucket) {
  LatencyHistogram a;
  a.record(42);
  LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.sum(), 42u);

  // add_bucket is the scrape primitive: counts land in the given bucket,
  // the sum is carried exactly.
  LatencyHistogram s;
  s.add_bucket(LatencyHistogram::bucket_of(42), 3, 126);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.sum(), 126u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_THROW(s.add_bucket(LatencyHistogram::kBuckets, 1, 0),
               PreconditionError);
}

}  // namespace
}  // namespace rbpc
