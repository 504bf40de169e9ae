// Tests for the observability subsystem (src/obs): the striped metrics
// registry, scoped trace spans, and the Chrome trace-event export.
//
// This suite is a standalone binary (see tests/CMakeLists.txt) because CI
// also runs it under ThreadSanitizer: the hammer tests below drive many
// writer threads into one counter/histogram while a scraper snapshots
// concurrently, which is exactly the access pattern the striped cells must
// keep race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/histogram.hpp"

namespace rbpc::obs {
namespace {

TEST(MetricsRegistry, SameNameSharesCells) {
  MetricsRegistry reg;
  Counter a = reg.counter("x");
  Counter b = reg.counter("x");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(MetricsRegistry, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add(5);
  g.set(9);
  h.record(1);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, GaugeSetAddSetMax) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("g");
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set_max(5);  // below current: no change
  EXPECT_EQ(g.value(), 7);
  g.set_max(42);
  EXPECT_EQ(g.value(), 42);
}

TEST(MetricsRegistry, HistogramSnapshotMergesStripes) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat");
  h.record(100);
  h.record(100);
  h.record(5000);
  const LatencyHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_EQ(snap.sum(), 5200u);
  EXPECT_EQ(snap.bucket_count(LatencyHistogram::bucket_of(100)), 2u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(-5);
  reg.histogram("h").record(7);
  const MetricsRegistry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count(), 1u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a\": 1"), std::string::npos);
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("a 1"), std::string::npos);
  EXPECT_NE(text.find("h/count 1"), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter c = reg.counter("c");
  Histogram h = reg.histogram("h");
  c.add(9);
  h.record(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(InstanceCounter, LocalValueWorksRegardlessOfBuild) {
  MetricsRegistry reg;
  InstanceCounter ic(reg.counter("mirrored"));
  ic.inc();
  ic.add(4);
  // TreeCache/BatchRestorer accessors read the local count; scrapes read
  // the registry mirror.
  EXPECT_EQ(ic.value(), 5u);
  EXPECT_EQ(reg.counter("mirrored").value(), 5u);
}

// --- Concurrency (the TSan targets) ----------------------------------------

TEST(MetricsConcurrency, HammeredCounterTotalsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<bool> stop{false};

  // Scraper: snapshots continuously while the writers run. Totals observed
  // mid-run are not asserted exact (writers are in flight), only
  // well-formed; the exactness assertion comes after the join.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsRegistry::Snapshot snap = reg.snapshot();
      for (const auto& c : snap.counters) {
        EXPECT_LE(c.value, kThreads * kPerThread);
      }
      for (const auto& h : snap.histograms) {
        EXPECT_LE(h.hist.count(), kThreads * kPerThread);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      Counter c = reg.counter("hammer.count");
      Histogram h = reg.histogram("hammer.lat");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(i & 0x3ff);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(reg.counter("hammer.count").value(), kThreads * kPerThread);
  const LatencyHistogram h = reg.histogram("hammer.lat").snapshot();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Each thread records 0..kPerThread-1 masked to 10 bits; the sum is
  // deterministic, so the sharded sums must fold to it exactly.
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) expected_sum += i & 0x3ff;
  EXPECT_EQ(h.sum(), kThreads * expected_sum);
}

TEST(MetricsConcurrency, GaugeSetMaxIsMonotoneUnderRaces) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("high.water");
  std::vector<std::thread> writers;
  for (int t = 1; t <= 8; ++t) {
    writers.emplace_back([&reg, t] {
      Gauge mine = reg.gauge("high.water");
      for (int i = 0; i < 20000; ++i) {
        mine.set_max(static_cast<std::int64_t>(t) * 1000 + (i % 1000));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(g.value(), 8999);  // max over every value any thread offered
}

// --- Spans and tracing ------------------------------------------------------

TEST(TraceSpan, RecordsDurationIntoNamedHistogram) {
  Histogram h = MetricsRegistry::global().histogram("test.span.hist");
  const std::uint64_t before = h.snapshot().count();
  {
    RBPC_TRACE_SPAN("test.span.hist");
  }
  EXPECT_EQ(h.snapshot().count(), before + 1);
}

TEST(TraceSpan, NestedSpansExportChromeJson) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.enable();
  std::thread worker([] {
    RBPC_TRACE_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) {
      RBPC_TRACE_SPAN("test.inner");
    }
  });
  worker.join();
  tracer.disable();

  const std::vector<TraceEvent> events = tracer.events();
  std::size_t outer = 0;
  std::size_t inner = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "test.outer") ++outer;
    if (std::string(e.name) == "test.inner") ++inner;
  }
  EXPECT_EQ(outer, 1u);
  EXPECT_EQ(inner, 3u);

  // Nesting: the outer span's [ts, ts+dur] window contains every inner
  // occurrence (how chrome://tracing decides to nest complete events).
  const TraceEvent* out_ev = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "test.outer") out_ev = &e;
  }
  ASSERT_NE(out_ev, nullptr);
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "test.inner") continue;
    EXPECT_GE(e.ts_ns, out_ev->ts_ns);
    EXPECT_LE(e.ts_ns + e.dur_ns, out_ev->ts_ns + out_ev->dur_ns);
  }

  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  tracer.clear();
}

TEST(TraceSpan, DisabledTracerRecordsNoEvents) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.disable();
  {
    RBPC_TRACE_SPAN("test.untraced");
  }
  std::size_t untraced = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (std::string(e.name) == "test.untraced") ++untraced;
  }
  EXPECT_EQ(untraced, 0u);
}

TEST(TraceSpan, ConcurrentSpansAllRecorded) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.enable();
  constexpr int kThreads = 8;
  constexpr int kSpansPer = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        RBPC_TRACE_SPAN("test.mt.span");
      }
    });
  }
  // Scrape the trace while the workers record into it (exercises the
  // reader/writer locking; counts observed mid-run are not asserted).
  for (int i = 0; i < 8; ++i) {
    (void)tracer.events().size();
  }
  for (std::thread& w : workers) w.join();
  tracer.disable();

  std::size_t spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (std::string(e.name) == "test.mt.span") ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads) * kSpansPer);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.clear();
}

TEST(TraceSpan, BoundedBufferCountsDropsIntoTheRegistry) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  const std::size_t old_cap = tracer.max_events_per_thread();
  const std::uint64_t dropped_before = tracer.dropped();
  const std::uint64_t reg_before =
      MetricsRegistry::global().counter("obs.trace.dropped").value();
  tracer.set_max_events_per_thread(16);
  tracer.enable();
  // A fresh thread gets an empty buffer, so exactly cap events fit and the
  // overflow is a deterministic 64 - 16.
  std::thread([&tracer] {
    for (int i = 0; i < 64; ++i) {
      tracer.record("test.drop.span", now_ns(), 1);
    }
  }).join();
  tracer.disable();
  EXPECT_EQ(tracer.dropped() - dropped_before, 64u - 16u);
  EXPECT_EQ(MetricsRegistry::global().counter("obs.trace.dropped").value() -
                reg_before,
            64u - 16u);
  // The buffered gauge tracks live events and clears with the buffers.
  EXPECT_GE(MetricsRegistry::global().gauge("obs.trace.buffered").value(),
            16);
  tracer.clear();
  EXPECT_EQ(MetricsRegistry::global().gauge("obs.trace.buffered").value(), 0);
  tracer.set_max_events_per_thread(old_cap);

  std::size_t kept = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (std::string(e.name) == "test.drop.span") ++kept;
  }
  EXPECT_EQ(kept, 0u);  // clear() dropped them
}

TEST(TraceSpan, ZeroCapClampsToOne) {
  Tracer& tracer = Tracer::global();
  const std::size_t old_cap = tracer.max_events_per_thread();
  tracer.set_max_events_per_thread(0);
  EXPECT_EQ(tracer.max_events_per_thread(), 1u);
  tracer.set_max_events_per_thread(old_cap);
}

// --- Prometheus exposition -------------------------------------------------

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(prometheus_name("svc.restore.latency"), "svc_restore_latency");
  EXPECT_EQ(prometheus_name("already_fine:name"), "already_fine:name");
  EXPECT_EQ(prometheus_name("bad-chars and+spaces"), "bad_chars_and_spaces");
  EXPECT_EQ(prometheus_name("0starts.with.digit"), "_0starts_with_digit");
  EXPECT_EQ(prometheus_name(""), "_");
}

TEST(Exposition, CountersGaugesAndHistogramShape) {
  MetricsRegistry reg;
  reg.counter("exp.count").add(5);
  reg.gauge("exp.gauge").set(-3);
  Histogram h = reg.histogram("exp.lat");
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(900);
  const std::string text = to_prometheus(reg.snapshot());

  EXPECT_NE(text.find("# TYPE exp_count_total counter"), std::string::npos);
  EXPECT_NE(text.find("exp_count_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("exp_gauge -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("exp_lat_sum 906"), std::string::npos);
  EXPECT_NE(text.find("exp_lat_count 4"), std::string::npos);
  // The +Inf bucket carries the total count.
  EXPECT_NE(text.find("exp_lat_bucket{le=\"+Inf\"} 4"), std::string::npos);

  // Bucket series are cumulative: counts never decrease as le increases.
  std::istringstream lines(text);
  std::string line;
  double prev = -1.0;
  std::size_t buckets = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("exp_lat_bucket{", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    const double count = std::stod(line.substr(sp + 1));
    EXPECT_GE(count, prev) << line;
    prev = count;
    ++buckets;
  }
  EXPECT_GE(buckets, 3u);
}

TEST(Exposition, ExemplarSyntaxOnBucketLines) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("exp.ex");
  h.record_with_exemplar(100, 4242);
  h.record(100);  // plain record must not disturb the exemplar
  const std::string text = to_prometheus(reg.snapshot());
  // OpenMetrics-style: `<bucket sample> # {request_id="4242"} 100`.
  const std::size_t pos = text.find("# {request_id=\"4242\"} 100");
  ASSERT_NE(pos, std::string::npos) << text;
  const std::size_t line_start = text.rfind('\n', pos) + 1;
  EXPECT_EQ(text.compare(line_start, 14, "exp_ex_bucket{"), 0)
      << "exemplar must ride a bucket line";
  // id 0 is "no exemplar": nothing recorded for an untagged histogram.
  MetricsRegistry reg2;
  reg2.histogram("exp.plain").record_with_exemplar(7, 0);
  EXPECT_EQ(to_prometheus(reg2.snapshot()).find("request_id"),
            std::string::npos);
}

// --- Quantile error bound --------------------------------------------------

TEST(LatencyHistogramBound, QuantileIsUpperBoundWithinFactorTwo) {
  // The documented contract (util/histogram.hpp, relied on by SLO
  // objectives): the reported quantile is >= the true quantile and < 2x it
  // for true values >= 1 (bucket i spans [2^(i-1), 2^i), reported as its
  // upper bound). Checked against an exact nearest-rank computation over
  // assorted value shapes.
  const std::vector<std::vector<std::uint64_t>> shapes = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
      {1, 1, 1, 1000},
      {7, 13, 255, 256, 257, 4096, 70'000},
      {1'000'000, 2'000'000, 3'000'000},
      {0, 0, 0, 0, 1},
  };
  for (const auto& values : shapes) {
    LatencyHistogram h;
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const std::uint64_t v : values) h.record(v);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      // Same nearest-rank definition as the histogram: smallest 1-based
      // rank r with r >= q * n.
      const std::size_t rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(sorted.size()))));
      const std::uint64_t exact = sorted[rank - 1];
      const std::uint64_t reported = h.quantile(q);
      EXPECT_GE(reported, exact) << "q=" << q;
      EXPECT_LT(reported, 2 * std::max<std::uint64_t>(exact, 1))
          << "q=" << q << " exact=" << exact;
    }
  }
}

}  // namespace
}  // namespace rbpc::obs
