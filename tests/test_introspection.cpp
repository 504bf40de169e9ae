// Tests for the live introspection plane (src/obs): request-trace records,
// the flight recorder's seqlock rings, SLO tracking, and the scrape
// endpoint. Standalone binary so the TSan CI job can hammer the
// concurrent-publish/collect and live-scrape paths directly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/slo.hpp"
#include "service/service.hpp"
#include "topo/generators.hpp"
#include "util/histogram.hpp"

namespace {

using namespace rbpc;

obs::RerouteRecord make_record(std::uint64_t id) {
  obs::RerouteRecord r;
  r.request_id = id;
  r.enqueue_ns = 100 * id;
  r.start_ns = 100 * id + 10;
  r.snapshot_ns = 100 * id + 20;
  r.spf_ns = 100 * id + 40;
  r.decompose_ns = 100 * id + 60;
  r.install_ns = 100 * id + 80;
  r.done_ns = 100 * id + 90;
  r.snapshot_version = id;
  r.demand = static_cast<std::uint32_t>(id % 7);
  r.src = 3;
  r.dst = 5;
  r.worker = 1;
  r.rung = static_cast<std::uint8_t>(obs::Rung::kRepaired);
  r.flags = obs::kFlagInstalled | obs::kFlagRevalidated;
  r.group = 32;
  return r;
}

TEST(RequestTrace, PackUnpackRoundTripsEveryField) {
  // The flight recorder copies a record into its slot words and back.
  const obs::RerouteRecord in = make_record(42);
  obs::FlightRecorder recorder(1, 4);
  recorder.publish(0, in);
  const std::vector<obs::RerouteRecord> collected = recorder.collect();
  ASSERT_EQ(collected.size(), 1u);
  const obs::RerouteRecord& out = collected[0];
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.enqueue_ns, in.enqueue_ns);
  EXPECT_EQ(out.start_ns, in.start_ns);
  EXPECT_EQ(out.snapshot_ns, in.snapshot_ns);
  EXPECT_EQ(out.spf_ns, in.spf_ns);
  EXPECT_EQ(out.decompose_ns, in.decompose_ns);
  EXPECT_EQ(out.install_ns, in.install_ns);
  EXPECT_EQ(out.done_ns, in.done_ns);
  EXPECT_EQ(out.snapshot_version, in.snapshot_version);
  EXPECT_EQ(out.demand, in.demand);
  EXPECT_EQ(out.src, in.src);
  EXPECT_EQ(out.dst, in.dst);
  EXPECT_EQ(out.worker, in.worker);
  EXPECT_EQ(out.rung, in.rung);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.group, in.group);
}

TEST(RequestTrace, RequestIdsAreUniqueAndNonzero) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = obs::next_request_id();
    EXPECT_NE(id, 0u);  // 0 is the "no request" sentinel
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(RequestTrace, RungNamesCoverTheLadder) {
  EXPECT_STREQ(obs::rung_name(obs::Rung::kCached), "cached");
  EXPECT_STREQ(obs::rung_name(obs::Rung::kCut), "cut");
  EXPECT_STREQ(obs::rung_name(obs::Rung::kRepaired), "repaired");
  EXPECT_STREQ(obs::rung_name(obs::Rung::kScratch), "scratch");
  EXPECT_STREQ(obs::rung_name(obs::Rung::kNoRoute), "no-route");
}

TEST(FlightRecorder, CollectReturnsPublishedRecords) {
  obs::FlightRecorder rec(2, 8);
  EXPECT_EQ(rec.workers(), 2u);
  EXPECT_EQ(rec.ring_size(), 8u);
  rec.publish(0, make_record(1));
  rec.publish(1, make_record(2));
  rec.publish(0, make_record(3));
  const std::vector<obs::RerouteRecord> got = rec.collect();
  ASSERT_EQ(got.size(), 3u);
  // collect() orders by done_ns.
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[2].request_id, 3u);
  EXPECT_EQ(rec.published(), 3u);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastN) {
  obs::FlightRecorder rec(1, 4);
  for (std::uint64_t id = 1; id <= 10; ++id) rec.publish(0, make_record(id));
  const std::vector<obs::RerouteRecord> got = rec.collect();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().request_id, 7u);
  EXPECT_EQ(got.back().request_id, 10u);
  EXPECT_EQ(rec.published(), 10u);
}

TEST(FlightRecorder, DumpJsonNamesRequestIdsAndRungs) {
  obs::FlightRecorder rec(1, 8);
  obs::RerouteRecord r = make_record(77);
  r.rung = static_cast<std::uint8_t>(obs::Rung::kScratch);
  rec.publish(0, r);
  const std::string json = rec.dump_json("unit test");
  EXPECT_NE(json.find("\"reason\": \"unit test\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"rung_name\": \"scratch\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_tail\""), std::string::npos);
}

TEST(FlightRecorder, SingleLinkFailureReroutesShowTheCutRung) {
  // A 6-ring: failing link 0 (0 - 1) reroutes the demand 0 -> 1 the other
  // way round, from the two unfailed trees alone.
  const graph::Graph g = topo::make_ring(6);
  service::ServiceOptions options;
  options.workers = 1;
  service::RestorationService svc(g, {{0, 1}, {3, 4}}, options);
  svc.ingest({0, /*up=*/false, 1});
  svc.quiesce();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cut_routes, 1u);
  EXPECT_EQ(stats.cut_fallbacks, 0u);
  EXPECT_EQ(svc.tree_pool().views_created(), 0u);
  const std::string json = svc.flight_recorder().dump_json("cut rung");
  EXPECT_NE(json.find("\"rung_name\": \"cut\""), std::string::npos) << json;
  svc.stop();
}

TEST(FlightRecorder, GroupCommitRecordsAreMonotoneAndSized) {
  // A 12x12 grid with 300 demands: failing a central link reroutes many
  // demands at once, so the workers commit them in groups. Every record's
  // stage stamps run forward from enqueue to done, and each names the size
  // of the group it was committed in.
  const graph::Graph g = topo::make_grid(12, 12);
  std::vector<service::Demand> demands;
  for (graph::NodeId i = 0; demands.size() < 300; ++i) {
    const graph::NodeId s = (i * 7) % g.num_nodes();
    const graph::NodeId t = (i * 13 + 5) % g.num_nodes();
    if (s != t) demands.push_back({s, t});
  }
  service::ServiceOptions options;
  options.workers = 2;
  options.flight_ring = 512;
  service::RestorationService svc(g, demands, options);
  std::uint64_t gen = 0;
  for (const graph::EdgeId e : {graph::EdgeId{130}, graph::EdgeId{131}}) {
    svc.ingest({e, /*up=*/false, ++gen});
    svc.quiesce();
    svc.ingest({e, /*up=*/true, ++gen});
    svc.quiesce();
  }
  const std::vector<obs::RerouteRecord> records =
      svc.flight_recorder().collect();
  ASSERT_FALSE(records.empty());
  for (const obs::RerouteRecord& r : records) {
    const std::string ctx = "request " + std::to_string(r.request_id);
    EXPECT_LE(r.enqueue_ns, r.start_ns) << ctx;
    EXPECT_LE(r.start_ns, r.snapshot_ns) << ctx;
    EXPECT_LE(r.snapshot_ns, r.spf_ns) << ctx;
    EXPECT_LE(r.spf_ns, r.decompose_ns) << ctx;
    EXPECT_LE(r.decompose_ns, r.install_ns) << ctx;
    EXPECT_LE(r.install_ns, r.done_ns) << ctx;
    EXPECT_GE(r.group, 1) << ctx;
    EXPECT_LE(r.group, 32) << ctx;
  }
  const std::string json = svc.flight_recorder().dump_json("group commit");
  EXPECT_NE(json.find("\"group\": "), std::string::npos);
  svc.stop();
}

TEST(FlightRecorder, ConcurrentPublishAndCollectStaysCoherent) {
  // One writer per ring plus a concurrent collector: every record a collect
  // returns must be internally consistent (unpacked fields match the
  // make_record shape), torn slots are skipped and counted — never
  // garbled. This is the suite's TSan target.
  constexpr std::size_t kPerWriter = 50'000;
  obs::FlightRecorder rec(4, 16);
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 4; ++w) {
    writers.emplace_back([&rec, w, &done] {
      std::uint64_t id = w * 1'000'000 + 1;
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        rec.publish(w, make_record(id++));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::size_t collected = 0;
  while (done.load(std::memory_order_acquire) < 4) {
    for (const obs::RerouteRecord& r : rec.collect()) {
      ++collected;
      // Internal consistency: all fields derive from one id.
      ASSERT_EQ(r.enqueue_ns, 100 * r.request_id);
      ASSERT_EQ(r.done_ns, 100 * r.request_id + 90);
      ASSERT_EQ(r.snapshot_version, r.request_id);
      ASSERT_EQ(r.demand, r.request_id % 7);
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(rec.published(), 4u * kPerWriter);
  // A final quiescent collect sees every slot cleanly — no torn skips once
  // the writers are gone. The mid-churn loop above may never observe a
  // record on a fast machine (writers can finish before the collector's
  // first pass), so the deterministic consistency sweep runs here.
  const std::vector<obs::RerouteRecord> settled = rec.collect();
  EXPECT_EQ(settled.size(), 4u * 16u);
  for (const obs::RerouteRecord& r : settled) {
    ASSERT_EQ(r.enqueue_ns, 100 * r.request_id);
    ASSERT_EQ(r.done_ns, 100 * r.request_id + 90);
    ASSERT_EQ(r.snapshot_version, r.request_id);
    ASSERT_EQ(r.demand, r.request_id % 7);
    ++collected;
  }
  EXPECT_GE(collected, 4u * 16u);
}

TEST(SloTracker, HistogramDeltaIsExactBucketwise) {
  LatencyHistogram prev;
  prev.record(3);
  prev.record(100);
  LatencyHistogram cur = prev;
  cur.record(3);
  cur.record(5000);
  const LatencyHistogram delta = obs::histogram_delta(cur, prev);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.bucket_count(LatencyHistogram::bucket_of(3)), 1u);
  EXPECT_EQ(delta.bucket_count(LatencyHistogram::bucket_of(5000)), 1u);
  EXPECT_EQ(delta.sum(), 3u + 5000u);
}

TEST(SloTracker, QuantileObjectiveBreachesAndRecovers) {
  obs::MetricsRegistry reg;
  obs::Histogram lat = reg.histogram("t.latency");
  obs::SloTracker slo(reg,
                      {obs::SloObjective{.name = "p99",
                                         .histogram = "t.latency",
                                         .quantile = 0.99,
                                         .threshold = 1000}});

  for (int i = 0; i < 100; ++i) lat.record(10);
  EXPECT_EQ(slo.tick(), 0u);
  EXPECT_EQ(slo.last_breached(), 0u);

  // A slow interval pushes the windowed p99 over the objective.
  for (int i = 0; i < 100; ++i) lat.record(50'000);
  EXPECT_EQ(slo.tick(), 1u);
  EXPECT_EQ(slo.last_breached(), 1u);
  ASSERT_EQ(slo.status().size(), 1u);
  EXPECT_TRUE(slo.status()[0].breached);
  EXPECT_GT(slo.status()[0].burn_pm, 1000u);  // violating, not just burning

  // Quiet ticks age the slow interval out of the rolling window: it stays
  // in the kWindowTicks-deep window for 5 more ticks (each still counted as
  // a breach — slo.breach bumps once per breached objective per tick) and
  // is evicted on the 6th, when the objective recovers.
  for (std::size_t i = 0; i < obs::SloTracker::kWindowTicks; ++i) {
    for (int j = 0; j < 100; ++j) lat.record(10);
    slo.tick();
  }
  EXPECT_EQ(slo.last_breached(), 0u);
  EXPECT_EQ(slo.total_breaches(), obs::SloTracker::kWindowTicks);
  EXPECT_EQ(reg.counter("slo.breach").value(), obs::SloTracker::kWindowTicks);

  // The slo.* export is in the same registry.
  EXPECT_EQ(reg.gauge("slo.p99.objective").value(), 1000);
  EXPECT_EQ(reg.gauge("slo.p99.breached").value(), 0);
}

TEST(SloTracker, RatioObjectiveComparesGauges) {
  obs::MetricsRegistry reg;
  reg.gauge("t.bad").set(3);
  reg.gauge("t.all").set(100);
  obs::SloTracker slo(reg, {},
                      {obs::SloRatioObjective{.name = "bad_frac",
                                              .numerator = "t.bad",
                                              .denominator = "t.all",
                                              .max_per_mille = 10}});
  EXPECT_EQ(slo.tick(), 1u);  // 30 per-mille > 10
  reg.gauge("t.bad").set(0);
  EXPECT_EQ(slo.tick(), 0u);
  // Zero/negative denominator reads as ratio 0, not a division crash.
  reg.gauge("t.all").set(0);
  reg.gauge("t.bad").set(5);
  EXPECT_EQ(slo.tick(), 0u);
  const std::string json = slo.to_json();
  EXPECT_NE(json.find("\"bad_frac\""), std::string::npos);
}

// --- Scrape endpoint -------------------------------------------------------

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

TEST(ExpositionServer, ServesPrometheusJsonFlightAndSlo) {
  obs::MetricsRegistry reg;
  reg.counter("end.point.hits").add(7);
  obs::Histogram lat = reg.histogram("end.latency");
  lat.record_with_exemplar(100, 12345);
  obs::FlightRecorder flight(1, 8);
  flight.publish(0, make_record(9));
  obs::SloTracker slo(reg,
                      {obs::SloObjective{.name = "lat",
                                         .histogram = "end.latency",
                                         .quantile = 0.5,
                                         .threshold = 1'000'000}});
  obs::ExpositionOptions eo;
  eo.registry = &reg;
  eo.flight = &flight;
  eo.slo = &slo;
  obs::ExpositionServer server(eo);
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  // Dotted names are sanitized, counters suffixed _total.
  EXPECT_NE(metrics.find("end_point_hits_total 7"), std::string::npos);
  EXPECT_NE(metrics.find("end_latency_bucket"), std::string::npos);
  EXPECT_NE(metrics.find("request_id=\"12345\""), std::string::npos);

  const std::string json = http_get(server.port(), "/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"end.point.hits\": 7"), std::string::npos);

  const std::string fl = http_get(server.port(), "/flight");
  EXPECT_NE(fl.find("\"request_id\": 9"), std::string::npos);

  const std::string slo_body = http_get(server.port(), "/slo");
  EXPECT_NE(slo_body.find("\"lat\""), std::string::npos);
  // The scrape ticked the tracker.
  EXPECT_EQ(slo.status().size(), 1u);

  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_EQ(server.scrapes(), 5u);

  server.stop();
  server.stop();  // idempotent
}

TEST(ExpositionServer, ConcurrentScrapesDuringPublishes) {
  obs::MetricsRegistry reg;
  obs::FlightRecorder flight(2, 8);
  obs::ExpositionOptions eo;
  eo.registry = &reg;
  eo.flight = &flight;
  obs::ExpositionServer server(eo);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t id = 1;
    obs::Counter c = reg.counter("stress.counter");
    obs::Histogram h = reg.histogram("stress.hist");
    while (!stop.load(std::memory_order_relaxed)) {
      c.inc();
      h.record_with_exemplar(id % 4096, id);
      flight.publish(id % 2, make_record(id));
      ++id;
    }
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(http_get(server.port(), "/metrics").find("200 OK"),
              std::string::npos);
    EXPECT_NE(http_get(server.port(), "/flight").find("records"),
              std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
