// Unit tests for src/lsdb: event queue, link-state DB views, flood timing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lsdb/event_queue.hpp"
#include "lsdb/lsdb.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"

namespace rbpc::lsdb {
namespace {

using graph::FailureMask;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbacksMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule(1.0, [&] { ++fired; });
  });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(0.5, [] {}), PreconditionError);
  EXPECT_THROW(q.schedule(-1.0, [] {}), PreconditionError);
}

TEST(EventQueue, RejectsNaNDelays) {
  // A NaN delay would silently corrupt the heap (NaN compares false against
  // everything), so both entry points must refuse it up front.
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(q.schedule(nan, [] {}), PreconditionError);
  EXPECT_THROW(q.schedule_at(nan, [] {}), PreconditionError);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelDiscardsPendingEvent) {
  EventQueue q;
  int fired = 0;
  const auto keep = q.schedule(1.0, [&] { ++fired; });
  const auto drop = q.schedule(2.0, [&] { fired += 100; });
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.cancel(drop));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 1);
  // The clock must not have advanced to the cancelled event's time.
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_EQ(q.cancelled_pending(), 0u);
  (void)keep;
}

TEST(EventQueue, CancelIsSingleShot) {
  EventQueue q;
  const auto tok = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(tok));
  EXPECT_FALSE(q.cancel(tok));  // double cancel
  q.run_all();

  const auto fired = q.schedule(1.0, [] {});
  q.run_all();
  EXPECT_FALSE(q.cancel(fired));  // already fired
  EXPECT_FALSE(q.cancel(99999));  // never existed
}

TEST(Lsdb, GenerationsSuppressDuplicatesAndStaleLsas) {
  Lsdb db;
  EXPECT_TRUE(db.apply(LinkEvent{3, /*up=*/false, /*generation=*/2}));
  EXPECT_TRUE(db.knows_down(3));
  EXPECT_EQ(db.applied_generation(3), 2u);

  // A re-flooded copy of the same generation is discarded.
  EXPECT_FALSE(db.apply(LinkEvent{3, /*up=*/false, /*generation=*/2}));
  EXPECT_EQ(db.duplicates_discarded(), 1u);

  // A reordered older LSA must not roll the view back.
  EXPECT_FALSE(db.apply(LinkEvent{3, /*up=*/true, /*generation=*/1}));
  EXPECT_TRUE(db.knows_down(3));
  EXPECT_EQ(db.stale_discarded(), 1u);

  // Newer generations win.
  EXPECT_TRUE(db.apply(LinkEvent{3, /*up=*/true, /*generation=*/5}));
  EXPECT_FALSE(db.knows_down(3));
  EXPECT_EQ(db.applied_generation(3), 5u);
}

TEST(Lsdb, ViewTracksEvents) {
  Lsdb db;
  EXPECT_FALSE(db.knows_down(3));
  db.apply(LinkEvent{3, /*up=*/false});
  EXPECT_TRUE(db.knows_down(3));
  db.apply(LinkEvent{3, /*up=*/true});
  EXPECT_FALSE(db.knows_down(3));
}

TEST(Flood, AdjacentRoutersNotifiedFirst) {
  // Line 0-1-2-3; fail link (1,2) = edge 1.
  const auto g = topo::make_chain(4);
  FailureMask after = FailureMask::of_edges({1});
  FloodParams params{.link_delay = 1.0, .process_delay = 0.0,
                     .detect_delay = 0.0};
  const auto out = flood_notification_times(g, after, 1, 10.0, params);
  EXPECT_DOUBLE_EQ(out.notified_at[1], 10.0);
  EXPECT_DOUBLE_EQ(out.notified_at[2], 10.0);
  // 0 hears from 1 one link-delay later; the flood cannot cross the dead
  // link, so 3 hears from 2.
  EXPECT_DOUBLE_EQ(out.notified_at[0], 11.0);
  EXPECT_DOUBLE_EQ(out.notified_at[3], 11.0);
}

TEST(Flood, ProcessAndDetectDelaysAdd) {
  const auto g = topo::make_chain(3);
  FailureMask after = FailureMask::of_edges({0});
  FloodParams params{.link_delay = 2.0, .process_delay = 0.5,
                     .detect_delay = 0.25};
  const auto out = flood_notification_times(g, after, 0, 0.0, params);
  EXPECT_DOUBLE_EQ(out.notified_at[0], 0.25);
  EXPECT_DOUBLE_EQ(out.notified_at[1], 0.25);
  EXPECT_DOUBLE_EQ(out.notified_at[2], 0.25 + 0.5 + 2.0);
}

TEST(Flood, DisconnectedRoutersNeverNotified) {
  // Failing the only link between components isolates node 1 side... use a
  // 2-node graph: failing the single link leaves each endpoint aware (they
  // detect) but nothing else to notify.
  const auto g = topo::make_chain(2);
  FailureMask after = FailureMask::of_edges({0});
  const auto out = flood_notification_times(g, after, 0, 0.0, {});
  EXPECT_TRUE(std::isfinite(out.notified_at[0]));
  EXPECT_TRUE(std::isfinite(out.notified_at[1]));
}

TEST(Flood, IsolatedThirdPartyUnreachable) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = b.build();  // node 2 isolated
  const auto out =
      flood_notification_times(g, FailureMask::of_edges({0}), 0, 0.0, {});
  EXPECT_TRUE(std::isinf(out.notified_at[2]));
}

// ---------------------------------------------------------------------------
// Durable-state round-trip (the persistence plane's snapshot contract).
// ---------------------------------------------------------------------------

TEST(LsdbRecords, ExportImportRoundTripsViewAndGenerations) {
  Lsdb a;
  a.apply({0, false, 3});
  a.apply({2, false, 5});
  a.apply({2, true, 6});   // recovered: up but generation retained
  a.apply({7, false, 0});  // unsequenced: down with generation 0
  a.apply({4, true, 9});   // up edge with history

  const std::vector<LinkStateRecord> records = a.export_records();
  // Only touched edges appear, in edge order.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].edge, 0u);
  EXPECT_TRUE(records[0].down);
  EXPECT_EQ(records[0].generation, 3u);
  EXPECT_EQ(records[1].edge, 2u);
  EXPECT_FALSE(records[1].down);
  EXPECT_EQ(records[1].generation, 6u);
  EXPECT_EQ(records[2].edge, 4u);
  EXPECT_EQ(records[3].edge, 7u);
  EXPECT_TRUE(records[3].down);
  EXPECT_EQ(records[3].generation, 0u);

  Lsdb b;
  EXPECT_EQ(b.import_records(records), records.size());
  for (graph::EdgeId e = 0; e < 10; ++e) {
    EXPECT_EQ(b.knows_down(e), a.knows_down(e)) << "edge " << e;
    EXPECT_EQ(b.applied_generation(e), a.applied_generation(e)) << "edge " << e;
  }
}

TEST(LsdbRecords, ImportIntoNonFreshViewKeepsNewestWins) {
  Lsdb live;
  live.apply({1, false, 8});  // the live view already learned a newer LSA
  Lsdb old;
  old.apply({1, false, 2});
  old.apply({3, false, 4});
  // Importing the stale snapshot must not regress edge 1, and must still
  // deliver edge 3's state.
  live.import_records(old.export_records());
  EXPECT_TRUE(live.knows_down(1));
  EXPECT_EQ(live.applied_generation(1), 8u);
  EXPECT_TRUE(live.knows_down(3));
  EXPECT_EQ(live.applied_generation(3), 4u);
}

TEST(LsdbRecords, EmptyViewExportsNothing) {
  Lsdb a;
  EXPECT_TRUE(a.export_records().empty());
  Lsdb b;
  EXPECT_EQ(b.import_records({}), 0u);
}

}  // namespace
}  // namespace rbpc::lsdb
