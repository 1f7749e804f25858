#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/obs/event_log.hpp"

namespace mrpic::obs {
namespace {

TEST(EventLog, PublishAssignsMonotoneSeqAndWall) {
  EventLog log;
  const Event a = log.publish("lifecycle", "run_start", EventSeverity::Info, -1);
  const Event b = log.publish("health", "alert", EventSeverity::Warn, 3, "drift",
                              {{"value", 1.5}, {"bound", 1.0}});
  const Event c = log.publish("lifecycle", "abort", EventSeverity::Critical, 7);

  EXPECT_EQ(a.seq, 0);
  EXPECT_EQ(b.seq, 1);
  EXPECT_EQ(c.seq, 2);
  EXPECT_LE(a.wall_s, b.wall_s);
  EXPECT_LE(b.wall_s, c.wall_s);

  EXPECT_EQ(log.num_events(), 3);
  EXPECT_EQ(log.num_events(EventSeverity::Info), 1);
  EXPECT_EQ(log.num_events(EventSeverity::Warn), 1);
  EXPECT_EQ(log.num_events(EventSeverity::Critical), 1);

  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[1].category, "health");
  EXPECT_DOUBLE_EQ(snap[1].value("value"), 1.5);
  EXPECT_TRUE(std::isnan(snap[1].value("missing")));
}

TEST(EventLog, HistoryLimitBoundsMemoryNotCounts) {
  EventLogConfig cfg;
  cfg.history_limit = 4;
  EventLog log(cfg);
  for (int i = 0; i < 10; ++i) {
    log.publish("resil", "checkpoint", EventSeverity::Info, i);
  }
  EXPECT_EQ(log.num_events(), 10);
  EXPECT_EQ(log.num_dropped(), 6);
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 6);  // oldest retained
  EXPECT_EQ(snap.back().seq, 9);
}

TEST(EventLog, LineRoundTrip) {
  Event ev;
  ev.seq = 17;
  ev.step = 420;
  ev.wall_s = 1.25;
  ev.category = "rebalance";
  ev.kind = "remap";
  ev.severity = EventSeverity::Warn;
  ev.detail = "imbalance \"spike\"\n(line 2)";
  ev.data = {{"imbalance_before", 1.8}, {"imbalance_after", 1.1}};

  const std::string line = EventLog::event_line(ev);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Event back = EventLog::parse_event(line);
  EXPECT_EQ(back.seq, ev.seq);
  EXPECT_EQ(back.step, ev.step);
  EXPECT_DOUBLE_EQ(back.wall_s, ev.wall_s);
  EXPECT_EQ(back.category, ev.category);
  EXPECT_EQ(back.kind, ev.kind);
  EXPECT_EQ(back.severity, ev.severity);
  EXPECT_EQ(back.detail, ev.detail);
  EXPECT_DOUBLE_EQ(back.value("imbalance_before"), 1.8);
  EXPECT_DOUBLE_EQ(back.value("imbalance_after"), 1.1);

  EXPECT_THROW(EventLog::parse_event("not json"), std::runtime_error);
  EXPECT_THROW(EventLog::parse_event("{\"seq\": 1}"),
               std::runtime_error);  // no schema
  EXPECT_THROW(EventLog::parse_event("{\"schema\": \"other.v9\", \"seq\": 1}"),
               std::runtime_error);
}

TEST(EventLog, DurableFileAndTolerantReader) {
  const std::string path = "test_event_log.jsonl";
  std::remove(path.c_str());
  {
    EventLogConfig cfg;
    cfg.path = path;
    EventLog log(cfg);
    log.publish("lifecycle", "run_start", EventSeverity::Info, -1, "demo");
    log.publish("resil", "crash", EventSeverity::Critical, 5, "rank 2 down",
                {{"rank", 2}});
    // Flushed per event: the file is complete NOW, with the log still live.
    std::size_t skipped = 0;
    const auto mid = EventLog::read_events_jsonl(path, &skipped);
    EXPECT_EQ(mid.size(), 2u);
    EXPECT_EQ(skipped, 0u);
  }

  // Contaminate: malformed line + foreign-schema line + blank line.
  {
    std::ofstream os(path, std::ios::app);
    os << "{{{ not json\n";
    os << "{\"schema\": \"mrpic.metrics.v1\", \"step\": 1}\n";
    os << "\n";
  }
  std::size_t skipped = 0;
  const auto events = EventLog::read_events_jsonl(path, &skipped);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(skipped, 2u);  // blank lines are not counted, junk lines are
  EXPECT_EQ(events[0].kind, "run_start");
  EXPECT_EQ(events[1].severity, EventSeverity::Critical);
  EXPECT_DOUBLE_EQ(events[1].value("rank"), 2.0);
  // Disk order equals seq order (the ordering contract).
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LE(events[0].wall_s, events[1].wall_s);

  EXPECT_THROW(EventLog::read_events_jsonl("no_such_file.jsonl"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(EventLog, SeverityNamesRoundTripAndTolerate) {
  EXPECT_EQ(event_severity_from_string(to_string(EventSeverity::Info)),
            EventSeverity::Info);
  EXPECT_EQ(event_severity_from_string(to_string(EventSeverity::Warn)),
            EventSeverity::Warn);
  EXPECT_EQ(event_severity_from_string(to_string(EventSeverity::Critical)),
            EventSeverity::Critical);
  // Unknown names degrade to Info instead of throwing (reader tolerance).
  EXPECT_EQ(event_severity_from_string("catastrophic"), EventSeverity::Info);
}

} // namespace
} // namespace mrpic::obs
