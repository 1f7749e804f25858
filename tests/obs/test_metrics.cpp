#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/obs/metrics.hpp"

namespace mrpic::obs {
namespace {

TEST(Metrics, CountersAccumulateAndGaugesOverwrite) {
  MetricsRegistry reg;
  reg.counter("particles_pushed").add(100);
  reg.counter("particles_pushed").add(20);
  reg.gauge("imbalance").set(1.5);
  reg.gauge("imbalance").set(1.2);
  EXPECT_EQ(reg.counter_value("particles_pushed"), 120);
  EXPECT_DOUBLE_EQ(reg.gauge_value("imbalance"), 1.2);
  EXPECT_EQ(reg.counter_value("unknown"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("unknown"), 0.0);
  // Same name returns the same object.
  EXPECT_EQ(&reg.counter("particles_pushed"), &reg.counter("particles_pushed"));
}

TEST(Metrics, StepRecordsCaptureDeltasNotTotals) {
  MetricsRegistry reg;
  reg.counter("work").add(5); // pre-step activity

  reg.begin_step(0);
  reg.counter("work").add(10);
  reg.gauge("wall_s").set(0.25);
  const StepRecord r0 = reg.end_step();
  EXPECT_EQ(r0.step, 0);
  EXPECT_EQ(r0.counters.at("work"), 10); // delta, not the total 15
  EXPECT_DOUBLE_EQ(r0.gauges.at("wall_s"), 0.25);

  reg.begin_step(1);
  reg.counter("work").add(7);
  // A counter born mid-step reports its full value as the delta.
  reg.counter("fresh").add(3);
  const StepRecord r1 = reg.end_step();
  EXPECT_EQ(r1.counters.at("work"), 7);
  EXPECT_EQ(r1.counters.at("fresh"), 3);

  ASSERT_EQ(reg.history().size(), 2u);
  EXPECT_EQ(reg.history()[0], r0);
  EXPECT_EQ(reg.history()[1], r1);
}

TEST(Metrics, HistoryLimitKeepsNewest) {
  MetricsRegistry reg;
  reg.set_history_limit(2);
  for (int s = 0; s < 5; ++s) {
    reg.begin_step(s);
    reg.end_step();
  }
  ASSERT_EQ(reg.history().size(), 2u);
  EXPECT_EQ(reg.history()[0].step, 3);
  EXPECT_EQ(reg.history()[1].step, 4);
}

TEST(Metrics, JsonlRoundTrip) {
  MetricsRegistry reg;
  for (int s = 0; s < 3; ++s) {
    reg.begin_step(s);
    reg.counter("particles_pushed").add(1000 + s);
    reg.counter("halo_bytes").add(1 << (10 + s));
    reg.gauge("lb_cost_imbalance").set(1.0 + 0.01 * s);
    reg.end_step();
  }
  const std::string path = "test_metrics_tmp.jsonl";
  ASSERT_TRUE(reg.write_jsonl(path));

  const auto back = MetricsRegistry::read_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], reg.history()[i]) << "record " << i;
  }
}

TEST(Metrics, ParseRecordRejectsGarbage) {
  EXPECT_THROW(MetricsRegistry::parse_record("not json"), std::runtime_error);
  EXPECT_THROW(MetricsRegistry::parse_record("[1,2,3]"), std::runtime_error);
}

TEST(Metrics, ReadJsonlSkipsAndCountsMalformedLines) {
  const std::string path = "test_metrics_malformed_tmp.jsonl";
  {
    MetricsRegistry reg;
    reg.begin_step(0);
    reg.counter("work").add(1);
    reg.end_step();
    reg.begin_step(1);
    reg.counter("work").add(2);
    reg.end_step();
    ASSERT_TRUE(reg.write_jsonl(path));
  }
  // Corrupt the file: a truncated line in the middle and trailing garbage
  // (an interrupted writer, a partial download, ...).
  {
    std::ifstream is(path);
    std::string first, second;
    std::getline(is, first);
    std::getline(is, second);
    is.close();
    std::ofstream os(path);
    os << first << '\n'
       << "{\"step\": 99, \"counters\": {\"work\"" << '\n' // truncated mid-object
       << second << '\n'
       // Valid JSON but not a metrics record: no "step" schema tag (e.g. a
       // foreign JSONL stream concatenated into the same file). These must
       // be skipped and counted, not parsed as step-0 records.
       << "{\"counters\": {\"work\": 5}, \"gauges\": {}}" << '\n'
       << "{\"step\": \"not a number\", \"counters\": {}}" << '\n'
       << "not json at all" << '\n';
  }
  std::size_t malformed = 0;
  const auto back = MetricsRegistry::read_jsonl(path, &malformed);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 2u); // the two good records survive
  EXPECT_EQ(back[0].step, 0);
  EXPECT_EQ(back[1].step, 1);
  EXPECT_EQ(malformed, 4u);
  // An unopenable file is still a hard error, not "zero records".
  EXPECT_THROW(MetricsRegistry::read_jsonl("nonexistent_dir_x/f.jsonl"),
               std::runtime_error);
}

TEST(Metrics, MemGaugesRoundTripAndSurviveTruncatedLines) {
  // The memory probe publishes large-magnitude byte gauges (up to tens of
  // GiB) next to small ratios; both must survive the JSONL round trip, and
  // a half-written mem_* record (e.g. a run dying mid-OOM, exactly when the
  // memory series matters most) must be skipped and counted, not fatal.
  MetricsRegistry reg;
  for (int s = 0; s < 3; ++s) {
    reg.begin_step(s);
    reg.gauge("mem_total_bytes").set(48.0 * (1 << 30) + s); // ~48 GiB
    reg.gauge("mem_fields_bytes").set(1.5e9);
    reg.gauge("mem_mr_savings_factor").set(1.73);
    reg.gauge("mem_rank_imbalance").set(1.0 + 0.25 * s);
    reg.end_step();
  }
  const std::string path = "test_metrics_mem_tmp.jsonl";
  ASSERT_TRUE(reg.write_jsonl(path));
  {
    // Append a record truncated in the middle of a mem_* gauge value.
    std::ofstream os(path, std::ios::app);
    os << "{\"step\": 3, \"gauges\": {\"mem_total_bytes\": 515396" << '\n';
  }
  std::size_t malformed = 0;
  const auto back = MetricsRegistry::read_jsonl(path, &malformed);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(malformed, 1u);
  EXPECT_DOUBLE_EQ(back[2].gauges.at("mem_total_bytes"), 48.0 * (1 << 30) + 2);
  EXPECT_DOUBLE_EQ(back[2].gauges.at("mem_mr_savings_factor"), 1.73);
  EXPECT_DOUBLE_EQ(back[2].gauges.at("mem_rank_imbalance"), 1.5);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], reg.history()[i]) << "record " << i;
  }
}

TEST(Metrics, RankSectionsRoundTripThroughJsonl) {
  MetricsRegistry reg;
  reg.begin_step(0);
  reg.counter("work").add(1);
  reg.set_step_ranks({{{"compute_s", 1.5}, {"comm_s", 0.25}, {"boxes", 3.0}},
                      {{"compute_s", 0.5}, {"comm_s", 0.25}, {"boxes", 1.0}}});
  const StepRecord rec = reg.end_step();
  ASSERT_EQ(rec.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.ranks[0].at("compute_s"), 1.5);

  // A step without rank sections stays rank-free.
  reg.begin_step(1);
  const StepRecord rec1 = reg.end_step();
  EXPECT_TRUE(rec1.ranks.empty());

  const std::string path = "test_metrics_ranks_tmp.jsonl";
  ASSERT_TRUE(reg.write_jsonl(path));
  const auto back = MetricsRegistry::read_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], rec);
  ASSERT_EQ(back[0].ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].ranks[1].at("comm_s"), 0.25);
  EXPECT_TRUE(back[1].ranks.empty());
}

} // namespace
} // namespace mrpic::obs
