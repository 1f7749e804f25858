// insitu::Registry: cadences, gauge publication, the durable JSONL series
// (append + flush, NaN -> null, a torn last line skipped by the reader), and
// the reader-side canonicalization that collapses a rollback's replayed
// overlap.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/insitu/registry.hpp"
#include "src/obs/metrics.hpp"

using namespace mrpic;
using insitu::Record;
using insitu::Registry;

TEST(InsituRegistry, DueFollowsHealthCadenceRule) {
  EXPECT_TRUE(Registry::due(0, 10));
  EXPECT_TRUE(Registry::due(20, 10));
  EXPECT_FALSE(Registry::due(5, 10));
  EXPECT_FALSE(Registry::due(7, 0));  // 0 = never
  EXPECT_TRUE(Registry::due(3, 1));
}

TEST(InsituRegistry, CollectRunsDueDiagnosticsAndPublishesGauges) {
  Registry reg;
  obs::MetricsRegistry metrics;
  reg.set_metrics(&metrics);
  int a_runs = 0, b_runs = 0;
  reg.add("a", 1, [&](Record& r) { r.set("x", ++a_runs); });
  reg.add("b", 2, [&](Record& r) { r.set("y", 10.0 * ++b_runs); });
  EXPECT_EQ(reg.size(), 2);

  for (std::int64_t s = 0; s < 4; ++s) { reg.collect(s, 1e-15 * s); }
  EXPECT_EQ(a_runs, 4);
  EXPECT_EQ(b_runs, 2); // steps 0 and 2
  EXPECT_EQ(reg.num_records(), 6);

  EXPECT_DOUBLE_EQ(metrics.gauge_value("insitu_a_x"), 4.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("insitu_b_y"), 20.0);

  const auto* last_b = reg.last("b");
  ASSERT_NE(last_b, nullptr);
  EXPECT_EQ(last_b->step, 2);
  EXPECT_DOUBLE_EQ(last_b->value("y"), 20.0);
  EXPECT_TRUE(std::isnan(last_b->value("missing_key")));
  EXPECT_EQ(reg.last("nope"), nullptr);

  // force ignores cadences: both run even though step 5 matches neither.
  EXPECT_EQ(reg.collect(5, 0.0, /*force=*/true), 2);
  EXPECT_EQ(reg.num_records(), 8);
}

TEST(InsituRegistry, AnyDueAndHistoryLimit) {
  Registry reg;
  reg.add("a", 4, [](Record&) {});
  EXPECT_TRUE(reg.any_due(0));
  EXPECT_FALSE(reg.any_due(3));
  EXPECT_TRUE(reg.any_due(8));

  reg.set_history_limit(3);
  for (std::int64_t s = 0; s <= 40; s += 4) { reg.collect(s, 0.0); }
  EXPECT_EQ(reg.history().size(), 3u);       // ring-bounded in memory...
  EXPECT_EQ(reg.num_records(), 11);          // ...but the total count survives
  EXPECT_EQ(reg.history().back().step, 40);
}

TEST(InsituRegistry, SeriesRoundTripPreservesNaN) {
  const std::string path = "insitu_series_rt.jsonl";
  {
    Registry reg;
    ASSERT_TRUE(reg.open_series(path));
    reg.add("probe", 1, [](Record& r) {
      r.set("finite", 2.5);
      r.set("hole", std::numeric_limits<double>::quiet_NaN());
    });
    reg.collect(0, 0.0);
    reg.collect(1, 1e-15);
  }
  EXPECT_TRUE(Registry::validate_series(path).empty());

  const auto records = Registry::read_series_jsonl(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].step, 1);
  EXPECT_DOUBLE_EQ(records[1].value("finite"), 2.5);
  // JSON has no NaN: the writer emits null and the reader restores NaN.
  EXPECT_TRUE(std::isnan(records[1].value("hole")));
  std::remove(path.c_str());
}

TEST(InsituRegistry, TornLastLineIsSkippedAndCounted) {
  const std::string path = "insitu_series_torn.jsonl";
  {
    Registry reg;
    ASSERT_TRUE(reg.open_series(path));
    reg.add("probe", 1, [](Record& r) { r.set("v", 1.0); });
    reg.collect(0, 0.0);
    reg.collect(1, 1e-15);
  }
  {
    // A run killed mid-write leaves a torn last line.
    std::ofstream os(path, std::ios::app);
    os << R"({"diag":"probe","step":2,"time":2e-15,"val)";
  }
  std::size_t skipped = 0;
  const auto records = Registry::read_series_jsonl(path, &skipped);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].step, 1);
  EXPECT_DOUBLE_EQ(records[1].value("v"), 1.0);
  EXPECT_EQ(skipped, 1u);
  EXPECT_THROW(Registry::read_series_jsonl("no_such_dir_x/series.jsonl"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(InsituRegistry, AppendModeContinuesExistingSeries) {
  // A rollback restores a checkpoint into the same run, so the open series
  // keeps appending through the replay: steps 0..5, then 3..8 again with
  // the values of the replayed trajectory.
  const std::string path = "insitu_series_append.jsonl";
  double v = 1.0;
  Registry reg;
  ASSERT_TRUE(reg.open_series(path));
  reg.add("probe", 1, [&](Record& r) { r.set("v", v); });
  for (std::int64_t s = 0; s <= 5; ++s) { reg.collect(s, 0.0); }
  v = 2.0;  // rolled back to step 3
  for (std::int64_t s = 3; s <= 8; ++s) { reg.collect(s, 0.0); }

  const auto raw = Registry::read_series_jsonl(path);
  EXPECT_EQ(raw.size(), 12u);
  const auto canon = Registry::canonicalize(raw);
  ASSERT_EQ(canon.size(), 9u); // steps 0..8, overlap 3..5 collapsed
  for (std::size_t i = 0; i < canon.size(); ++i) {
    EXPECT_EQ(canon[i].step, static_cast<std::int64_t>(i));
    // Last occurrence wins: the replayed values are the run's trajectory.
    EXPECT_DOUBLE_EQ(canon[i].value("v"), i >= 3 ? 2.0 : 1.0);
  }
  // The overlapping file is still a valid series (monotone after collapse).
  EXPECT_TRUE(Registry::validate_series(path).empty());
  std::remove(path.c_str());
}

TEST(InsituRegistry, ValidateSeriesFlagsGarbageAndDisorder) {
  const std::string path = "insitu_series_bad.jsonl";
  {
    std::ofstream os(path);
    os << R"({"diag":"a","step":4,"time":0,"values":{"x":1}})" << '\n';
    os << "this is not json" << '\n';
    os << R"({"diag":"a","step":-3,"time":0,"values":{"x":1}})" << '\n';
    os << R"({"step":7,"time":0,"values":{}})" << '\n'; // missing diag
  }
  const auto errors = Registry::validate_series(path);
  ASSERT_GE(errors.size(), 3u);
  bool parse_err = false, schema_err = false, negative_err = false;
  for (const auto& e : errors) {
    if (e.find("line 2") != std::string::npos) { parse_err = true; }
    if (e.find("line 4") != std::string::npos) { schema_err = true; }
    if (e.find("negative step") != std::string::npos) { negative_err = true; }
  }
  EXPECT_TRUE(parse_err);
  EXPECT_TRUE(schema_err);
  EXPECT_TRUE(negative_err);
  std::remove(path.c_str());
}
