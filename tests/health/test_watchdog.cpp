// Watchdog rule evaluation: EWMA detector statistics, absolute bounds,
// drift anomalies, the NaN rule, and alert deduplication across consecutive
// firing steps (emit once, re-arm after the condition clears).

#include <gtest/gtest.h>

#include <cmath>

#include "src/health/watchdog.hpp"

namespace mrpic::health {
namespace {

LedgerSample sample(std::int64_t step, double total_energy) {
  LedgerSample s;
  s.step = step;
  s.time = static_cast<double>(step) * 1e-16;
  s.field_energy_J = total_energy;
  return s;
}

TEST(Ewma, WarmupReturnsNanThenZScores) {
  EwmaDetector det(0.2, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isnan(det.update(10.0))) << i;
    EXPECT_FALSE(det.warmed_up() && i < 3);
  }
  EXPECT_TRUE(det.warmed_up());
  // Constant series: post-warmup identical value is not an anomaly.
  const double z_same = det.update(10.0);
  EXPECT_TRUE(std::isfinite(z_same));
  EXPECT_LT(std::abs(z_same), 1.0);
  // A huge excursion produces a huge z (variance floor keeps it finite).
  const double z_jump = det.update(1e6);
  EXPECT_TRUE(std::isfinite(z_jump));
  EXPECT_GT(std::abs(z_jump), 100.0);
}

TEST(Ewma, NonFiniteInputIsNotAbsorbed) {
  EwmaDetector det(0.5, 1);
  det.update(1.0);
  const int n_before = det.samples();
  const double mean_before = det.mean();
  EXPECT_TRUE(std::isnan(det.update(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(det.samples(), n_before);
  EXPECT_DOUBLE_EQ(det.mean(), mean_before);
}

TEST(Ewma, WarmupLongerThanHistoryNeverFires) {
  // Edge case: a rule with warmup 16 over a 5-sample run must stay silent.
  EwmaDetector det(0.1, 16);
  for (int i = 0; i < 5; ++i) { EXPECT_TRUE(std::isnan(det.update(1.0 + i))); }
  EXPECT_FALSE(det.warmed_up());
}

TEST(Watchdog, BoundRuleFiresOutsideInterval) {
  WatchdogConfig cfg;
  cfg.bounds.push_back({"max_gamma", 0.0, 100.0, Severity::Warn, {}});
  Watchdog wd(cfg);

  auto s = sample(1, 1.0);
  s.max_gamma = 50.0;
  EXPECT_TRUE(wd.evaluate(s).empty());

  s = sample(2, 1.0);
  s.max_gamma = 250.0;
  const auto alerts = wd.evaluate(s);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].quantity, "max_gamma");
  EXPECT_DOUBLE_EQ(alerts[0].value, 250.0);
  EXPECT_DOUBLE_EQ(alerts[0].bound, 100.0);
  EXPECT_EQ(alerts[0].severity, Severity::Warn);
  EXPECT_FALSE(alerts[0].abort);
}

TEST(Watchdog, BoundRuleSkipsUnprobedQuantities) {
  WatchdogConfig cfg;
  cfg.bounds.push_back({"continuity_residual", 0.0, 1e-10, Severity::Critical, {}});
  Watchdog wd(cfg);
  // Residual not probed this sample (NaN): the rule must not fire.
  EXPECT_TRUE(wd.evaluate(sample(1, 1.0)).empty());
}

TEST(Watchdog, DedupSuppressesRepeatsAndReArms) {
  WatchdogConfig cfg;
  cfg.bounds.push_back({"max_gamma", 0.0, 10.0, Severity::Warn, {}});
  Watchdog wd(cfg);

  auto hot = sample(1, 1.0);
  hot.max_gamma = 20.0;
  EXPECT_EQ(wd.evaluate(hot).size(), 1u);
  hot.step = 2;
  EXPECT_TRUE(wd.evaluate(hot).empty()); // still firing: deduplicated
  auto cool = sample(3, 1.0);
  cool.max_gamma = 5.0;
  EXPECT_TRUE(wd.evaluate(cool).empty()); // condition clears
  hot.step = 4;
  EXPECT_EQ(wd.evaluate(hot).size(), 1u); // re-armed
}

TEST(Watchdog, DedupDisabledEmitsEveryStep) {
  WatchdogConfig cfg;
  cfg.dedup = false;
  cfg.bounds.push_back({"max_gamma", 0.0, 10.0, Severity::Warn, {}});
  Watchdog wd(cfg);
  auto hot = sample(1, 1.0);
  hot.max_gamma = 20.0;
  EXPECT_EQ(wd.evaluate(hot).size(), 1u);
  hot.step = 2;
  EXPECT_EQ(wd.evaluate(hot).size(), 1u);
}

TEST(Watchdog, NanRuleCarriesConfiguredActions) {
  WatchdogConfig cfg;
  cfg.nan_severity = Severity::Critical;
  cfg.nan_action = {/*checkpoint=*/true, /*abort=*/true};
  Watchdog wd(cfg);

  auto clean = sample(1, 1.0);
  clean.nan_cells = 0;
  EXPECT_TRUE(wd.evaluate(clean).empty());

  auto bad = sample(2, 1.0);
  bad.nan_cells = 3;
  bad.nan_field = "E";
  const auto alerts = wd.evaluate(bad);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].quantity, "nan:E");
  EXPECT_EQ(alerts[0].severity, Severity::Critical);
  EXPECT_TRUE(alerts[0].checkpoint);
  EXPECT_TRUE(alerts[0].abort);
  EXPECT_DOUBLE_EQ(alerts[0].value, 3.0);
}

TEST(Watchdog, DriftRuleFiresOnStepChange) {
  WatchdogConfig cfg;
  DriftRule r;
  r.quantity = "total_energy_J";
  r.z_threshold = 6.0;
  r.alpha = 0.2;
  r.warmup = 8;
  cfg.drifts.push_back(r);
  Watchdog wd(cfg);

  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(wd.evaluate(sample(i, 1.0 + 1e-13 * i)).empty()) << i;
  }
  const auto alerts = wd.evaluate(sample(20, 2.0)); // step change
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].quantity, "total_energy_J");
  EXPECT_DOUBLE_EQ(alerts[0].bound, 6.0);
}

TEST(Watchdog, ResetForgetsEwmaAndDedupState) {
  WatchdogConfig cfg;
  cfg.bounds.push_back({"max_gamma", 0.0, 10.0, Severity::Warn, {}});
  DriftRule r;
  r.quantity = "total_energy_J";
  r.warmup = 2;
  cfg.drifts.push_back(r);
  Watchdog wd(cfg);

  auto hot = sample(1, 1.0);
  hot.max_gamma = 20.0;
  EXPECT_EQ(wd.evaluate(hot).size(), 1u);
  wd.reset();
  hot.step = 2;
  // After reset the still-true bound violation is a fresh alert.
  EXPECT_EQ(wd.evaluate(hot).size(), 1u);
}

} // namespace
} // namespace mrpic::health
