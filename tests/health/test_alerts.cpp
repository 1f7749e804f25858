// Monitor-level alert plumbing: durable alerts (each alert on the event
// timeline's disk file the moment it is raised), the checkpoint-request
// latch, abort latching, and the end-to-end Simulation abort path (bound
// rule -> AbortError out of run(), last alert already on disk).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/health/monitor.hpp"
#include "src/obs/event_log.hpp"

namespace mrpic::health {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) { lines.push_back(line); }
  }
  return lines;
}

LedgerSample hot_sample(std::int64_t step, double gamma) {
  LedgerSample s;
  s.step = step;
  s.field_energy_J = 1.0;
  s.max_gamma = gamma;
  return s;
}

MonitorConfig gamma_bound_config(double hi, ActionSpec action = {}) {
  MonitorConfig cfg;
  cfg.log_to_stderr = false;
  cfg.watchdog.bounds.push_back({"max_gamma", 0.0, hi, Severity::Critical, action});
  return cfg;
}

TEST(Monitor, AlertIsOnDiskBeforeAnyFlushOrShutdown) {
  const std::string path = "test_alerts_durable.jsonl";
  obs::EventLogConfig ecfg;
  ecfg.path = path;
  obs::EventLog log(ecfg);
  HealthMonitor mon(gamma_bound_config(10.0));
  mon.set_event_log(&log);

  ASSERT_EQ(mon.record(hot_sample(1, 50.0)).size(), 1u);
  // No flush, no destructor: the append itself must already be durable.
  auto events = obs::EventLog::read_events_jsonl(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, "health");
  EXPECT_EQ(events[0].kind, "alert");
  EXPECT_EQ(events[0].step, 1);
  EXPECT_EQ(events[0].severity, Severity::Critical);
  EXPECT_EQ(events[0].detail.rfind("max_gamma", 0), 0u);  // the quantity leads
  EXPECT_DOUBLE_EQ(events[0].value("value"), 50.0);
  EXPECT_DOUBLE_EQ(events[0].value("bound"), 10.0);

  // Condition clears then re-fires: second alert appends a second line.
  mon.record(hot_sample(2, 1.0));
  mon.record(hot_sample(3, 99.0));
  events = obs::EventLog::read_events_jsonl(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].step, 3);
  std::remove(path.c_str());
}

TEST(Monitor, CheckpointLatchIsConsumedOnce) {
  auto cfg = gamma_bound_config(10.0, {/*checkpoint=*/true, /*abort=*/false});
  HealthMonitor mon(cfg);
  EXPECT_FALSE(mon.consume_checkpoint_request());
  mon.record(hot_sample(1, 50.0));
  EXPECT_TRUE(mon.consume_checkpoint_request());
  EXPECT_FALSE(mon.consume_checkpoint_request()); // consumed
  EXPECT_FALSE(mon.abort_requested());            // checkpoint only
}

TEST(Monitor, AbortLatchKeepsTheTriggeringAlert) {
  auto cfg = gamma_bound_config(10.0, {/*checkpoint=*/false, /*abort=*/true});
  HealthMonitor mon(cfg);
  EXPECT_FALSE(mon.abort_requested());
  mon.record(hot_sample(7, 123.0));
  ASSERT_TRUE(mon.abort_requested());
  EXPECT_EQ(mon.abort_alert().step, 7);
  EXPECT_EQ(mon.abort_alert().quantity, "max_gamma");
  EXPECT_DOUBLE_EQ(mon.abort_alert().value, 123.0);
}

TEST(Monitor, AlertCallbackSeesEveryAlert) {
  auto cfg = gamma_bound_config(10.0);
  HealthMonitor mon(cfg);
  std::vector<Alert> seen;
  mon.set_alert_callback([&](const Alert& a) { seen.push_back(a); });
  mon.record(hot_sample(1, 50.0));
  mon.record(hot_sample(2, 1.0));
  mon.record(hot_sample(3, 60.0));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].step, 1);
  EXPECT_EQ(seen[1].step, 3);
}

TEST(Monitor, EnergyDriftRateFilledFromPreviousSample) {
  MonitorConfig cfg;
  cfg.log_to_stderr = false;
  HealthMonitor mon(cfg);
  LedgerSample a;
  a.step = 1;
  a.time = 1.0;
  a.field_energy_J = 2.0;
  mon.record(a);
  LedgerSample b;
  b.step = 2;
  b.time = 2.0;
  b.field_energy_J = 2.0 + 2e-3;
  mon.record(b);
  ASSERT_EQ(mon.history().size(), 2u);
  // (dE/E0)/dt = (2e-3 / 2) / 1 = 1e-3
  EXPECT_NEAR(mon.history().back().energy_drift_rate, 1e-3, 1e-12);
}

TEST(Monitor, HistoryLimitBoundsMemory) {
  MonitorConfig cfg;
  cfg.log_to_stderr = false;
  cfg.history_limit = 4;
  HealthMonitor mon(cfg);
  for (int i = 0; i < 10; ++i) { mon.record(hot_sample(i, 1.0)); }
  EXPECT_EQ(mon.history().size(), 4u);
  EXPECT_EQ(mon.history().front().step, 6);
  EXPECT_EQ(mon.num_samples(), 10); // the counter keeps the true total
}

TEST(Monitor, PublishesGaugesAndCounters) {
  obs::MetricsRegistry metrics;
  auto cfg = gamma_bound_config(10.0);
  HealthMonitor mon(cfg);
  mon.set_metrics(&metrics);
  mon.record(hot_sample(1, 50.0));
  EXPECT_DOUBLE_EQ(metrics.gauge_value("health_max_gamma"), 50.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("health_field_energy_J"), 1.0);
  EXPECT_EQ(metrics.counter_value("health_probes"), 1);
  EXPECT_EQ(metrics.counter_value("health_alerts"), 1);
  EXPECT_EQ(metrics.counter_value("health_alerts_critical"), 1);
}

TEST(Monitor, CadenceLargerThanRunNeverFires) {
  MonitorConfig cfg;
  cfg.ledger_interval = 1000; // cadence N > total steps
  cfg.nan_interval = 0;
  cfg.residual_interval = 0;
  HealthMonitor mon(cfg);
  for (std::int64_t s = 1; s <= 20; ++s) { EXPECT_FALSE(mon.sample_due(s)); }
  EXPECT_TRUE(mon.sample_due(1000));

  // Probes over a 100-step run (steps 0..99) at each ledger cadence.
  const std::pair<int, int> cadences[] = {{1, 100}, {5, 20}, {20, 5}};
  for (const auto& [interval, probes] : cadences) {
    int n = 0;
    for (std::int64_t s = 0; s < 100; ++s) { n += HealthMonitor::due(s, interval) ? 1 : 0; }
    EXPECT_EQ(n, probes) << "ledger_interval " << interval;
  }
}

TEST(Monitor, WriteJsonlDumpsHistoryAndAlerts) {
  const std::string lpath = "test_alerts_ledger.jsonl";
  const std::string epath = "test_alerts_events.jsonl";
  obs::EventLogConfig ecfg;
  ecfg.path = epath;
  obs::EventLog log(ecfg);
  HealthMonitor mon(gamma_bound_config(10.0));
  mon.set_event_log(&log);
  mon.record(hot_sample(1, 5.0));
  mon.record(hot_sample(2, 50.0));
  // The ledger history is dumped on demand; the alert is already on the
  // timeline.
  ASSERT_TRUE(mon.write_ledger_jsonl(lpath));
  EXPECT_EQ(read_lines(lpath).size(), 2u);
  EXPECT_EQ(obs::EventLog::read_events_jsonl(epath).size(), 1u);
  std::remove(lpath.c_str());
  std::remove(epath.c_str());
}

// --- end-to-end: watchdog abort out of Simulation::run -----------------------

core::SimulationConfig<2> periodic_config(int n = 32) {
  core::SimulationConfig<2> cfg;
  cfg.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1));
  cfg.prob_lo = mrpic::RealVect2(0, 0);
  cfg.prob_hi = mrpic::RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = mrpic::IntVect2(16);
  cfg.shape_order = 2;
  return cfg;
}

TEST(AbortPath, BoundRuleAbortsRunAndLastAlertIsOnDisk) {
  const std::string path = "test_abort_events.jsonl";
  obs::EventLogConfig ecfg;
  ecfg.path = path;
  obs::EventLog log(ecfg);

  core::Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 100.0;
  sim.add_species(particles::Species::electron(), inj);

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  // num_particles is always > 0 here: the rule fires on the first sample.
  hcfg.watchdog.bounds.push_back(
      {"num_particles", 0.0, 1.0, Severity::Critical, {/*ckpt*/ false, /*abort*/ true}});
  sim.enable_health(hcfg);
  sim.enable_event_log(&log);
  sim.init();

  try {
    sim.run(10);
    FAIL() << "expected health::AbortError";
  } catch (const AbortError& e) {
    EXPECT_EQ(e.alert().quantity, "num_particles");
    EXPECT_TRUE(e.alert().abort);
  }
  EXPECT_EQ(sim.step_count(), 1); // died at the end of the first step

  // The mid-run kill leaves the terminal alert durable on disk.
  const auto events = obs::EventLog::read_events_jsonl(path);
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_EQ(last.kind, "alert");
  EXPECT_EQ(last.detail.rfind("num_particles", 0), 0u);
  EXPECT_EQ(last.value("abort"), 1.0);
  std::remove(path.c_str());
}

TEST(AbortPath, CheckpointActionForcesImmediateCheckpoint) {
  core::Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  sim.add_species(particles::Species::electron(), inj);

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  // Fires every sample; requests checkpoint-now but never aborts.
  hcfg.watchdog.dedup = false;
  hcfg.watchdog.bounds.push_back(
      {"num_particles", 0.0, 1.0, Severity::Warn, {/*ckpt*/ true, /*abort*/ false}});
  sim.enable_health(hcfg);

  resil::CheckpointPolicyConfig pcfg;
  pcfg.mode = resil::CheckpointMode::Periodic;
  pcfg.interval_steps = 1000; // the interval trigger never fires in 3 steps
  int writes = 0;
  sim.set_checkpoint_policy(resil::CheckpointPolicy(pcfg),
                            [&](core::Simulation<2>&) {
                              ++writes;
                              return true;
                            });
  sim.init();
  sim.run(3);
  // Every step's alert forced a checkpoint despite the 1000-step interval.
  EXPECT_EQ(writes, 3);
  EXPECT_EQ(sim.checkpoint_policy()->num_checkpoints(), 3);
  EXPECT_FALSE(sim.checkpoint_policy()->now_pending()); // cleared by each write
}

} // namespace
} // namespace mrpic::health
