// HealthConcurrency: hammer the monitor's mutex-guarded surface from
// concurrent threads — recorders feeding samples (some of them alerting)
// racing snapshot readers and counters. Run under TSan by the
// health_concurrency_sanitized ctest; also a functional total-count check.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/health/monitor.hpp"
#include "src/obs/metrics.hpp"

namespace mrpic::health {
namespace {

TEST(HealthConcurrency, ConcurrentRecordersAndSnapshotReaders) {
  MonitorConfig cfg;
  cfg.log_to_stderr = false;
  cfg.history_limit = 128;
  cfg.watchdog.dedup = false;
  cfg.watchdog.bounds.push_back({"max_gamma", 0.0, 100.0, Severity::Warn, {}});
  HealthMonitor mon(cfg);
  obs::MetricsRegistry metrics;
  mon.set_metrics(&metrics);
  std::atomic<int> cb_alerts{0};
  mon.set_alert_callback([&](const Alert&) { cb_alerts.fetch_add(1); });

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kSamplesPerWriter = 200;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&mon, w] {
      for (int i = 0; i < kSamplesPerWriter; ++i) {
        LedgerSample s;
        s.step = w * kSamplesPerWriter + i;
        s.field_energy_J = 1.0 + 1e-3 * i;
        // Every 10th sample violates the gamma bound.
        s.max_gamma = (i % 10 == 9) ? 500.0 : 1.0;
        mon.record(s);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&mon, &stop] {
      while (!stop.load()) {
        const auto hist = mon.snapshot_history();
        const auto alerts = mon.snapshot_alerts();
        EXPECT_LE(hist.size(), 128u);
        EXPECT_LE(static_cast<std::int64_t>(alerts.size()), mon.num_alerts());
        (void)mon.num_samples();
        (void)mon.num_alerts(Severity::Warn);
        (void)mon.consume_checkpoint_request();
        (void)mon.abort_requested();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) { threads[w].join(); }
  stop.store(true);
  for (int r = 0; r < kReaders; ++r) { threads[kWriters + r].join(); }

  EXPECT_EQ(mon.num_samples(), kWriters * kSamplesPerWriter);
  // dedup is off and each writer alerts on 20 of its samples.
  EXPECT_EQ(mon.num_alerts(), kWriters * 20);
  EXPECT_EQ(cb_alerts.load(), kWriters * 20);
  EXPECT_EQ(mon.history().size(), 128u);
  EXPECT_EQ(metrics.counter_value("health_probes"), kWriters * kSamplesPerWriter);
}

} // namespace
} // namespace mrpic::health
