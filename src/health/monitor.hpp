#pragma once

// health::HealthMonitor — the runtime seam between the invariant ledger and
// the rest of the observability/resilience machinery. core::Simulation owns
// one (enable_health), assembles a LedgerSample at the configured cadence
// and hands it to record(), which
//
//  - appends the sample to the (bounded) ledger history,
//  - publishes every ledger quantity as a health_* gauge so the series
//    lands in the obs::MetricsRegistry JSONL alongside the perf metrics,
//  - runs the Watchdog and logs each alert — to stderr, to the alert
//    callback, and as a "health"/"alert" event on the obs::EventLog
//    timeline, whose durable file flushes it at emission, so the terminal
//    alert of a dying run is already on disk before any abort unwinds,
//  - latches the requested actions: checkpoint_requested() is consumed by
//    the Simulation to arm resil::CheckpointPolicy::request_now();
//    abort_requested() makes the Simulation throw health::AbortError, and
//    the driver that catches it writes its artifacts as on any other exit.
//
// record() and the snapshot accessors are mutex-guarded so probes can be
// hammered from concurrent drivers (the TSan suite does); the by-reference
// accessors are for single-threaded post-run inspection.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/health/watchdog.hpp"
#include "src/obs/metrics.hpp"

namespace mrpic::health {

struct MonitorConfig {
  // Ledger sampling cadence in steps (fires when step % interval == 0).
  int ledger_interval = 1;
  // NaN/Inf field-scan cadence (0 = never). Scans also record a sample.
  int nan_interval = 1;
  // Gauss/continuity residual cadence (0 = never): the expensive probe —
  // it deposits charge on every level and copies the currents.
  int residual_interval = 0;
  // Ledger rows kept in memory (0 = unbounded).
  std::size_t history_limit = 4096;
  // Echo alerts to stderr (on by default: a dying run should say why).
  bool log_to_stderr = true;
  WatchdogConfig watchdog;
};

// Thrown by Simulation::step() at the end of the step in which an alert
// with the abort action fired.
class AbortError : public std::runtime_error {
public:
  explicit AbortError(Alert alert);
  const Alert& alert() const { return m_alert; }

private:
  Alert m_alert;
};

class HealthMonitor {
public:
  explicit HealthMonitor(MonitorConfig cfg = {});

  const MonitorConfig& config() const { return m_cfg; }

  // --- cadence ------------------------------------------------------------
  static bool due(std::int64_t step, int interval) {
    return interval > 0 && step % interval == 0;
  }
  bool ledger_due(std::int64_t step) const { return due(step, m_cfg.ledger_interval); }
  bool nan_due(std::int64_t step) const { return due(step, m_cfg.nan_interval); }
  bool residual_due(std::int64_t step) const { return due(step, m_cfg.residual_interval); }
  bool sample_due(std::int64_t step) const {
    return ledger_due(step) || nan_due(step) || residual_due(step);
  }

  // --- recording ----------------------------------------------------------
  // Ingest one sample: fills s.energy_drift_rate from the previous sample,
  // publishes gauges/counters, evaluates the watchdog, logs alerts, latches
  // actions. Returns the alerts raised by this sample.
  std::vector<Alert> record(LedgerSample s);

  // Metrics sink for the health_* gauges and counters (nullptr = none).
  void set_metrics(obs::MetricsRegistry* m);
  // Invoked for every alert, after it is logged.
  void set_alert_callback(std::function<void(const Alert&)> cb);
  // Unified event timeline: every alert publishes a "health"/"alert" event
  // (step, severity, message; value, bound, checkpoint, abort as data) —
  // the only place alerts reach disk (non-owning; nullptr = off).
  void set_event_log(obs::EventLog* log);

  // --- actions ------------------------------------------------------------
  // True once any recorded alert requested a checkpoint; reading consumes
  // the latch (the caller arms the checkpoint policy exactly once).
  bool consume_checkpoint_request();
  bool abort_requested() const;
  // The alert that requested the abort (meaningful when abort_requested()).
  Alert abort_alert() const;

  // --- inspection ---------------------------------------------------------
  // Single-threaded accessors (post-run).
  const std::deque<LedgerSample>& history() const { return m_history; }
  const std::vector<Alert>& alerts() const { return m_alerts; }
  // Thread-safe copies (concurrent drivers / TSan suite).
  std::deque<LedgerSample> snapshot_history() const;
  std::vector<Alert> snapshot_alerts() const;
  // Total samples ever recorded (not capped by history_limit).
  std::int64_t num_samples() const;
  std::int64_t num_alerts() const;
  std::int64_t num_alerts(Severity s) const;

  // Full ledger history as JSONL (one object per line).
  bool write_ledger_jsonl(const std::string& path) const;

private:
  void publish(const LedgerSample& s);
  void log_alert(const Alert& a);

  MonitorConfig m_cfg;
  Watchdog m_watchdog;
  obs::MetricsRegistry* m_metrics = nullptr;
  obs::EventLog* m_event_log = nullptr;
  std::function<void(const Alert&)> m_alert_cb;

  mutable std::mutex m_mu;
  std::deque<LedgerSample> m_history;
  std::int64_t m_total_samples = 0;
  std::vector<Alert> m_alerts;
  bool m_checkpoint_latch = false;
  bool m_abort = false;
  Alert m_abort_alert;
};

} // namespace mrpic::health
