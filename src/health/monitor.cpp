#include "src/health/monitor.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace mrpic::health {

AbortError::AbortError(Alert alert)
    : std::runtime_error("health watchdog abort at step " + std::to_string(alert.step) +
                         ": " + alert.message),
      m_alert(std::move(alert)) {}

HealthMonitor::HealthMonitor(MonitorConfig cfg)
    : m_cfg(std::move(cfg)), m_watchdog(m_cfg.watchdog) {}

void HealthMonitor::set_metrics(obs::MetricsRegistry* m) { m_metrics = m; }

void HealthMonitor::set_alert_callback(std::function<void(const Alert&)> cb) {
  m_alert_cb = std::move(cb);
}

void HealthMonitor::set_event_log(obs::EventLog* log) { m_event_log = log; }

std::vector<Alert> HealthMonitor::record(LedgerSample s) {
  std::vector<Alert> alerts;
  {
    std::lock_guard<std::mutex> lock(m_mu);

    // Relative total-energy drift rate vs the previous sample [1/s].
    if (!m_history.empty()) {
      const auto& prev = m_history.back();
      const double dt = s.time - prev.time;
      const double scale = std::max(std::abs(prev.total_energy_J()), 1e-300);
      if (dt > 0) {
        s.energy_drift_rate = (s.total_energy_J() - prev.total_energy_J()) / (scale * dt);
      }
    }

    publish(s);
    alerts = m_watchdog.evaluate(s);
    m_history.push_back(std::move(s));
    ++m_total_samples;
    if (m_cfg.history_limit > 0) {
      while (m_history.size() > m_cfg.history_limit) { m_history.pop_front(); }
    }

    for (const auto& a : alerts) {
      m_alerts.push_back(a);
      if (a.checkpoint) { m_checkpoint_latch = true; }
      if (a.abort && !m_abort) {
        m_abort = true;
        m_abort_alert = a;
      }
      log_alert(a);
    }
    if (m_metrics != nullptr && !alerts.empty()) {
      m_metrics->counter("health_alerts").add(static_cast<std::int64_t>(alerts.size()));
      for (const auto& a : alerts) {
        if (a.severity == Severity::Critical) {
          m_metrics->counter("health_alerts_critical").inc();
        }
      }
    }
  }
  for (const auto& a : alerts) {
    if (m_alert_cb) { m_alert_cb(a); }
  }
  return alerts;
}

void HealthMonitor::publish(const LedgerSample& s) {
  if (m_metrics == nullptr) { return; }
  m_metrics->counter("health_probes").inc();
  for (const auto& q : ledger_quantities()) {
    const double v = s.value(q);
    // Unprobed quantities stay at their previous gauge value; NaN field
    // energies (a blown-up run) must still be visible, so only the probe
    // sentinels are skipped, not computed non-finite values.
    if (q == "nan_cells" && s.nan_cells < 0) { continue; }
    if ((q == "gauss_residual" || q == "continuity_residual" ||
         q == "gauss_residual_fine" || q == "continuity_residual_fine" ||
         q == "energy_drift_rate" || q == "step_wall_s") &&
        !std::isfinite(v)) {
      continue;
    }
    m_metrics->gauge("health_" + q).set(v);
  }
}

void HealthMonitor::log_alert(const Alert& a) {
  if (m_cfg.log_to_stderr) {
    std::fprintf(stderr, "[health] %s step %lld: %s%s%s\n", to_string(a.severity),
                 static_cast<long long>(a.step), a.message.c_str(),
                 a.checkpoint ? " [checkpoint-now]" : "", a.abort ? " [abort]" : "");
  }
  if (m_event_log != nullptr) {
    m_event_log->publish("health", "alert", a.severity, a.step,
                         a.message,
                         {{"value", a.value},
                          {"bound", a.bound},
                          {"checkpoint", a.checkpoint ? 1.0 : 0.0},
                          {"abort", a.abort ? 1.0 : 0.0}});
  }
}

bool HealthMonitor::consume_checkpoint_request() {
  std::lock_guard<std::mutex> lock(m_mu);
  const bool r = m_checkpoint_latch;
  m_checkpoint_latch = false;
  return r;
}

bool HealthMonitor::abort_requested() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_abort;
}

Alert HealthMonitor::abort_alert() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_abort_alert;
}

std::deque<LedgerSample> HealthMonitor::snapshot_history() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_history;
}

std::vector<Alert> HealthMonitor::snapshot_alerts() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_alerts;
}

std::int64_t HealthMonitor::num_samples() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_total_samples;
}

std::int64_t HealthMonitor::num_alerts() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return static_cast<std::int64_t>(m_alerts.size());
}

std::int64_t HealthMonitor::num_alerts(Severity sev) const {
  std::lock_guard<std::mutex> lock(m_mu);
  std::int64_t n = 0;
  for (const auto& a : m_alerts) {
    if (a.severity == sev) { ++n; }
  }
  return n;
}

bool HealthMonitor::write_ledger_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(m_mu);
  std::ofstream os(path);
  if (!os) { return false; }
  for (const auto& s : m_history) {
    write_sample(s, os);
    os << '\n';
  }
  return static_cast<bool>(os);
}

} // namespace mrpic::health
