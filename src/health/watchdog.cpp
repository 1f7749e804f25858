#include "src/health/watchdog.hpp"

#include <cmath>
#include <sstream>

namespace mrpic::health {

double EwmaDetector::update(double v) {
  if (!std::isfinite(v)) { return std::numeric_limits<double>::quiet_NaN(); }
  double z = std::numeric_limits<double>::quiet_NaN();
  if (m_n >= m_warmup) {
    // Variance floor: a perfectly constant warm-up must not turn round-off
    // jitter into infinite z-scores.
    const double floor = 1e-24 * (m_mean * m_mean) + 1e-300;
    z = (v - m_mean) / std::sqrt(std::max(m_var, floor));
  }
  // Standard EWMA mean/variance update.
  const double delta = v - m_mean;
  m_mean += m_alpha * delta;
  m_var = (1 - m_alpha) * (m_var + m_alpha * delta * delta);
  ++m_n;
  return z;
}

Watchdog::Watchdog(WatchdogConfig cfg) : m_cfg(std::move(cfg)) {
  m_detectors.reserve(m_cfg.drifts.size());
  for (const auto& d : m_cfg.drifts) { m_detectors.emplace_back(d.alpha, d.warmup); }
}

void Watchdog::reset() {
  m_detectors.clear();
  for (const auto& d : m_cfg.drifts) { m_detectors.emplace_back(d.alpha, d.warmup); }
  m_active.clear();
}

std::vector<Alert> Watchdog::evaluate(const LedgerSample& s) {
  std::vector<Alert> out;
  std::set<std::string> firing;

  const auto emit = [&](std::string key, Alert a) {
    firing.insert(key);
    if (m_cfg.dedup && m_active.count(key) > 0) { return; }  // still firing
    out.push_back(std::move(a));
  };

  // 1. NaN/Inf scan result (only when the sample ran the scan).
  if (s.nan_cells > 0) {
    Alert a;
    a.step = s.step;
    a.severity = m_cfg.nan_severity;
    a.quantity = s.nan_field.empty() ? "nan" : "nan:" + s.nan_field;
    a.value = static_cast<double>(s.nan_cells);
    a.bound = 0;
    a.checkpoint = m_cfg.nan_action.checkpoint;
    a.abort = m_cfg.nan_action.abort;
    std::ostringstream msg;
    msg << s.nan_cells << " non-finite cell(s) in " << (s.nan_field.empty() ? "fields" : s.nan_field);
    a.message = msg.str();
    emit("nan", std::move(a));
  }

  // 2. Absolute bounds.
  for (const auto& r : m_cfg.bounds) {
    const double v = s.value(r.quantity);
    if (!std::isfinite(v)) { continue; }
    if (v >= r.lo && v <= r.hi) { continue; }
    Alert a;
    a.step = s.step;
    a.severity = r.severity;
    a.quantity = r.quantity;
    a.value = v;
    a.bound = v < r.lo ? r.lo : r.hi;
    a.checkpoint = r.action.checkpoint;
    a.abort = r.action.abort;
    std::ostringstream msg;
    msg << r.quantity << " = " << v << " outside [" << r.lo << ", " << r.hi << "]";
    a.message = msg.str();
    emit("bound:" + r.quantity, std::move(a));
  }

  // 3. EWMA drift anomalies.
  for (std::size_t i = 0; i < m_cfg.drifts.size(); ++i) {
    const auto& r = m_cfg.drifts[i];
    const double v = s.value(r.quantity);
    const double z = m_detectors[i].update(v);
    if (!std::isfinite(z) || std::abs(z) <= r.z_threshold) { continue; }
    Alert a;
    a.step = s.step;
    a.severity = r.severity;
    a.quantity = r.quantity;
    a.value = v;
    a.bound = r.z_threshold;
    a.checkpoint = r.action.checkpoint;
    a.abort = r.action.abort;
    std::ostringstream msg;
    msg << r.quantity << " = " << v << " drifted |z| = " << std::abs(z) << " > "
        << r.z_threshold << " (EWMA mean " << m_detectors[i].mean() << ")";
    a.message = msg.str();
    emit("drift:" + r.quantity, std::move(a));
  }

  m_active.swap(firing);
  return out;
}

} // namespace mrpic::health
