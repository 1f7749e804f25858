#include "src/obs/heartbeat.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <sstream>

#include "src/obs/json.hpp"

namespace mrpic::obs {

ProgressHeartbeat::ProgressHeartbeat(HeartbeatConfig cfg, std::string run_id)
    : m_cfg(std::move(cfg)),
      m_run_id(std::move(run_id)),
      m_start(std::chrono::steady_clock::now()),
      m_last(m_start) {}

void ProgressHeartbeat::set_totals(std::int64_t steps_total, double t_end_s) {
  m_steps_total = steps_total;
  m_t_end_s = t_end_s;
}

bool ProgressHeartbeat::update(std::int64_t step, double sim_time_s,
                               const std::string& phase,
                               const std::string& last_alert_severity) {
  const auto now = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(now - m_last).count();
  if (m_last_step >= 0 && step > m_last_step && dt > 0) {
    const double inst = static_cast<double>(step - m_last_step) / dt;
    m_rate = m_updates <= 1 ? inst : m_cfg.alpha * inst + (1 - m_cfg.alpha) * m_rate;
  }
  m_last = now;
  m_last_step = step;
  ++m_updates;

  // Fraction done + ETA from whichever target binds first.
  double frac_steps = 0, frac_time = 0;
  if (m_steps_total > 0) {
    frac_steps = std::clamp(static_cast<double>(step) / static_cast<double>(m_steps_total),
                            0.0, 1.0);
  }
  if (m_t_end_s > 0) { frac_time = std::clamp(sim_time_s / m_t_end_s, 0.0, 1.0); }
  m_frac = std::max(frac_steps, frac_time);
  m_eta_s = std::numeric_limits<double>::quiet_NaN();
  if (m_rate > 0 && m_frac > 0 && m_frac < 1) {
    // Steps-equivalent remaining: scale the steps done by the unfinished
    // fraction (exact when the step target binds; a rate-consistent estimate
    // when only t_end is known).
    const double steps_done = static_cast<double>(step);
    m_eta_s = steps_done * (1 - m_frac) / (m_frac * m_rate);
  } else if (m_frac >= 1) {
    m_eta_s = 0;
  }

  const bool due = m_updates == 1 ||
                   (m_cfg.interval_steps > 0 && step % m_cfg.interval_steps == 0);
  if (!due) { return false; }
  return write(step, sim_time_s, phase, "running", last_alert_severity);
}

bool ProgressHeartbeat::finalize(const std::string& status, std::int64_t step,
                                 double sim_time_s) {
  return write(step, sim_time_s, "done", status, "");
}

bool ProgressHeartbeat::write(std::int64_t step, double sim_time_s,
                              const std::string& phase, const std::string& status,
                              const std::string& last_alert_severity) {
  if (m_cfg.path.empty()) { return false; }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - m_start).count();
  std::ostringstream ss;
  json::Writer w(ss);
  w.begin_object()
      .field("schema", kProgressSchema)
      .field("run_id", m_run_id)
      .field("status", status)
      .field("phase", phase)
      .field("step", step)
      .field("steps_total", m_steps_total)
      .field("sim_time_s", sim_time_s)
      .field("t_end_s", m_t_end_s)
      .field("fraction_done", m_frac)
      .field("steps_per_s", m_rate)
      .field("eta_s", m_eta_s)  // null when unknown (json maps NaN to null)
      .field("wall_s", wall_s)
      .field("last_alert_severity", last_alert_severity)
      .field("updated_unix", static_cast<std::int64_t>(std::time(nullptr)))
      .end_object();
  ss << '\n';
  if (!json::write_atomic(m_cfg.path, ss.str())) { return false; }
  ++m_writes;
  return true;
}

} // namespace mrpic::obs
