#pragma once

// obs::ProgressHeartbeat — live progress/ETA for external observers
// (ISSUE 10 tentpole). A small schema-tagged progress.json is REWRITTEN
// ATOMICALLY (tmp + rename) at a step cadence from inside the step loop:
// current step, simulated time, an EWMA step rate, the ETA toward the
// --steps / --t-end target, the current phase and the last health-alert
// severity. A campaign scheduler or dashboard polls this one tiny file for
// liveness and progress without parsing any JSONL stream; a run whose
// heartbeat goes stale while its manifest still says "running" is dead.

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

namespace mrpic::obs {

inline constexpr const char* kProgressSchema = "mrpic.progress.v1";

struct HeartbeatConfig {
  std::string path;        // progress.json location ("" disables writes)
  int interval_steps = 25; // rewrite cadence (every Nth update() call fires)
  double alpha = 0.25;     // EWMA smoothing for the step rate
};

class ProgressHeartbeat {
public:
  ProgressHeartbeat(HeartbeatConfig cfg, std::string run_id);

  const HeartbeatConfig& config() const { return m_cfg; }

  // Progress targets (either may be absent: steps_total/t_end <= 0). The
  // ETA uses whichever target binds first.
  void set_totals(std::int64_t steps_total, double t_end_s);

  // Call once per completed step. Updates the EWMA rate every call and
  // rewrites the file on the first call and every interval_steps-th step
  // after it. `last_alert_severity` is "" when no alert has fired yet.
  // Returns true when a write happened.
  bool update(std::int64_t step, double sim_time_s, const std::string& phase,
              const std::string& last_alert_severity = "");

  // Terminal rewrite with a final status (completed/aborted/failed), so a
  // poller sees the outcome even before it re-reads the manifest.
  bool finalize(const std::string& status, std::int64_t step, double sim_time_s);

  // --- inspection (tests / driver printout) -------------------------------
  double ewma_steps_per_s() const { return m_rate; }
  double eta_s() const { return m_eta_s; }      // NaN until computable
  double fraction_done() const { return m_frac; }  // 0..1 (0 when unknown)
  std::int64_t writes() const { return m_writes; }

private:
  bool write(std::int64_t step, double sim_time_s, const std::string& phase,
             const std::string& status, const std::string& last_alert_severity);

  HeartbeatConfig m_cfg;
  std::string m_run_id;
  std::int64_t m_steps_total = 0;
  double m_t_end_s = 0;

  std::chrono::steady_clock::time_point m_start;
  std::chrono::steady_clock::time_point m_last;
  std::int64_t m_last_step = -1;
  std::int64_t m_updates = 0;
  std::int64_t m_writes = 0;
  double m_rate = 0;   // EWMA steps/s
  double m_eta_s = std::numeric_limits<double>::quiet_NaN();
  double m_frac = 0;
};

} // namespace mrpic::obs
