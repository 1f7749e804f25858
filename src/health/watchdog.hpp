#pragma once

// health::Watchdog — rule evaluation over the invariant ledger. Three rule
// families, each producing structured Alert records:
//
//  - NaN/Inf: any non-finite cell found by the field scan is an alert at
//    nan_severity with nan_action (default: checkpoint-now, then abort —
//    at exascale a silent NaN wastes a full allocation; save state and die
//    loudly instead).
//  - BoundRule: absolute bounds on a ledger quantity; fires when the value
//    leaves [lo, hi].
//  - DriftRule: EWMA z-score anomaly detection on a quantity (energy-drift
//    rate, step wall time, ...). The detector keeps exponentially-weighted
//    mean/variance and alerts once |value - mean| exceeds z_threshold
//    standard deviations, after a warm-up of `warmup` samples.
//
// Alerts carry the requested actions (warn is implicit: every alert is
// logged, counted and published to the event timeline); the
// monitor/Simulation layer executes them. An alert
// that keeps firing on consecutive evaluations is deduplicated: emitted
// once when it starts, re-armed only after the condition clears.

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/health/ledger.hpp"
#include "src/obs/event_log.hpp"

namespace mrpic::health {

// Alert severities are the event timeline's (obs::to_string names them).
using Severity = obs::EventSeverity;

// What the run should do about an alert (logging/metrics always happen).
struct ActionSpec {
  bool checkpoint = false;  // write a checkpoint immediately (resil policy)
  bool abort = false;       // stop the run cleanly (health::AbortError)
};

struct Alert {
  std::int64_t step = -1;
  Severity severity = Severity::Warn;
  std::string quantity;  // ledger quantity (or "nan:<field>")
  double value = 0;      // observed value
  double bound = 0;      // violated bound / z-threshold
  bool checkpoint = false;
  bool abort = false;
  std::string message;
};

struct BoundRule {
  std::string quantity;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  Severity severity = Severity::Warn;
  ActionSpec action{};
};

struct DriftRule {
  std::string quantity;
  double z_threshold = 6.0;
  double alpha = 0.1;  // EWMA smoothing factor (1 = newest sample only)
  int warmup = 16;     // samples absorbed before z-scores are evaluated
  Severity severity = Severity::Warn;
  ActionSpec action{};
};

struct WatchdogConfig {
  std::vector<BoundRule> bounds;
  std::vector<DriftRule> drifts;
  Severity nan_severity = Severity::Critical;
  ActionSpec nan_action{/*checkpoint=*/true, /*abort=*/true};
  bool dedup = true;  // suppress repeats of a still-firing alert
};

// EWMA mean/variance z-score detector (one quantity). Exposed for direct
// testing; the watchdog owns one per DriftRule.
class EwmaDetector {
public:
  EwmaDetector(double alpha, int warmup) : m_alpha(alpha), m_warmup(warmup) {}

  // Feed one value; returns the z-score against the *pre-update* statistics
  // (NaN during warm-up or for non-finite input, which is not absorbed).
  double update(double v);

  int samples() const { return m_n; }
  double mean() const { return m_mean; }
  double variance() const { return m_var; }
  bool warmed_up() const { return m_n >= m_warmup; }

private:
  double m_alpha;
  int m_warmup;
  int m_n = 0;
  double m_mean = 0;
  double m_var = 0;
};

class Watchdog {
public:
  explicit Watchdog(WatchdogConfig cfg = {});

  const WatchdogConfig& config() const { return m_cfg; }

  // Evaluate every rule against one ledger sample, updating EWMA and
  // deduplication state. Quantities the sample did not probe (NaN) are
  // skipped by bound/drift rules.
  std::vector<Alert> evaluate(const LedgerSample& s);

  // Forget EWMA and dedup state (e.g. after a rollback/restart).
  void reset();

private:
  WatchdogConfig m_cfg;
  std::vector<EwmaDetector> m_detectors;  // parallel to m_cfg.drifts
  std::set<std::string> m_active;         // dedup keys firing last evaluation
};

} // namespace mrpic::health
