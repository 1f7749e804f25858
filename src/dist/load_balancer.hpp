#pragma once

// Dynamic load balancing (paper Sec. V.C): boxes carry costs from whatever
// the caller records. Simulation's step records box_cost_heuristic()
// (0.1 * cells + 0.9 * particles per box), not measured runtimes. When the
// imbalance of the current DistributionMapping exceeds a threshold, a new
// mapping is computed with the configured strategy. Also
// implements the PML co-location heuristic: PML boxes are placed on the rank
// of the spatially closest parent-grid box, which the paper credits with a
// 25% performance gain.

#include <vector>

#include "src/amr/box_array.hpp"
#include "src/dist/distribution_mapping.hpp"

namespace mrpic::obs {
class MetricsRegistry;
class RankRecorder;
}

namespace mrpic::dist {

struct LoadBalanceConfig {
  Strategy strategy = Strategy::SpaceFillingCurve;
  // Rebalance when max_load / mean_load exceeds this factor.
  Real imbalance_threshold = Real(1.1);
  // Exponential smoothing factor for cost measurements (1 = use newest only).
  Real cost_smoothing = Real(0.5);
};

class LoadBalancer {
public:
  explicit LoadBalancer(LoadBalanceConfig cfg = {}) : m_cfg(cfg) {}

  const LoadBalanceConfig& config() const { return m_cfg; }

  // Record a new cost observation per box (e.g. measured kernel seconds or a
  // particles+cells heuristic). Costs are exponentially smoothed.
  void record_costs(const std::vector<Real>& new_costs);
  const std::vector<Real>& costs() const { return m_costs; }
  void reset_costs() { m_costs.clear(); }

  // True if the given mapping's imbalance exceeds the threshold.
  bool should_rebalance(const DistributionMapping& dm) const;

  // Compute a new mapping for `ba` using smoothed costs.
  template <int DIM>
  DistributionMapping rebalance(const mrpic::BoxArray<DIM>& ba, int nranks) const {
    return DistributionMapping::make(ba, nranks, m_cfg.strategy, m_costs);
  }

  int num_rebalances() const { return m_num_rebalances; }
  void count_rebalance();
  // Count a rebalance AND snapshot the per-rank summed costs under the old
  // and the new mapping: publishes gauges "lb_imbalance_before"/"_after" to
  // the metrics registry and a RebalanceRecord (tagged with the recorder's
  // current step) to the rank recorder, when attached.
  void count_rebalance(const DistributionMapping& before, const DistributionMapping& after);

  // Per-rank sums of the smoothed costs under a mapping (size = nranks).
  std::vector<double> rank_costs(const DistributionMapping& dm) const;

  // Imbalance (max/mean) of the currently smoothed costs; 1 when empty.
  Real cost_imbalance() const;

  // When set, record_costs() publishes gauge "lb_cost_imbalance" and
  // count_rebalance() bumps counter "lb_rebalances". The registry must
  // outlive this balancer (or be detached with nullptr).
  void set_metrics(obs::MetricsRegistry* metrics) { m_metrics = metrics; }
  // When set, count_rebalance(before, after) records a before/after
  // per-rank cost snapshot. Same lifetime contract as the registry.
  void set_rank_recorder(obs::RankRecorder* recorder) { m_recorder = recorder; }

private:
  LoadBalanceConfig m_cfg;
  std::vector<Real> m_costs;
  int m_num_rebalances = 0;
  obs::MetricsRegistry* m_metrics = nullptr;
  obs::RankRecorder* m_recorder = nullptr;
};

// Assign each PML box to the rank of the nearest box of the parent grid
// (minimizing the frequent PML<->parent data exchanges).
template <int DIM>
DistributionMapping colocate_pml(const mrpic::BoxArray<DIM>& pml_boxes,
                                 const mrpic::BoxArray<DIM>& parent_boxes,
                                 const DistributionMapping& parent_dm);

} // namespace mrpic::dist
