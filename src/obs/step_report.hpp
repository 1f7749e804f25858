#pragma once

// StepReport — the per-step summary Simulation<DIM>::step() publishes after
// every PIC cycle: wall time, work volumes, and the per-region second
// breakdown for exactly this step (the difference of the profiler's flat
// totals across the step). The mrpic_run driver and perfbench read it. The
// load balancer does not: the step feeds it box_cost_heuristic() (cells and
// particles per box), not these measured seconds.

#include <cstdint>
#include <map>
#include <string>

#include "src/amr/config.hpp"

namespace mrpic::obs {

struct StepReport {
  std::int64_t step = -1;         // step index just completed
  Real time = 0;                  // simulation time after the step [s]
  double wall_s = 0;              // wall-clock seconds of the whole step
  std::int64_t particles_pushed = 0;
  std::int64_t cells_advanced = 0;
  // Region -> seconds spent in this step (flat, leaf names, inclusive).
  std::map<std::string, double> region_s;

  double region(const std::string& name) const {
    const auto it = region_s.find(name);
    return it == region_s.end() ? 0.0 : it->second;
  }
};

} // namespace mrpic::obs
