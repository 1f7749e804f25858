#pragma once

// build_simulation: assemble a live core::Simulation<2> from a ScenarioSpec.
// One code path replaces the duplicated construct/add_species/add_laser/
// enable_mr_patch/set_moving_window/init blocks of the example drivers; a
// spec-built simulation is bit-identical to the equivalent hand-rolled setup
// (guarded by the ScenarioEquivalence ctest).

#include <memory>

#include "src/scenario/scenario_spec.hpp"

namespace mrpic::scenario {

struct BuildOptions {
  bool init = true; // call init() and apply species drifts; false lets the
                    // caller enable pre-init observability first
};

// Fold the cadences into the SimulationConfig (sort -> sort_interval,
// rebalance -> dynamic_lb/lb_interval) and return the effective config.
core::SimulationConfig<2> effective_sim_config(const ScenarioSpec& spec);

// Construct + register species/lasers/patch/window (+ init and drifts unless
// opts.init is false).
std::unique_ptr<core::Simulation<2>> build_simulation(const ScenarioSpec& spec,
                                                      const BuildOptions& opts = {});

// Apply the spec's per-species initial drifts to the loaded particles (a
// no-op for specs without drifting species). Called by build_simulation
// after init; exposed for callers that build with opts.init = false.
void apply_species_drifts(core::Simulation<2>& sim, const ScenarioSpec& spec);

// Stable hex digest (FNV-1a) over the spec's physics-defining fields —
// domain, numerics, species/laser/patch/window/boost parameters, cadences.
// Two runs with the same digest ran the same workload; the run manifest
// records it so a campaign can group runs by spec, not just by name.
std::string spec_digest(const ScenarioSpec& spec);

} // namespace mrpic::scenario
