#include "src/scenario/builder.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>

namespace mrpic::scenario {

core::SimulationConfig<2> effective_sim_config(const ScenarioSpec& spec) {
  core::SimulationConfig<2> cfg = spec.sim;
  cfg.sort_interval =
      spec.cadences.sort.enabled ? static_cast<int>(spec.cadences.sort.every) : 0;
  cfg.dynamic_lb = spec.cadences.rebalance.enabled;
  if (spec.cadences.rebalance.every > 0) {
    cfg.lb_interval = static_cast<int>(spec.cadences.rebalance.every);
  }
  return cfg;
}

std::unique_ptr<core::Simulation<2>> build_simulation(const ScenarioSpec& spec,
                                                      const BuildOptions& opts) {
  auto sim = std::make_unique<core::Simulation<2>>(effective_sim_config(spec));
  for (const auto& sp : spec.species) { sim->add_species(sp.species, sp.injector); }
  for (const auto& lc : spec.lasers) { sim->add_laser(lc); }
  if (spec.mr_patch) { sim->enable_mr_patch(*spec.mr_patch); }
  if (spec.window.enabled) {
    sim->set_moving_window(spec.window.dir, spec.window.speed, spec.window.start_time);
  }
  if (opts.init) {
    sim->init();
    apply_species_drifts(*sim, spec);
  }
  return sim;
}

std::string spec_digest(const ScenarioSpec& spec) {
  // Canonical key=value serialization of the physics-defining fields, then
  // FNV-1a over the bytes. Field order is fixed; adding a field changes
  // every digest, which is the desired behavior (new physics knob = new
  // workload identity).
  std::ostringstream ss;
  ss.precision(17);
  const auto& sim = spec.sim;
  ss << "name=" << spec.name << ";domain=" << sim.domain.lo()[0] << ','
     << sim.domain.lo()[1] << ',' << sim.domain.hi()[0] << ',' << sim.domain.hi()[1]
     << ";prob=" << sim.prob_lo[0] << ',' << sim.prob_lo[1] << ',' << sim.prob_hi[0]
     << ',' << sim.prob_hi[1] << ";periodic=" << sim.periodic[0] << sim.periodic[1]
     << ";maxwell=" << static_cast<int>(sim.maxwell) << ";shape=" << sim.shape_order
     << ";depo=" << static_cast<int>(sim.deposition)
     << ";pusher=" << static_cast<int>(sim.pusher) << ";cfl=" << sim.cfl
     << ";dt=" << sim.forced_dt << ";pml=" << sim.use_pml << ";nranks=" << sim.nranks
     << ";t_end=" << spec.t_end << ";";
  for (const auto& sp : spec.species) {
    ss << "sp(q=" << sp.species.charge << ",m=" << sp.species.mass
       << ",ux=" << sp.drift_ux << ");";
  }
  for (const auto& lc : spec.lasers) {
    ss << "laser(a0=" << lc.a0 << ",lam=" << lc.wavelength << ",dur=" << lc.duration
       << ");";
  }
  if (spec.mr_patch) {
    ss << "mr(ratio=" << spec.mr_patch->ratio << ");";
  }
  ss << "window=" << spec.window.enabled << ',' << spec.window.dir << ','
     << spec.window.speed << ";boost=" << spec.boost.enabled << ','
     << spec.boost.gamma << ";cad=" << spec.cadences.sort.every << ','
     << spec.cadences.rebalance.every << ',' << spec.cadences.checkpoint.every;

  const std::string bytes = ss.str();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void apply_species_drifts(core::Simulation<2>& sim, const ScenarioSpec& spec) {
  const int ns = static_cast<int>(spec.species.size());
  for (int s = 0; s < ns; ++s) {
    const Real ux = spec.species[std::size_t(s)].drift_ux;
    if (ux == Real(0)) { continue; }
    auto& pc = sim.species_level0(s);
    for (int ti = 0; ti < pc.num_tiles(); ++ti) {
      auto& tile = pc.tile(ti);
      for (std::size_t p = 0; p < tile.size(); ++p) { tile.u[0][p] = ux; }
    }
  }
}

} // namespace mrpic::scenario
