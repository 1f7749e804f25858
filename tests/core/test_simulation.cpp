#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "src/core/simulation.hpp"
#include "src/obs/perf_report.hpp"

namespace mrpic::core {
namespace {

using namespace mrpic::constants;

SimulationConfig<2> periodic_config(int n = 32) {
  SimulationConfig<2> cfg;
  cfg.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1));
  cfg.prob_lo = mrpic::RealVect2(0, 0);
  cfg.prob_hi = mrpic::RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = mrpic::IntVect2(16);
  cfg.shape_order = 2;
  return cfg;
}

TEST(Simulation, InitLoadsPlasma) {
  Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  EXPECT_EQ(sim.total_particles(), 32 * 32 * 4);
  EXPECT_GT(sim.dt(), 0.0);
  EXPECT_EQ(sim.step_count(), 0);
  EXPECT_EQ(sim.active_cells(), 32 * 32);
}

TEST(Simulation, UniformPlasmaConservesChargeAndCount) {
  auto cfg = periodic_config();
  Simulation<2> sim(cfg);
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 100.0;
  const int s = sim.add_species(particles::Species::electron(), inj);
  sim.init();
  const auto n0 = sim.total_particles();
  const Real q0 = sim.species_level0(s).total_charge();
  sim.run(10);
  EXPECT_EQ(sim.total_particles(), n0); // periodic: nobody leaves
  EXPECT_NEAR(sim.species_level0(s).total_charge(), q0, std::abs(q0) * 1e-12);
  EXPECT_EQ(sim.step_count(), 10);
  EXPECT_NEAR(sim.time(), 10 * sim.dt(), 1e-20);
  EXPECT_TRUE(std::isfinite(sim.total_energy()));
}

TEST(Simulation, ColdUniformPlasmaStaysQuiet) {
  // A cold, perfectly uniform neutral-background plasma has no dynamics:
  // fields stay (near) zero and no particle moves appreciably.
  Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(20);
  // Uniform charge density -> zero net current -> no field growth.
  EXPECT_LT(sim.fields().E().max_abs(0), 1e3); // V/m, vs ~1e11 in real waves
  EXPECT_LT(sim.fields().E().max_abs(1), 1e3);
}

TEST(Simulation, EnergyConservedInQuietPlasma) {
  Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  const Real e0 = sim.total_energy();
  sim.run(50);
  const Real e1 = sim.total_energy();
  EXPECT_NEAR(e1 / e0, 1.0, 0.05); // bounded numerical heating
}

TEST(Simulation, TwoSpeciesNeutralPlasma) {
  Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(2, 2);
  const int e = sim.add_species(particles::Species::electron(), inj);
  const int p = sim.add_species(particles::Species::proton(), inj);
  sim.init();
  const Real qtot =
      sim.species_level0(e).total_charge() + sim.species_level0(p).total_charge();
  EXPECT_NEAR(qtot, 0.0, 1e-12 * std::abs(sim.species_level0(e).total_charge()));
  sim.run(5);
  EXPECT_EQ(sim.num_species(), 2);
  EXPECT_EQ(sim.num_particles(e), sim.num_particles(p));
}

TEST(Simulation, MovingWindowInjectsAndDrops) {
  auto cfg = periodic_config(32);
  cfg.periodic = {false, true};
  Simulation<2> sim(cfg);
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = mrpic::IntVect2(1, 1);
  sim.add_species(particles::Species::electron(), inj);
  sim.set_moving_window(0, c);
  sim.init();
  const auto n0 = sim.total_particles();
  const Real lo0 = sim.geom().prob_lo()[0];
  sim.run(40);
  EXPECT_GT(sim.geom().prob_lo()[0], lo0); // the window moved
  // Fresh plasma replaces dropped plasma: the count stays at the fill level.
  EXPECT_NEAR(static_cast<double>(sim.total_particles()), static_cast<double>(n0),
              0.05 * n0);
}

TEST(Simulation, DomainPmlAbsorbsLaser) {
  auto cfg = periodic_config(48);
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 10;
  Simulation<2> sim(cfg);
  laser::LaserConfig lc;
  lc.a0 = 0.5;
  lc.wavelength = 0.8e-6;
  lc.waist = 1.2e-6;
  lc.duration = 4e-15;
  lc.t_peak = 10e-15;
  lc.x_antenna = 1.0e-6;
  lc.center = {2.4e-6, 0};
  sim.add_laser(lc);
  sim.init();
  // Run while the laser is emitted.
  Real peak_energy = 0;
  while (sim.time() < 20e-15) {
    sim.step();
    peak_energy = std::max(peak_energy, sim.fields().field_energy());
  }
  ASSERT_GT(peak_energy, 0.0);
  // Keep running: the pulse exits through the PML and the energy collapses.
  while (sim.time() < 70e-15) { sim.step(); }
  EXPECT_LT(sim.fields().field_energy() / peak_energy, 0.05);
}

TEST(Simulation, DynamicLoadBalancingRebalances) {
  auto cfg = periodic_config(32);
  cfg.max_grid_size = mrpic::IntVect2(8); // 16 boxes: room to balance
  cfg.dynamic_lb = true;
  cfg.lb_interval = 2;
  // SFC with cell-count costs is the paper's (cost-blind) default: the
  // clustered hot boxes land together, forcing a cost-aware remap.
  cfg.lb.strategy = dist::Strategy::SpaceFillingCurve;
  cfg.lb.imbalance_threshold = 1.05;
  cfg.nranks = 4;
  Simulation<2> sim(cfg);
  plasma::InjectorConfig<2> inj;
  // All plasma in one quadrant: heavily imbalanced.
  inj.density = plasma::slab<2>(1e24, 0.0, 0.8e-6);
  inj.ppc = mrpic::IntVect2(3, 3);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(6);
  EXPECT_GE(sim.load_balancer().num_rebalances(), 1);
  // The new mapping balances measured costs well.
  EXPECT_LT(sim.dist_map().imbalance(sim.load_balancer().costs()), 1.5);
}

// An open (PML) domain with an MR patch: every field_solve sub-region runs.
SimulationConfig<2> open_config() {
  auto cfg = periodic_config();
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 4;
  return cfg;
}

mr::MRPatch<2>::Config small_patch() {
  mr::MRPatch<2>::Config pcfg;
  pcfg.region = mrpic::Box2(mrpic::IntVect2(8, 8), mrpic::IntVect2(15, 15));
  pcfg.pml.npml = 4;
  return pcfg;
}

TEST(Simulation, ProfilerRecordsStages) {
  Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e23);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(3);
  const auto flat = sim.profiler().flat_totals();
  EXPECT_EQ(flat.at("step").count, 3);
  EXPECT_EQ(flat.at("particles").count, 3);
  EXPECT_EQ(flat.at("field_solve").count, 3);
  EXPECT_GT(flat.at("step").inclusive_s, 0.0);
  // field_solve sub-regions on the FDTD path: three leapfrog sub-steps,
  // each preceded by an exchange, plus the closing exchange. A periodic
  // domain has no PML ring and no patch.
  EXPECT_EQ(flat.at("fdtd").count, 9);
  EXPECT_EQ(flat.at("exchange").count, 12);
  EXPECT_EQ(flat.count("pml"), 0u);
  EXPECT_EQ(flat.count("patch"), 0u);
  EXPECT_EQ(flat.count("psatd"), 0u);
  EXPECT_EQ(sim.profiler().stats("step/field_solve/fdtd").count, 9);
  // particles sub-regions: one gather, push and deposit per tile and step
  // (four 16x16 tiles, all loaded).
  for (const char* kernel : {"gather", "push", "deposit"}) {
    EXPECT_EQ(sim.profiler().stats(std::string("step/particles/") + kernel).count, 12)
        << kernel;
  }

  // An open domain adds the level-0 ring and an MR patch adds the patch,
  // each once per sub-step.
  Simulation<2> open_sim(open_config());
  open_sim.enable_mr_patch(small_patch());
  open_sim.add_species(particles::Species::electron(), inj);
  open_sim.init();
  open_sim.run(2);
  EXPECT_EQ(open_sim.profiler().stats("step/field_solve/pml").count, 6);
  EXPECT_EQ(open_sim.profiler().stats("step/field_solve/patch").count, 6);
  EXPECT_EQ(open_sim.profiler().stats("step/field_solve/fdtd").count, 6);
  EXPECT_EQ(open_sim.profiler().stats("step/field_solve/exchange").count, 8);
  // The patch tile runs its kernels in the same sub-regions as the four
  // level-0 tiles.
  for (const char* kernel : {"gather", "push", "deposit"}) {
    EXPECT_EQ(open_sim.profiler().stats(std::string("step/particles/") + kernel).count, 10)
        << kernel;
  }

  // The spectral path: one solve and one exchange per step.
  auto psatd_cfg = periodic_config();
  psatd_cfg.max_grid_size = mrpic::IntVect2(32);
  psatd_cfg.maxwell = MaxwellSolver::PSATD;
  Simulation<2> psatd_sim(psatd_cfg);
  psatd_sim.init();
  psatd_sim.run(2);
  const auto pflat = psatd_sim.profiler().flat_totals();
  EXPECT_EQ(pflat.at("psatd").count, 2);
  EXPECT_EQ(pflat.at("exchange").count, 2);
  EXPECT_EQ(pflat.count("fdtd"), 0u);
}

// StepReport::region_s is the breakdown of exactly one step: region by
// region, the difference of the profiler's flat totals across the step.
TEST(Simulation, StepReportRegionsMatchFlatTotalDifferences) {
  Simulation<2> sim(open_config());
  sim.enable_mr_patch(small_patch());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e23);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();

  auto before = sim.profiler().flat_totals();
  int steps = 0;
  sim.set_step_callback([&](const obs::StepReport& rep) {
    const auto after = sim.profiler().flat_totals();
    std::map<std::string, double> expected;
    for (const auto& [name, s] : after) {
      const auto it = before.find(name);
      const double dt = s.inclusive_s - (it == before.end() ? 0.0 : it->second.inclusive_s);
      if (dt > 0) { expected[name] = dt; }
    }
    EXPECT_EQ(rep.region_s.size(), expected.size()) << "step " << rep.step;
    for (const auto& [name, dt] : expected) {
      EXPECT_NEAR(rep.region(name), dt, 1e-12) << name << ", step " << rep.step;
    }
    before = after;
    ++steps;
  });
  sim.run(5);
  EXPECT_EQ(steps, 5);
  for (const char* region : {"step", "particles", "gather", "push", "deposit", "current_sync",
                             "field_solve", "exchange", "fdtd", "pml", "patch", "mr_aux"}) {
    EXPECT_GT(sim.last_step_report().region(region), 0.0) << region;
  }
}

// The perf report's time table on a PML + MR run: the rows in `step`, its
// unattributed time included, sum to `step`, and each row is its profiler
// node's total.
TEST(Simulation, TimeBreakdownRowsSumToStep) {
  Simulation<2> sim(open_config());
  sim.enable_mr_patch(small_patch());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e23);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(5);

  const auto t = obs::time_breakdown(sim.profiler());
  EXPECT_EQ(t.steps, 5);
  EXPECT_EQ(t.step_s, sim.profiler().stats("step").inclusive_s);
  double in_step = 0;
  std::set<std::string> rows;
  for (const auto& r : t.regions) {
    rows.insert(r.region);
    if (r.parent == "step") { in_step += r.seconds; }
    if (r.parent == "step" && r.region != "step (unattributed)") {
      EXPECT_EQ(r.seconds, sim.profiler().stats("step/" + r.region).inclusive_s) << r.region;
    }
  }
  EXPECT_NEAR(in_step, t.step_s, 1e-12);
  for (const char* region : {"step", "particles", "gather", "push", "deposit", "current_sync",
                             "field_solve", "exchange", "fdtd", "pml", "patch", "mr_aux",
                             "step (unattributed)"}) {
    EXPECT_EQ(rows.count(region), 1u) << region;
  }
}

// The particle kernels exist for shape orders 1-3; any other order is
// refused at init.
TEST(Simulation, UnsupportedShapeOrderThrows) {
  for (int order : {0, 4}) {
    auto cfg = periodic_config();
    cfg.shape_order = order;
    Simulation<2> sim(cfg);
    EXPECT_THROW(sim.init(), std::invalid_argument) << "order " << order;
  }
}

// Spectral (PSATD) set-ups the solver cannot run are refused at init in every
// build type.
SimulationConfig<2> psatd_config() {
  auto cfg = periodic_config();
  cfg.max_grid_size = mrpic::IntVect2(32);
  cfg.maxwell = MaxwellSolver::PSATD;
  return cfg;
}

TEST(Simulation, PsatdNonPeriodicDomainThrows) {
  auto cfg = psatd_config();
  cfg.periodic = {true, false};
  Simulation<2> sim(cfg);
  EXPECT_THROW(sim.init(), std::invalid_argument);
}

TEST(Simulation, PsatdMultiBoxLevelThrows) {
  auto cfg = psatd_config();
  cfg.max_grid_size = mrpic::IntVect2(16);
  Simulation<2> sim(cfg);
  EXPECT_THROW(sim.init(), std::invalid_argument);
}

TEST(Simulation, PsatdWithPmlThrows) {
  auto cfg = psatd_config();
  cfg.use_pml = true;
  Simulation<2> sim(cfg);
  EXPECT_THROW(sim.init(), std::invalid_argument);
}

TEST(Simulation, PsatdWithMrPatchThrows) {
  Simulation<2> sim(psatd_config());
  mr::MRPatch<2>::Config patch;
  patch.region = mrpic::Box2(mrpic::IntVect2(8, 8), mrpic::IntVect2(23, 23));
  sim.enable_mr_patch(patch);
  EXPECT_THROW(sim.init(), std::invalid_argument);
}

} // namespace
} // namespace mrpic::core
