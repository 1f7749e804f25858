// health_smoke: the end-to-end self-diagnostics drill. A FaultInjector
// plants silent NaN corruption in a field mid-run; the watchdog's NaN scan
// must catch it, force an immediate checkpoint through the resil policy
// (fault event "health_checkpoint") and abort with the alert and the forced
// checkpoint already on the durable event timeline. The control run
// without injection must finish alert-free.
//
// EnergyLedger is the quantitative acceptance gate: on a uniform thermal
// plasma over 200+ steps the ledger's relative energy drift stays bounded
// and the Esirkepov continuity residual holds to round-off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "src/core/simulation.hpp"
#include "src/health/monitor.hpp"
#include "src/obs/event_log.hpp"
#include "src/resil/fault_injector.hpp"

namespace mrpic::health {
namespace {

core::SimulationConfig<2> periodic_config(int n = 32) {
  core::SimulationConfig<2> cfg;
  cfg.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1));
  cfg.prob_lo = mrpic::RealVect2(0, 0);
  cfg.prob_hi = mrpic::RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = mrpic::IntVect2(16);
  cfg.shape_order = 2;
  return cfg;
}

TEST(HealthSmoke, InjectedFieldNanFiresAlertCheckpointAndAbort) {
  // The health_smoke ctest and the discovered test run this concurrently
  // in one directory: a per-pid name keeps their timelines apart.
  const std::string events_path =
      "health_smoke_events_" + std::to_string(static_cast<long>(::getpid())) + ".jsonl";
  obs::EventLogConfig ecfg;
  ecfg.path = events_path;
  obs::EventLog log(ecfg);

  // Field-only run: the corruption must be caught by the scan before any
  // particle ever gathers a NaN (a NaN position is undefined indexing).
  core::Simulation<2> sim(periodic_config());

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.nan_interval = 1;
  // Default nan_action: checkpoint-now + abort.
  sim.enable_health(hcfg);
  sim.enable_event_log(&log);

  resil::CheckpointPolicyConfig pcfg;
  pcfg.mode = resil::CheckpointMode::Periodic;
  pcfg.interval_steps = 1000000; // only a health action can trigger a write
  int writes = 0;
  sim.set_checkpoint_policy(resil::CheckpointPolicy(pcfg),
                            [&](core::Simulation<2>&) {
                              ++writes;
                              return true;
                            });

  resil::FaultPlan plan;
  plan.seed = 42;
  plan.field.step = 2; // corrupt after step 2's (clean) scan
  plan.field.nan_cells = 3;
  resil::FaultInjector fi(plan);
  int injected = 0;
  sim.set_step_callback([&](const obs::StepReport& r) {
    fi.set_step(r.step);
    injected += fi.corrupt_field<2>(sim.fields().E());
  });

  sim.init();

  bool aborted = false;
  try {
    sim.run(10);
  } catch (const AbortError& e) {
    aborted = true;
    EXPECT_EQ(e.alert().severity, Severity::Critical);
    EXPECT_EQ(e.alert().quantity.rfind("nan:", 0), 0u) << e.alert().quantity;
  }
  ASSERT_TRUE(aborted);
  EXPECT_EQ(injected, 3);
  // Step indices are 0-based: corrupted at the end of step 2 (the third
  // step), caught by step 3's scan — the run died after four steps.
  EXPECT_EQ(sim.step_count(), 4);
  EXPECT_EQ(writes, 1); // checkpoint-now fired despite the huge interval

  // The forced write is distinguishable on the fault-event timeline.
  bool saw_health_ckpt = false;
  for (const auto& ev : sim.rank_recorder().fault_events()) {
    if (ev.kind == "health_checkpoint") { saw_health_ckpt = true; }
  }
  EXPECT_TRUE(saw_health_ckpt);

  // The terminal alert reached disk before the abort unwound, followed by
  // the checkpoint it forced.
  const auto events = obs::EventLog::read_events_jsonl(events_path);
  ASSERT_GE(events.size(), 2u);
  const auto& alert = events[events.size() - 2];
  EXPECT_EQ(alert.category, "health");
  EXPECT_EQ(alert.kind, "alert");
  EXPECT_EQ(alert.step, 3);
  EXPECT_EQ(alert.severity, Severity::Critical);
  EXPECT_NE(alert.detail.find("non-finite cell(s) in "), std::string::npos) << alert.detail;
  EXPECT_EQ(alert.value("checkpoint"), 1.0);
  EXPECT_EQ(alert.value("abort"), 1.0);
  EXPECT_EQ(events.back().kind, "health_checkpoint");
  EXPECT_EQ(events.back().step, 3);
  std::remove(events_path.c_str());
}

TEST(HealthSmoke, UninjectedThermalPlasmaRunsAlertFree) {
  core::Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.nan_interval = 1;
  hcfg.residual_interval = 5;
  // Representative production rules: none of them fires on a healthy run.
  hcfg.watchdog.bounds.push_back(
      {"max_gamma", 1.0, 1e3, Severity::Warn, {}});
  hcfg.watchdog.bounds.push_back(
      {"continuity_residual", 0.0, 1e-10, Severity::Critical, {}});
  DriftRule drift;
  drift.quantity = "field_energy_J";
  drift.z_threshold = 1e3; // thermal field growth is expected; only explosions
  drift.warmup = 8;
  hcfg.watchdog.drifts.push_back(drift);
  sim.enable_health(hcfg);
  sim.init();
  sim.run(20);

  EXPECT_EQ(sim.step_count(), 20);
  EXPECT_EQ(sim.health()->num_alerts(), 0);
  EXPECT_EQ(sim.health()->num_samples(), 20);
  // Scans ran and found nothing.
  for (const auto& s : sim.health()->history()) {
    EXPECT_EQ(s.nan_cells, 0) << "step " << s.step;
  }
}

TEST(HealthSmoke, EmptySpeciesAndZeroParticleBoxesProbeCleanly) {
  // Edge cases: a registered species with zero particles everywhere, plus a
  // species confined to one corner (most boxes empty). Probes, residuals and
  // the NaN scan must handle both without alerts.
  core::Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> empty_inj;
  empty_inj.density = plasma::uniform<2>(0.0); // below any density floor
  empty_inj.ppc = mrpic::IntVect2(1, 1);
  sim.add_species(particles::Species::electron(), empty_inj);
  plasma::InjectorConfig<2> corner;
  corner.density = plasma::slab<2>(1e23, 0.0, 0.4e-6); // 4 of 32 columns
  corner.ppc = mrpic::IntVect2(1, 1);
  sim.add_species(particles::Species::proton(), corner);

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.residual_interval = 2;
  sim.enable_health(hcfg);
  sim.init();
  sim.run(6);

  EXPECT_EQ(sim.health()->num_alerts(), 0);
  const auto& hist = sim.health()->history();
  ASSERT_EQ(hist.size(), 6u);
  ASSERT_EQ(hist.back().species.size(), 2u);
  EXPECT_EQ(hist.back().species[0].level0, 0); // empty species stays empty
  EXPECT_GT(hist.back().species[1].level0, 0);
  for (const auto& s : hist) {
    if (std::isnan(s.continuity_residual)) { continue; } // not probed that step
    EXPECT_LT(s.continuity_residual, 1e-10) << "step " << s.step;
  }
}

TEST(EnergyLedger, ThermalPlasmaDriftAndContinuityGates) {
  core::Simulation<2> sim(periodic_config());
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);

  MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.ledger_interval = 1;
  hcfg.nan_interval = 5;
  hcfg.residual_interval = 10;
  sim.enable_health(hcfg);
  sim.init();
  sim.run(200);

  const auto& hist = sim.health()->history();
  ASSERT_EQ(hist.size(), 200u);
  EXPECT_EQ(sim.health()->num_alerts(), 0);

  // Energy gate: bounded relative drift of the total (field + kinetic)
  // energy over the full 200-step window. The quiet thermal plasma heats
  // numerically but slowly; 10% over 200 steps is far above the measured
  // drift yet far below any instability.
  const double e0 = hist.front().total_energy_J();
  const double e1 = hist.back().total_energy_J();
  ASSERT_GT(e0, 0.0);
  EXPECT_LT(std::abs(e1 - e0) / e0, 0.10);

  // Continuity gate: Esirkepov keeps (drho/dt + div J) at round-off. The
  // residual is normalized by max|rho_new|/dt, so 1e-12 is a genuine
  // machine-precision statement, probed every 10th step.
  int probed = 0;
  for (const auto& s : hist) {
    if (std::isnan(s.continuity_residual)) { continue; }
    ++probed;
    EXPECT_LE(s.continuity_residual, 1e-12) << "step " << s.step;
    // Gauss residual is probed alongside and must at least be finite.
    EXPECT_TRUE(std::isfinite(s.gauss_residual)) << "step " << s.step;
  }
  EXPECT_EQ(probed, 20);

  // Charge/count conservation in a periodic box, straight off the ledger.
  EXPECT_EQ(hist.front().num_particles, hist.back().num_particles);
  EXPECT_NEAR(hist.back().total_charge_C / hist.front().total_charge_C, 1.0, 1e-12);
  EXPECT_EQ(hist.back().escaped, 0);
  EXPECT_EQ(hist.back().swept, 0);

  // CFL margin: dt was chosen strictly below the fastest-wave limit.
  EXPECT_GT(hist.back().cfl_margin, 0.0);
  EXPECT_LT(hist.back().cfl_margin, 1.0);
}

} // namespace
} // namespace mrpic::health
