// Laser wakefield under fire: a half-size stage of the registered "lwfa"
// scenario (no MR patch, so no --no-mr flag) on a 4-rank simulated
// cluster with an injected fault plan — one straggling rank, a lossy
// wire, and a rank crash mid-run. The ResilientRunner
// checkpoints on the Daly-optimal cadence, detects the crash, shrinks the
// cluster to 3 ranks (re-homing the dead rank's boxes) and replays from the
// last checkpoint; the physics finishes as if nothing happened (the
// bit-identity property proven by the resil_smoke ctest).
//
// Run: ./resilient_lwfa [--outdir DIR] [--health] [--insitu] [--memory]
//                       [--node-budget-gb G] [t_end_fs]
// With --memory, the simulation publishes the process-global byte ledger as
// mem_* gauges; the ledger outlives any one Simulation, so the final print's
// high-water mark is the worst footprint of the whole campaign, crash ->
// shrink -> replay included (asserted by the memory tests).
// With --health, the simulation carries the invariant ledger + watchdog;
// alerts land on the event timeline and the final ledger in
// resil_health.jsonl.
// With --insitu, it also runs the in-situ physics registry; the runner
// restores checkpoints into the same simulation, so the resil_insitu.jsonl
// series stays open and continuous across crash -> shrink -> replay
// (reader-side canonicalize collapses the replayed overlap).
// Output (in --outdir, default out/): resil_events.jsonl (the durable event
//         timeline: crash/detect/rollback/remap/replay, checkpoints, health
//         alerts), resil_trace.json (Chrome/Perfetto trace: rank lanes +
//         the same fault instants), resil_metrics.jsonl (per-step metrics
//         incl. resil_* counters), resil_rank_heatmap.csv, and a recovery
//         report on stdout.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/diag/output_dir.hpp"
#include "src/insitu/registry.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/trace.hpp"
#include "src/resil/resilient_runner.hpp"
#include "src/scenario/builder.hpp"

#include "example_args.hpp"

using namespace mrpic;
using namespace mrpic::constants;

int main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  const auto args = examples::parse_example_args(argc, argv, /*default fs*/ 60.0);
  const bool with_health = args.health;
  const bool with_insitu = args.insitu;
  const Real t_end = args.t_end;

  // The half-size LWFA stage as a local (off-registry) ScenarioSpec, the
  // declarative input of the runner's factory.
  scenario::ScenarioSpec spec;
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(299, 49));
  spec.sim.prob_lo = RealVect2(0, 0);
  spec.sim.prob_hi = RealVect2(15e-6, 10e-6);
  spec.sim.periodic = {false, false};
  spec.sim.use_pml = true;
  spec.sim.pml.npml = 8;
  spec.sim.max_grid_size = IntVect2(75, 25); // 8 boxes over 4 ranks
  spec.sim.shape_order = 3;
  spec.sim.nranks = 4;
  {
    scenario::SpeciesSpec sp;
    sp.species = particles::Species::electron();
    sp.injector.density = plasma::gas_jet<2>(5e25, 6e-6, 500e-6, 3e-6);
    sp.injector.ppc = IntVect2(1, 2);
    spec.species.push_back(sp);

    laser::LaserConfig lc;
    lc.a0 = 2.5;
    lc.wavelength = 0.8e-6;
    lc.waist = 3.0e-6;
    lc.duration = 8e-15;
    lc.t_peak = 14e-15;
    lc.x_antenna = 2e-6;
    lc.center = {4e-6, 0};
    spec.lasers.push_back(lc);
  }
  spec.window = {true, 0, c, /*start_time=*/30e-15};

  // The durable timeline of the run the runner drives (outlives it).
  obs::EventLogConfig ecfg;
  ecfg.path = out.path("resil_events.jsonl");
  obs::EventLog elog(ecfg);

  const auto factory = [&args, &spec, with_health, with_insitu, &elog, &out] {
    scenario::BuildOptions bopt;
    bopt.init = false; // observability first, then init
    auto sim = scenario::build_simulation(spec, bopt);
    sim->enable_cluster_obs();
    sim->enable_event_log(&elog);
    sim->profiler().set_tracing(true);
    if (args.memory) { sim->enable_memory_obs(args.memory_cfg()); }
    if (with_health) {
      health::MonitorConfig hcfg;
      hcfg.nan_interval = 1;
      hcfg.residual_interval = 25;
      hcfg.watchdog.bounds.push_back(
          {"max_gamma", 0.0, 1e4, health::Severity::Warn, {}});
      sim->enable_health(hcfg);
    }
    if (with_insitu) {
      // Each record is flushed as it is written, so the series survives
      // the crash; the replay appends to it after the rollback.
      insitu::InsituConfig icfg;
      icfg.moments_interval = 5;
      icfg.spectrum_interval = 25;
      icfg.laser_interval = 5;
      icfg.wakefield_interval = 5;
      icfg.field_energy_interval = 5;
      icfg.beam_e_min_J = 0.5e6 * q_e;
      icfg.spectrum_e_min_J = 0.5e6 * q_e;
      icfg.spectrum_e_max_J = 30e6 * q_e;
      icfg.spectrum_bins = 60;
      icfg.series_path = out.path("resil_insitu.jsonl");
      sim->enable_insitu(icfg);
    }
    sim->init();
    return sim;
  };

  // Size the run from the requested end time (dt is config-determined); the
  // bare probe simulation publishes nothing.
  const int total_steps =
      static_cast<int>(t_end / scenario::build_simulation(spec)->dt()) + 1;

  resil::ResilientRunner<2>::Config rcfg;
  rcfg.total_steps = total_steps;
  rcfg.checkpoint_path = out.path("resil_lwfa_ckpt.bin");
  rcfg.policy.mode = resil::CheckpointMode::Daly;
  rcfg.policy.mtbf_s = 2.0;        // wall seconds: failures are *frequent* here
  rcfg.policy.checkpoint_cost_s = 0.01;
  rcfg.plan.seed = 2022;
  // Rank 1 straggles at 1.6x for the first half of the run, the wire drops
  // 2% and delays 3% of halo messages, and rank 2 dies at 60% of the run.
  rcfg.plan.slowdowns.push_back(
      {.rank = 1, .factor = 1.6, .from_step = 0, .to_step = total_steps / 2});
  rcfg.plan.message.drop_p = 0.02;
  rcfg.plan.message.delay_p = 0.03;
  rcfg.plan.message.delay_s = 50e-6;
  rcfg.plan.crashes.push_back({.rank = 2, .step = (total_steps * 3) / 5});

  std::printf("resilient LWFA: %d steps on 4 simulated ranks; rank 2 dies at step %lld\n",
              total_steps, static_cast<long long>(rcfg.plan.crashes[0].step));

  resil::ResilientRunner<2> runner(factory, rcfg);
  const auto rep = runner.run();
  auto& sim = runner.sim();

  std::printf("\nrecovery report:\n");
  std::printf("  completed:            %s\n", rep.completed ? "yes" : "NO");
  std::printf("  steps run (w/ replay): %d (%lld replayed)\n", rep.steps_run,
              static_cast<long long>(rep.replayed_steps));
  std::printf("  crashes / recoveries: %d / %d\n", rep.crashes, rep.recoveries);
  std::printf("  checkpoints written:  %d\n", rep.checkpoints_written);
  std::printf("  modeled detection:    %.3f ms\n", rep.detection_s * 1e3);
  std::printf("  restore wall time:    %.3f ms\n", rep.restore_wall_s * 1e3);
  std::printf("  final cluster size:   %d ranks\n", rep.final_nranks);
  std::printf("  final sim state:      step %d, t = %.1f fs, E_field = %.3e J\n",
              sim.step_count(), sim.time() * 1e15, sim.fields().field_energy());

  obs::write_chrome_trace(sim.profiler(), sim.rank_recorder(),
                          out.path("resil_trace.json"), "resilient_lwfa");
  sim.metrics().write_jsonl(out.path("resil_metrics.jsonl"));
  sim.rank_recorder().write_rank_heatmap_csv(out.path("resil_rank_heatmap.csv"));
  if (with_insitu && sim.insitu_enabled()) {
    // Continuity check over the surviving series: schema-valid, and per
    // diagnostic strictly increasing steps once the replayed overlap is
    // collapsed (last occurrence wins).
    const auto path = out.path("resil_insitu.jsonl");
    const auto errors = insitu::Registry::validate_series(path);
    const auto raw = insitu::Registry::read_series_jsonl(path);
    const auto canonical = insitu::Registry::canonicalize(raw);
    std::printf("  insitu: %zu series records (%zu canonical after replay), %s\n",
                raw.size(), canonical.size(),
                errors.empty() ? "continuous" : errors.front().c_str());
  }
  if (with_health && sim.health_enabled()) {
    sim.health()->write_ledger_jsonl(out.path("resil_health.jsonl"));
    std::printf("  health: %lld samples, %lld alerts across the surviving run\n",
                static_cast<long long>(sim.health()->num_samples()),
                static_cast<long long>(sim.health()->num_alerts()));
  }
  if (args.memory) {
    // High water is the campaign-wide peak of the process-global ledger.
    const auto& ledger = obs::memory_ledger();
    std::printf("  memory: %s live at the end, campaign high water %s\n",
                obs::format_bytes(double(ledger.total_current())).c_str(),
                obs::format_bytes(double(ledger.total_high_water())).c_str());
  }
  std::printf("wrote resil_events.jsonl (%lld events), resil_trace.json, "
              "resil_metrics.jsonl, resil_rank_heatmap.csv in %s/\n",
              static_cast<long long>(elog.num_events()), out.dir().c_str());
  return rep.completed ? 0 : 1;
}
