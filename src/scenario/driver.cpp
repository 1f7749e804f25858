#include "src/scenario/driver.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/boost/lorentz.hpp"
#include "src/diag/csv_writer.hpp"
#include "src/health/watchdog.hpp"
#include "src/io/checkpoint.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/heartbeat.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/run_manifest.hpp"
#include "src/obs/trace.hpp"
#include "src/perf/machine.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic::scenario {
namespace {

using mrpic::constants::c;
using mrpic::constants::q_e;

struct ParseResult {
  RunOptions opt;
  bool ok = true;
};

ParseResult parse_options(int argc, char** argv) {
  ParseResult r;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--scenario") == 0 && i + 1 < argc) {
      r.opt.scenario = argv[++i];
    } else if (std::strcmp(a, "--list") == 0) {
      r.opt.list = true;
    } else if (std::strcmp(a, "--steps") == 0 && i + 1 < argc) {
      r.opt.steps = std::atoll(argv[++i]);
    } else if (std::strcmp(a, "--health") == 0) {
      r.opt.health = true;
    } else if (std::strcmp(a, "--insitu") == 0) {
      r.opt.insitu = true;
    } else if (std::strcmp(a, "--memory") == 0) {
      r.opt.memory = true;
    } else if (std::strcmp(a, "--node-budget-gb") == 0 && i + 1 < argc) {
      r.opt.node_budget_gb = std::atof(argv[++i]);
      r.opt.memory = true;
    } else if (std::strcmp(a, "--no-mr") == 0) {
      r.opt.no_mr = true;
    } else if (std::strcmp(a, "--run-id") == 0 && i + 1 < argc) {
      r.opt.run_id = argv[++i];
    } else if (std::strcmp(a, "--heartbeat") == 0 && i + 1 < argc) {
      r.opt.heartbeat = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      print_usage(argv[0]);
      std::exit(0);
    } else if (a[0] != '-') {
      r.opt.t_end_fs = std::atof(a);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], a);
      r.ok = false;
      return r;
    }
  }
  return r;
}

// Normalized driver options for the run manifest (stable across argv
// orderings; defaults are omitted).
std::vector<std::string> normalized_flags(const RunOptions& opt) {
  std::vector<std::string> f;
  if (opt.steps > 0) { f.push_back("--steps " + std::to_string(opt.steps)); }
  if (opt.t_end_fs > 0) { f.push_back("t_end_fs=" + std::to_string(opt.t_end_fs)); }
  if (opt.health) { f.push_back("--health"); }
  if (opt.insitu) { f.push_back("--insitu"); }
  if (opt.memory) { f.push_back("--memory"); }
  if (opt.node_budget_gb > 0) {
    f.push_back("--node-budget-gb " + std::to_string(opt.node_budget_gb));
  }
  if (opt.no_mr) { f.push_back("--no-mr"); }
  if (opt.heartbeat != RunOptions{}.heartbeat) {
    f.push_back("--heartbeat " + std::to_string(opt.heartbeat));
  }
  return f;
}

// Lab <-> boosted-frame correspondence table for boosted specs: the spec
// carries boosted-frame values, so invert them for the lab column.
void print_boost_table(const ScenarioSpec& spec) {
  const boost::BoostedFrame frame(spec.boost.gamma);
  const Real g = frame.gamma(), b = frame.beta();
  const laser::LaserConfig& lc = spec.lasers.front();
  const Real lam_lab = lc.wavelength / (g * (1 + b));
  std::printf("boosted frame gamma = %.1f (beta = %.4f)\n", g, b);
  std::printf("  %-26s %12s %12s\n", "", "lab", "boosted");
  std::printf("  %-26s %12.3f %12.3f\n", "laser wavelength [um]", lam_lab * 1e6,
              lc.wavelength * 1e6);
  std::printf("  %-26s %12.1f %12.1f\n", "laser duration [fs]",
              lc.duration / (g * (1 + b)) * 1e15, lc.duration * 1e15);
  if (!spec.species.empty()) {
    std::printf("  %-26s %12s %12s\n", "plasma density", "n", "gamma*n");
    std::printf("  %-26s %12.3e %12s\n", "plasma drift u_x [m/s]", frame.plasma_drift_ux(),
                "");
  }
  std::printf("  expected speedup vs lab frame: %.1fx  [(1+beta)^2 gamma^2, Vay 2007]\n",
              boost::BoostedFrame::speedup_estimate(g));
}

// An energy [J] in eV, keV or MeV, whichever keeps the mantissa below 1000
// (a 100 eV thermal bulk and a 50 MeV beam both read naturally).
std::string format_energy(Real joules) {
  static const char* units[] = {"eV", "keV", "MeV"};
  double v = joules / q_e;
  int u = 0;
  while (std::abs(v) >= 1000.0 && u < 2) {
    v /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return std::string(buf);
}

} // namespace

void print_usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s --scenario <name> [options] [t_end_fs]\n"
      "       %s --list\n"
      "\n"
      "options:\n"
      "  --scenario <name>     registered scenario to run (see --list)\n"
      "  --list                print the scenario registry and exit\n"
      "  --steps N             run exactly N steps (overrides t_end)\n"
      "  --outdir DIR          artifact directory (default out/)\n"
      "  --health              invariant ledger + NaN/stability watchdog\n"
      "  --insitu              in-situ physics series + streaming exporter\n"
      "  --memory              byte ledger, per-rank memory model, MR savings\n"
      "  --node-budget-gb G    OOM headroom vs a G-GiB per-rank budget (implies --memory)\n"
      "  --no-mr               strip the scenario's MR patch\n"
      "  --run-id ID           run id recorded in the run.json manifest (default:\n"
      "                        generated <scenario>-<time>-<pid>-<n>)\n"
      "  --heartbeat N         rewrite progress.json every N steps (default 25; 0 = off)\n"
      "  t_end_fs              end time in femtoseconds (positional)\n",
      prog, prog);
}

RunTelemetry::RunTelemetry(const ScenarioSpec& spec, const RunOptions& opt,
                           const diag::OutputDir& out)
    : m_run_id(opt.run_id.empty() ? obs::generate_run_id(spec.name) : opt.run_id),
      m_context(m_run_id, spec.name, out.path("run.json")),
      m_events({.path = out.path(spec.output_prefix + "_events.jsonl")}),
      m_heartbeat({.path = opt.heartbeat > 0 ? out.path("progress.json") : "",
                   .interval_steps = opt.heartbeat},
                  m_run_id) {
  const std::string& pfx = spec.output_prefix;
  const Real t_end = opt.t_end_fs > 0 ? opt.t_end_fs * 1e-15 : spec.t_end;
  m_context.manifest().title = spec.title;
  m_context.manifest().spec_digest = spec_digest(spec);
  m_context.manifest().flags = normalized_flags(opt);
  m_heartbeat.set_totals(opt.steps, opt.steps > 0 ? 0.0 : double(t_end));

  // Inventory the artifacts this run will produce (bytes stat'ed at
  // finalize; never-written ones record -1).
  m_context.add_artifact("events", m_events.config().path);
  if (opt.heartbeat > 0) { m_context.add_artifact("progress", m_heartbeat.config().path); }
  m_context.add_artifact("history", out.path(pfx + "_history.csv"));
  m_context.add_artifact("field", out.path(pfx + "_field.csv"));
  m_context.add_artifact("trace", out.path(pfx + "_trace.json"));
  m_context.add_artifact("metrics", out.path(pfx + "_metrics.jsonl"));
  m_context.add_artifact("rank_heatmap", out.path("rank_heatmap.csv"));
  m_context.add_artifact("perf_report_md", out.path(pfx + "_perf_report.md"));
  m_context.add_artifact("perf_report_json", out.path(pfx + "_perf_report.json"));
  if (opt.insitu) { m_context.add_artifact("insitu", out.path(pfx + "_insitu.jsonl")); }
  if (opt.memory) { m_context.add_artifact("memory_heatmap", out.path("memory_heatmap.csv")); }
}

void RunTelemetry::start() {
  m_context.start();
  m_events.publish("lifecycle", "run_start", obs::EventSeverity::Info, -1,
                   m_context.manifest().scenario);
}

void RunTelemetry::after_step(const core::Simulation<2>& sim) {
  m_heartbeat.update(sim.step_count(), sim.time(), "step", last_alert_severity);
}

void RunTelemetry::finish(const core::Simulation<2>& sim, const std::string& status,
                          int exit_code, const std::string& reason) {
  // Terminal lifecycle event + final heartbeat + manifest finalize, so a
  // campaign scheduler sees the outcome atomically.
  m_events.publish("lifecycle", "run_end", obs::EventSeverity::Info, sim.step_count(),
                   status);
  m_heartbeat.finalize(status, sim.step_count(), sim.time());
  m_context.manifest().num_events = m_events.num_events();
  if (sim.health() != nullptr) { m_context.manifest().num_alerts = sim.health()->num_alerts(); }
  m_context.finalize(status, exit_code, sim.step_count(), sim.time(), reason);
}

std::unique_ptr<core::Simulation<2>> build_observed_simulation(const ScenarioSpec& spec,
                                                               const RunOptions& opt,
                                                               const diag::OutputDir& out,
                                                               RunTelemetry& tel) {
  // Assemble without init so pre-init observability hooks see the setup
  // phase, then enable per-flag observability and init.
  BuildOptions bopt;
  bopt.init = false;
  auto sim = build_simulation(spec, bopt);
  sim->enable_cluster_obs();
  sim->enable_event_log(&tel.events());
  sim->profiler().set_tracing(true);

  if (opt.memory) {
    core::MemoryObsConfig mcfg;
    mcfg.interval = 1;
    mcfg.node_budget_gb = opt.node_budget_gb;
    sim->enable_memory_obs(mcfg);
  }
  if (opt.health) {
    sim->enable_health(spec.health);
    sim->health()->set_alert_callback([&tel](const health::Alert& a) {
      tel.last_alert_severity = obs::to_string(a.severity);
    });
  }
  const std::string& pfx = spec.output_prefix;
  insitu::InsituConfig icfg = spec.insitu;
  if (opt.insitu) {
    icfg.series_path = out.path(pfx + "_insitu.jsonl");
    if (icfg.stream_interval > 0) { icfg.stream.basename = out.path(pfx + "_stream"); }
  } else {
    // Keep the registry armed (the final force-collect prints the beam
    // deliverables through it) but disable every cadence series.
    icfg.moments_interval = icfg.spectrum_interval = icfg.laser_interval =
        icfg.wakefield_interval = icfg.field_energy_interval = 0;
    icfg.stream_interval = 0;
    icfg.series_path.clear();
    icfg.stream.basename.clear();
  }
  sim->enable_insitu(icfg);

  sim->init();
  apply_species_drifts(*sim, spec);
  return sim;
}

int run_scenario(const ScenarioSpec& spec_in, const RunOptions& opt,
                 const diag::OutputDir& out) {
  ScenarioSpec spec = spec_in;
  if (opt.no_mr) { spec.mr_patch.reset(); }
  if (spec.output_prefix.empty()) {
    spec.output_prefix = spec.name.empty() ? "scenario" : spec.name;
  }
  const std::string& pfx = spec.output_prefix;
  const Real t_end = opt.t_end_fs > 0 ? opt.t_end_fs * 1e-15 : spec.t_end;
  if (opt.steps <= 0 && t_end <= 0) {
    std::fprintf(stderr, "scenario '%s' has no default t_end; pass --steps or t_end_fs\n",
                 spec.name.c_str());
    return 2;
  }

  // Campaign telemetry: every run gets a manifest, an event timeline and a
  // progress heartbeat regardless of the observability flags.
  RunTelemetry tel(spec, opt, out);
  tel.start();
  auto sim_ptr = build_observed_simulation(spec, opt, out, tel);
  core::Simulation<2>& sim = *sim_ptr;

  if (spec.cadences.checkpoint.enabled && spec.cadences.checkpoint.every > 0) {
    resil::CheckpointPolicyConfig ccfg;
    ccfg.mode = resil::CheckpointMode::Periodic;
    ccfg.interval_steps = static_cast<int>(spec.cadences.checkpoint.every);
    const std::string ckpt_path = out.path(pfx + "_ckpt.bin");
    sim.set_checkpoint_policy(resil::CheckpointPolicy(ccfg),
                              [ckpt_path](core::Simulation<2>& s) {
                                return io::write_checkpoint<2>(ckpt_path, s);
                              });
  }

  std::printf("scenario %s: %s\n", spec.name.c_str(), spec.title.c_str());
  std::printf("  %lld particles, %lld cells, dt = %.3e s, %s\n",
              static_cast<long long>(sim.total_particles()),
              static_cast<long long>(spec.sim.domain.num_cells()), sim.dt(),
              opt.steps > 0 ? ("steps = " + std::to_string(opt.steps)).c_str()
                            : ("t_end = " + std::to_string(t_end * 1e15) + " fs").c_str());
  if (spec.boost.enabled && !spec.lasers.empty()) { print_boost_table(spec); }

  diag::CsvSeries history({"t_fs", "window_x_um", "field_energy_J", "total_particles",
                           "max_Ex_GV_per_m"});
  const auto record_row = [&] {
    history.add_row({sim.time() * 1e15, sim.geom().prob_lo()[0] * 1e6,
                     sim.fields().field_energy(),
                     static_cast<double>(sim.total_particles()),
                     sim.fields().E().max_abs(fields::X) / 1e9});
  };
  int exit_code = 0;
  std::string status = obs::kRunStatusCompleted;
  std::string reason;
  try {
    for (;;) {
      if (opt.steps > 0 ? sim.step_count() >= opt.steps : sim.time() >= t_end) { break; }
      sim.step();
      tel.after_step(sim);
      if (spec.cadences.diagnostics.due(sim.step_count())) {
        record_row();
        std::printf("t = %7.1f fs  step %6lld  E_x = %8.2f GV/m  particles %lld\n",
                    sim.time() * 1e15, static_cast<long long>(sim.step_count()),
                    sim.fields().E().max_abs(fields::X) / 1e9,
                    static_cast<long long>(sim.total_particles()));
      }
    }
  } catch (const health::AbortError& e) {
    std::fprintf(stderr, "scenario %s aborted by health watchdog: %s\n",
                 spec.name.c_str(), e.what());
    exit_code = 1;
    status = obs::kRunStatusAborted;
    reason = e.what();
    tel.events().publish("lifecycle", "abort", obs::EventSeverity::Critical,
                         sim.step_count(), reason);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario %s failed: %s\n", spec.name.c_str(), e.what());
    exit_code = 3;
    status = obs::kRunStatusFailed;
    reason = e.what();
    tel.events().publish("lifecycle", "failure", obs::EventSeverity::Critical,
                         sim.step_count(), reason);
  }
  record_row();

  // Final reduced diagnostics through the insitu registry (one code path
  // with the cadence series and the perf-report beam section). A record
  // without values means the diagnostic had nothing to measure.
  sim.insitu()->collect(sim.step_count(), sim.time(), /*force=*/true);
  const auto last_measured = [&](const char* diag) {
    const insitu::Record* r = sim.insitu()->last(diag);
    return r != nullptr && !r->values.empty() ? r : nullptr;
  };
  const insitu::Record* spectrum = last_measured("spectrum");
  const insitu::Record* beam = last_measured("beam");
  if (spectrum != nullptr && std::isnan(spectrum->value("peak_energy_J"))) {
    std::printf("beam: no particles in the spectrum window\n");
  } else if (spectrum != nullptr && beam != nullptr) {
    std::printf("beam: spectral peak %s (spread %.1f%%), %.3f pC/m, "
                "norm. emittance %.3f mm mrad, <gamma> %.1f\n",
                format_energy(spectrum->value("peak_energy_J")).c_str(),
                100 * spectrum->value("energy_spread"),
                std::abs(beam->value("charge_C")) * 1e12,
                beam->value("emit_ny_m_rad") * 1e6, beam->value("mean_gamma"));
  }

  history.write(out.path(pfx + "_history.csv"));
  diag::write_field_2d(out.path(pfx + "_field.csv"), sim.fields().E(), fields::X);
  obs::write_chrome_trace(sim.profiler(), sim.rank_recorder(),
                          out.path(pfx + "_trace.json"), spec.name);
  sim.metrics().write_jsonl(out.path(pfx + "_metrics.jsonl"));
  sim.rank_recorder().write_rank_heatmap_csv(out.path("rank_heatmap.csv"));

  // The run's one report: what the profiler measured first, then the
  // virtual cluster's model of the same steps.
  obs::PerfReportOptions ropt;
  ropt.title = spec.title.empty() ? spec.name : spec.name + " — " + spec.title;
  ropt.latency_s = cluster::CommModel{}.latency_s;
  auto report = obs::build_perf_report(sim.rank_recorder(), ropt);
  report.time = obs::time_breakdown(sim.profiler());
  report.kernel = obs::summarize_kernels(
      sim.profiler(), sim.metrics().counter_value("particles_pushed"), spec.sim.shape_order, 2,
      perf::machine_by_name("Summit"), &sim.rank_recorder());
  std::string sections = "where the time went, kernel headroom, attribution";
  if (opt.health) {
    report.health = obs::summarize_health(*sim.health());
    sim.health()->write_ledger_jsonl(out.path(pfx + "_health.jsonl"));
    sections += ", health";
  }
  if (opt.insitu) {
    report.beam = obs::summarize_insitu(*sim.insitu(), sim.insitu_stream());
    sections += ", beam physics";
  }
  if (opt.memory) {
    const auto measured = sim.measured_mr_savings();
    const auto analytic = obs::analytic_mr_savings(sim.mr_savings_inputs());
    report.memory =
        obs::summarize_memory(obs::memory_ledger(), &measured, &analytic, &sim.rank_recorder(),
                              sim.memory_obs_config().budget_bytes());
    sim.rank_recorder().write_memory_heatmap_csv(out.path("memory_heatmap.csv"));
    sections += ", memory";
  }
  obs::write_markdown(report, out.path(pfx + "_perf_report.md"));
  obs::write_json(report, out.path(pfx + "_perf_report.json"));

  tel.finish(sim, status, exit_code, reason);

  sim.profiler().report(std::cout);
  std::printf("wrote %s_{history,field}.csv, %s_trace.json, %s_metrics.jsonl, "
              "%s_perf_report.{md,json} in %s/\n",
              pfx.c_str(), pfx.c_str(), pfx.c_str(), pfx.c_str(), out.dir().c_str());
  std::printf("perf report sections: %s\n", sections.c_str());
  std::printf("run %s: status %s (%lld timeline events), manifest %s\n", tel.run_id().c_str(),
              status.c_str(), static_cast<long long>(tel.events().num_events()),
              tel.manifest_path().c_str());
  const auto& rep = sim.last_step_report();
  std::printf("last step %lld: %.3f ms wall, %lld particles, %lld cells\n",
              static_cast<long long>(rep.step), rep.wall_s * 1e3,
              static_cast<long long>(rep.particles_pushed),
              static_cast<long long>(rep.cells_advanced));
  return exit_code;
}

int run_scenario_main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  const ParseResult parsed = parse_options(argc, argv);
  if (!parsed.ok) {
    print_usage(argv[0]);
    return 2;
  }
  const RunOptions& opt = parsed.opt;
  auto& reg = ScenarioRegistry::instance();
  if (opt.list) {
    std::printf("registered scenarios (%zu):\n", reg.entries().size());
    for (const auto& e : reg.entries()) {
      std::printf("  %-18s %s\n", e.name.c_str(), e.title.c_str());
    }
    return 0;
  }
  if (opt.scenario.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  ScenarioSpec spec;
  try {
    spec = reg.make(opt.scenario);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  return run_scenario(spec, opt, out);
}

} // namespace mrpic::scenario
