#pragma once

// The generic scenario driver behind the `mrpic_run` binary: one run
// lifecycle (build spec -> enable observability per flags -> step loop with
// ModuleRange cadences -> reduced diagnostics + perf report artifacts) for
// every registered workload. The run ends by printing the beam summary and
// the profiler's region table to stdout.
//
//   mrpic_run --list
//   mrpic_run --scenario <name> [--steps N] [--outdir DIR] [--health]
//             [--insitu] [--memory] [--node-budget-gb G] [--no-mr]
//             [--run-id ID] [--heartbeat N] [t_end_fs]
//
// Every run additionally emits campaign telemetry into the outdir: a
// run.json manifest (obs::RunContext, finalized atomically at exit with
// status completed/aborted/failed), an atomically-rewritten progress.json
// heartbeat with EWMA step rate + ETA, and a unified <pfx>_events.jsonl
// event timeline (health alerts, resil/checkpoint events, rebalances, run
// lifecycle). obs::campaign / the campaign_report CLI aggregate these
// across a directory of runs.

#include <memory>
#include <string>

#include "src/diag/output_dir.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/heartbeat.hpp"
#include "src/obs/run_manifest.hpp"
#include "src/scenario/scenario_spec.hpp"

namespace mrpic::scenario {

struct RunOptions {
  std::string scenario;      // registry name (empty + !list = usage error)
  bool list = false;         // print the registry and exit
  std::int64_t steps = 0;    // step-count limit (0 = run to t_end)
  double t_end_fs = 0;       // end time override [fs] (0 = spec default)
  bool health = false;       // invariant ledger + watchdog (src/health)
  bool insitu = false;       // physics registry + streaming (src/insitu)
  bool memory = false;       // byte ledger + per-rank model (src/obs/memory)
  bool no_mr = false;        // strip the spec's MR patch
  double node_budget_gb = 0; // OOM headroom budget; implies memory
  // Campaign telemetry (run manifest + event timeline are always on).
  std::string run_id;        // manifest run id ("" = generate one)
  int heartbeat = 5;         // progress.json rewrite cadence in steps (0 = off)
};

// The run-telemetry trio every run carries, whatever its flags: the run.json
// manifest (obs::RunContext), the progress.json heartbeat every
// opt.heartbeat steps and the <pfx>_events.jsonl timeline. Non-movable (the
// event log owns a mutex); construct in place.
class RunTelemetry {
public:
  RunTelemetry(const ScenarioSpec& spec, const RunOptions& opt, const diag::OutputDir& out);

  // Write the "running" manifest and publish the run_start event.
  void start();
  // Heartbeat after one completed step.
  void after_step(const core::Simulation<2>& sim);
  // Publish run_end, then finalize the heartbeat and the manifest.
  void finish(const core::Simulation<2>& sim, const std::string& status, int exit_code,
              const std::string& reason);

  const std::string& run_id() const { return m_run_id; }
  const std::string& manifest_path() const { return m_context.path(); }
  obs::EventLog& events() { return m_events; }

  // Severity of the latest health alert, shown in progress.json ("" = none).
  std::string last_alert_severity;

private:
  std::string m_run_id;
  obs::RunContext m_context;
  obs::EventLog m_events;
  obs::ProgressHeartbeat m_heartbeat;
};

// Build `spec` and attach every observer `opt` asks for, the one set-up
// behind both mrpic_run and bench_observers: cluster observation, trace
// profiling and `tel`'s event log always; the byte ledger every step
// (memory), health at the spec's cadences, and the insitu series and stream
// at the spec's cadences under `out` (insitu; without it the registry stays
// armed with every cadence off, for the final beam summary). Returns the
// initialized simulation.
std::unique_ptr<core::Simulation<2>> build_observed_simulation(const ScenarioSpec& spec,
                                                               const RunOptions& opt,
                                                               const diag::OutputDir& out,
                                                               RunTelemetry& tel);

// Print the mrpic_run usage text to stderr.
void print_usage(const char* prog);

// Execute one scenario run end to end. Artifacts land in `out` under
// spec.output_prefix. Returns the process exit code (0 = completed,
// 1 = aborted by a health watchdog alert, 3 = failed on an unexpected
// exception); run.json records the matching status either way.
int run_scenario(const ScenarioSpec& spec, const RunOptions& opt,
                 const diag::OutputDir& out);

// Full driver main: parse argv (including --outdir via diag::OutputDir),
// handle --list, look up the scenario and run it.
int run_scenario_main(int argc, char** argv);

} // namespace mrpic::scenario
