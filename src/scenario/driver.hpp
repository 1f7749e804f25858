#pragma once

// The generic scenario driver behind the `mrpic_run` binary: one run
// lifecycle (build spec -> enable observability per flags -> step loop with
// ModuleRange cadences -> reduced diagnostics + perf report artifacts) for
// every registered workload. The run ends by printing the beam summary and
// the profiler's region table to stdout.
//
//   mrpic_run --list
//   mrpic_run --scenario <name> [--steps N] [--outdir DIR] [--health]
//             [--insitu] [--memory] [--node-budget-gb G] [--kernel-obs]
//             [--no-mr] [--run-id ID] [--heartbeat N] [t_end_fs]
//
// Every run additionally emits campaign telemetry into the outdir: a
// run.json manifest (obs::RunContext, finalized atomically at exit with
// status completed/aborted/failed), an atomically-rewritten progress.json
// heartbeat with EWMA step rate + ETA, and a unified <pfx>_events.jsonl
// event timeline (health alerts, resil/checkpoint events, rebalances, run
// lifecycle). obs::campaign / the campaign_report CLI aggregate these
// across a directory of runs.

#include <string>

#include "src/diag/output_dir.hpp"
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
  bool kernel_obs = false;   // kernel-grain probes + "Kernel headroom" section
  bool no_mr = false;        // strip the spec's MR patch
  double node_budget_gb = 0; // OOM headroom budget; implies memory
  // Campaign telemetry (run manifest + event timeline are always on).
  std::string run_id;        // manifest run id ("" = generate one)
  int heartbeat = 5;         // progress.json rewrite cadence in steps (0 = off)
};

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
