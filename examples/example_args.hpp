#pragma once

// Argv parsing for resilient_lwfa, the one example driver besides
// mrpic_run (which parses its own flags in src/scenario/driver.cpp).
// --outdir is parsed by diag::OutputDir::from_args; this helper only skips
// its value. Unknown flags are rejected with a usage message and exit code
// 2 (a mistyped --helath silently ignored is a silently unmonitored run).
//
//   --health              in-situ invariant ledger + watchdog (src/health)
//   --insitu              in-situ physics registry + streaming (src/insitu)
//   --memory              byte ledger published as mem_* gauges, per-rank
//                         resident model + memory_heatmap.csv, "## Memory"
//                         perf-report section (src/obs memory observability)
//   --node-budget-gb G    per-rank memory budget for the OOM headroom gauge
//                         and first-rank-to-OOM prediction (e.g. 16 =
//                         Summit V100, 40 = Perlmutter A100; see
//                         perf::Machine::hbm_gb_device). Implies --memory.
//   <number>              t_end in femtoseconds (positional)

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/simulation.hpp"

namespace examples {

struct ExampleArgs {
  bool health = false;
  bool insitu = false;
  bool memory = false;
  double node_budget_gb = 0; // 0 = no budget configured
  double t_end = 0;          // seconds (default passed to parse, in fs)

  // Memory-observability config for core::Simulation::enable_memory_obs.
  mrpic::core::MemoryObsConfig memory_cfg() const {
    mrpic::core::MemoryObsConfig cfg;
    cfg.interval = 1;
    cfg.node_budget_gb = node_budget_gb;
    return cfg;
  }
};

inline void print_example_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [options] [t_end_fs]\n"
               "  --outdir DIR          artifact directory (default out/)\n"
               "  --health              invariant ledger + NaN/stability watchdog\n"
               "  --insitu              in-situ physics series + streaming exporter\n"
               "  --memory              byte ledger + per-rank memory model\n"
               "  --node-budget-gb G    OOM headroom vs G GiB/rank (implies --memory)\n"
               "  t_end_fs              end time in femtoseconds (positional)\n",
               prog);
}

inline ExampleArgs parse_example_args(int argc, char** argv, double default_t_end_fs) {
  ExampleArgs a;
  a.t_end = default_t_end_fs * 1e-15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--health") == 0) {
      a.health = true;
    } else if (std::strcmp(argv[i], "--insitu") == 0) {
      a.insitu = true;
    } else if (std::strcmp(argv[i], "--memory") == 0) {
      a.memory = true;
    } else if (std::strcmp(argv[i], "--node-budget-gb") == 0 && i + 1 < argc) {
      a.node_budget_gb = std::atof(argv[++i]);
      a.memory = true;
    } else if (std::strcmp(argv[i], "--outdir") == 0) {
      ++i; // value consumed by diag::OutputDir::from_args
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_example_usage(argv[0]);
      std::exit(0);
    } else if (argv[i][0] != '-') {
      a.t_end = std::atof(argv[i]) * 1e-15;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
      print_example_usage(argv[0]);
      std::exit(2);
    }
  }
  return a;
}

} // namespace examples
