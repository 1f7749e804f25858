// perf_report — the automated attribution-report CLI over a recorder dump
// (the {"format":"mrpic-ranks"} JSON written by obs::write_recorder_json,
// e.g. lwfa_mr_ranks.json from `mrpic_run --scenario lwfa_mr`).
//
//   perf_report [options] RANKS.json
//
// Builds the step DAGs, extracts per-step critical paths (rank chain +
// compute/transfer/latency/resil composition), decomposes each step's
// parallel overhead into terms that sum to the loss exactly, and emits the
// report as Markdown and/or bench-kind "attribution" JSON (schema-checkable
// with `bench_compare --schema`).
//
// Options:
//   --title S     report title (default: the input file name)
//   --latency X   wire latency per message in seconds used for the
//                 latency/transfer split (default: Summit's net latency)
//   --machine M   machine whose latency to use instead (Table II name)
//   --top N       steps listed individually in the Markdown (default 5)
//   --md FILE     write the Markdown report here (default: stdout)
//   --json FILE   also write the attribution JSON here

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/obs/perf_report.hpp"
#include "src/obs/rank_recorder_io.hpp"
#include "src/perf/machine.hpp"

using namespace mrpic;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--title S] [--latency X | --machine M] [--top N] \\\n"
               "          [--md FILE] [--json FILE] RANKS.json\n",
               argv0);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  obs::PerfReportOptions opt;
  opt.title.clear();
  opt.latency_s = perf::machine_by_name("Summit").net_latency_s;
  std::string md_path, json_path, input;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_report: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--title") {
      opt.title = need_value("--title");
    } else if (a == "--latency") {
      opt.latency_s = std::atof(need_value("--latency"));
    } else if (a == "--machine") {
      try {
        opt.latency_s = perf::machine_by_name(need_value("--machine")).net_latency_s;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perf_report: %s\n", e.what());
        return 2;
      }
    } else if (a == "--top") {
      opt.top_steps = std::atoi(need_value("--top"));
    } else if (a == "--md") {
      md_path = need_value("--md");
    } else if (a == "--json") {
      json_path = need_value("--json");
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "perf_report: unknown option %s\n", a.c_str());
      return usage(argv[0]);
    } else if (input.empty()) {
      input = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) { return usage(argv[0]); }
  if (opt.title.empty()) { opt.title = "perf report: " + input; }

  obs::RankRecorder rec(0);
  try {
    rec = obs::read_recorder_file(input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_report: %s\n", e.what());
    return 2;
  }

  const auto report = obs::build_perf_report(rec, opt);
  if (!md_path.empty()) {
    if (!obs::write_markdown(report, md_path)) {
      std::fprintf(stderr, "perf_report: cannot write %s\n", md_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", md_path.c_str());
  } else {
    obs::write_markdown(report, std::cout);
  }
  if (!json_path.empty()) {
    if (!obs::write_json(report, json_path)) {
      std::fprintf(stderr, "perf_report: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
