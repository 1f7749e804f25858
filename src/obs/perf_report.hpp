#pragma once

// perf_report — the automated performance report over obs::analysis: per
// step the critical path (rank chain + composition), the parallel-overhead
// decomposition, straggler ranks, optionally a scaling sweep's loss terms
// and a roofline placement. Two serializations of the same report:
//
//  - Markdown (write_markdown): the human artifact — summary table, the
//    worst steps' critical-path chains, loss breakdown per node count.
//  - JSON (write_json): bench kind "attribution", schema-validated by
//    obs::benchdiff and baseline-gated in bench_smoke like every other
//    BENCH_*.json.
//
// Producers: the perf_report CLI (bench/perf_report.cpp) over a recorder
// dump, the scaling benches under --attribution, and the mrpic_run driver
// (<pfx>_perf_report.{md,json}) directly through this API.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/analysis.hpp"
#include "src/obs/memory.hpp"

namespace mrpic::health {
class HealthMonitor;
}

namespace mrpic::insitu {
class Registry;
class StreamWriter;
}

namespace mrpic::obs {

class Profiler;

// Summary of a run's simulation-health telemetry (src/health) for the perf
// report: ledger/alert counts, probe cost against the step cost (so the
// overhead of the in-situ self-diagnostics is an explicit line item, same
// idea as the paper's "light self-diagnostics" accounting), and the headline
// invariants over the sampled window.
struct HealthSection {
  bool enabled = false;
  std::int64_t samples = 0;
  std::int64_t alerts = 0;
  std::int64_t critical_alerts = 0;
  double probe_s = 0;          // total seconds inside the "health" region
  double step_s = 0;           // total seconds inside the "step" region
  double probe_overhead = 0;   // probe_s / step_s (0 when step_s == 0)
  // Relative total-energy drift between the first and last ledger sample.
  double energy_drift = std::numeric_limits<double>::quiet_NaN();
  double max_gauss_residual = std::numeric_limits<double>::quiet_NaN();
  double max_continuity_residual = std::numeric_limits<double>::quiet_NaN();
  std::int64_t nan_cells = 0;  // worst single NaN-scan result
  std::string last_alert;      // message of the most recent alert ("" = none)
};

// Collapse a monitor's history/alerts (plus the profiler's "health"/"step"
// region totals for the overhead split) into a HealthSection.
HealthSection summarize_health(const health::HealthMonitor& mon, const Profiler& prof);

// Summary of a run's in-situ physics telemetry (src/insitu) for the perf
// report: the paper's Fig. 6/7 beam deliverables as headline numbers, plus
// the diagnostics' cost against the step cost (the "insitu" profiler region)
// and the streaming exporter's volume.
struct BeamPhysicsSection {
  bool enabled = false;
  std::int64_t records = 0;     // reduced-diagnostic records collected
  double probe_s = 0;           // total seconds inside the "insitu" region
  double step_s = 0;            // total seconds inside the "step" region
  double probe_overhead = 0;    // probe_s / step_s (0 when step_s == 0)

  // Headline beam metrics: latest record of each diagnostic (NaN = that
  // diagnostic never ran).
  double emit_ny = std::numeric_limits<double>::quiet_NaN();    // [m rad]
  double beam_charge_C = std::numeric_limits<double>::quiet_NaN();
  double mean_gamma = std::numeric_limits<double>::quiet_NaN();
  double peak_energy_J = std::numeric_limits<double>::quiet_NaN();
  double energy_spread = std::numeric_limits<double>::quiet_NaN();
  double laser_a0 = std::numeric_limits<double>::quiet_NaN();
  double wakefield_V_m = std::numeric_limits<double>::quiet_NaN();
  double field_energy_J = std::numeric_limits<double>::quiet_NaN();

  // Streaming exporter (0s when streaming is off).
  std::int64_t stream_frames = 0;
  std::int64_t stream_bytes = 0;
};

// Collapse a registry's history (plus the profiler's "insitu"/"step" totals
// and, when streaming, the writer's counters) into a BeamPhysicsSection.
BeamPhysicsSection summarize_insitu(const insitu::Registry& reg, const Profiler& prof,
                                    const insitu::StreamWriter* stream = nullptr);

// Summary of a run's memory telemetry (obs::MemoryLedger) for the perf
// report: live/high-water bytes per subsystem, the measured-vs-analytic MR
// memory-savings factors (the paper's Fig. 6 affordability argument), the
// probe's own cost, and — when a recorder with resident-bytes lanes and a
// budget are supplied — the per-rank peak and first-rank-to-OOM prediction.
struct MemorySection {
  bool enabled = false;
  std::int64_t total_bytes = 0;       // ledger total at summary time
  std::int64_t high_water_bytes = 0;  // high-water of the total
  std::int64_t fields_bytes = 0;      // prefix "fields"
  std::int64_t particles_bytes = 0;   // prefix "particles"
  std::int64_t mr_bytes = 0;          // prefix "mr"
  std::int64_t pml_bytes = 0;         // prefix "pml"
  std::int64_t checkpoint_hw_bytes = 0; // high-water of "checkpoint" staging
  std::int64_t insitu_stream_bytes = 0; // "insitu.stream"
  std::int64_t alloc_count = 0;
  double probe_s = 0;                 // total seconds inside "memory" region
  double step_s = 0;                  // total seconds inside "step" region
  double probe_overhead = 0;          // probe_s / step_s (0 when step_s == 0)

  // MR savings (factor <= 0: not computed, e.g. no patch).
  MrSavings measured;
  MrSavings analytic;
  bool has_savings = false;
  // |measured.factor - analytic.factor| / analytic.factor (NaN w/o savings).
  double savings_disagreement = std::numeric_limits<double>::quiet_NaN();

  // Per-rank resident model (zeroed when no recorder lanes were fed).
  double budget_bytes = 0;            // 0 = no budget configured
  OomPrediction oom;                  // peak_bytes > 0 iff lanes existed
};

// Collapse the ledger (plus the profiler's "memory"/"step" totals) into a
// MemorySection. Optional extras: measured/analytic savings pair, and a
// recorder whose resident-bytes lanes drive the OOM prediction against
// `budget_bytes` (ignored when <= 0 except for the peak lookup).
MemorySection summarize_memory(const MemoryLedger& ledger, const Profiler& prof,
                               const MrSavings* measured = nullptr,
                               const MrSavings* analytic = nullptr,
                               const RankRecorder* rec = nullptr,
                               double budget_bytes = 0);

// Summary of a run's particle kernels for the perf report: the profiler's
// "gather"/"push"/"deposit" sub-region totals over every step, each placed
// on the machine roofline with the run's particles_pushed and the analytic
// per-particle flop and cold-cache byte models (analysis::kernel_*), plus
// the mean per-step halo overlap headroom: the "## Kernel headroom"
// measuring stick for kernel and comm/compute-overlap work.
struct KernelSection {
  bool enabled = false;
  std::string machine;                 // roofline machine name

  // Per-kernel totals placed on the machine roofline (order: gather, push,
  // deposit; kernels the profiler never timed are skipped).
  struct KernelRow {
    std::string kernel;
    std::int64_t invocations = 0;      // profiler launches
    std::int64_t particles = 0;        // the run's particles_pushed
    double time_s = 0;                 // profiler inclusive seconds
    double flops = 0;
    double bytes = 0;
    double intensity = 0;       // flops/byte (analytic model)
    double gbyte_s = 0;         // achieved bandwidth
    double roof_tflops = 0;
    double attained_tflops = 0;
    double attainment = 0;
    bool memory_bound = false;
  };
  std::vector<KernelRow> kernels;

  // Mean per-step halo phase split of the critical rank (zeros when no
  // recorder steps carried phase data).
  double mean_post_s = 0;
  double mean_wait_s = 0;
  double mean_interior_compute_s = 0;
  double mean_overlap_headroom_s = 0;
  std::int64_t overlap_steps = 0;      // recorder steps with phase data
};

// Collapse the profiler's kernel totals (each kernel runs once per pushed
// particle, so every row counts the run's `particles_pushed`) and, when
// given, a recorder's halo phase lanes into a KernelSection.
KernelSection summarize_kernels(const Profiler& prof, std::int64_t particles_pushed,
                                int shape_order, int dim, const perf::Machine& machine,
                                const RankRecorder* rec = nullptr);

struct PerfReportOptions {
  std::string title = "perf report";
  // Wire model used for the latency split (cluster::CommModel::latency_s of
  // the model the recorder was driven with).
  double latency_s = 2e-6;
  // Steps listed individually in the Markdown (worst by makespan).
  int top_steps = 5;
};

struct PerfReport {
  std::string title;
  int nranks = 0;
  double latency_s = 0;
  std::vector<analysis::CriticalPath> paths;        // one per recorded step
  analysis::CriticalPathSummary summary;
  std::vector<analysis::LossTerms> step_overhead;   // per-step decomposition
  std::vector<analysis::LossTerms> scaling_losses;  // optional sweep terms
  std::vector<analysis::KernelRoofline> roofline;   // optional placement
  std::string machine;                              // roofline machine name
  HealthSection health;                             // optional (health.enabled)
  BeamPhysicsSection beam;                          // optional (beam.enabled)
  MemorySection memory;                             // optional (memory.enabled)
  KernelSection kernel;                             // optional (kernel.enabled)
  int top_steps = 5;

  // Steps ordered by descending critical-path makespan.
  std::vector<int> worst_steps() const;
};

// Build the per-step part (critical paths + overhead decomposition) from a
// recorder. Sweep losses / roofline are attached by the caller when
// available (they need context the recorder does not carry).
PerfReport build_perf_report(const RankRecorder& rec, const PerfReportOptions& opt = {});

void write_markdown(const PerfReport& report, std::ostream& os);
bool write_markdown(const PerfReport& report, const std::string& path);
// bench kind "attribution": {"bench":"attribution","critical_path":[...],
// "loss":[...]} (loss = scaling_losses when present, else step_overhead).
void write_json(const PerfReport& report, std::ostream& os);
bool write_json(const PerfReport& report, const std::string& path);

} // namespace mrpic::obs
