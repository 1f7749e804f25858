#pragma once

// perf_report — one run's performance report. It opens with what the run
// measured: where the profiler's wall time went ("## Where the time went")
// and the particle kernels' time on the roofline ("## Kernel headroom").
// The modelled part follows, over obs::analysis and the virtual cluster's
// recorder: per step the critical path (rank chain + composition), the
// parallel-overhead decomposition, straggler ranks and optionally a scaling
// sweep's loss terms. Two serializations of the same report:
//
//  - Markdown (write_markdown): the human artifact, bounded in size whatever
//    the step count: the measured tables, the composition and straggler
//    tables, the worst steps plus the median step, loss breakdown per node
//    count.
//  - JSON (write_json): bench kind "attribution", schema-validated by
//    obs::benchdiff and baseline-gated in bench_smoke like every other
//    BENCH_*.json. It keeps one critical-path and one loss record per step.
//
// Producers: the mrpic_run driver (<pfx>_perf_report.{md,json}) and the
// scaling benches under --attribution, whose recorder-only reports carry no
// measured sections.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
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
// report: ledger/alert counts and the headline invariants over the sampled
// window. The probe's cost is the "health" row of the report's time table.
struct HealthSection {
  bool enabled = false;
  std::int64_t samples = 0;
  std::int64_t alerts = 0;
  std::int64_t critical_alerts = 0;
  // Relative total-energy drift between the first and last ledger sample.
  double energy_drift = std::numeric_limits<double>::quiet_NaN();
  double max_gauss_residual = std::numeric_limits<double>::quiet_NaN();
  double max_continuity_residual = std::numeric_limits<double>::quiet_NaN();
  std::int64_t nan_cells = 0;  // worst single NaN-scan result
  std::string last_alert;      // message of the most recent alert ("" = none)
};

// Collapse a monitor's history/alerts into a HealthSection.
HealthSection summarize_health(const health::HealthMonitor& mon);

// Summary of a run's in-situ physics telemetry (src/insitu) for the perf
// report: the paper's Fig. 6/7 beam deliverables as headline numbers, plus
// the streaming exporter's volume. The diagnostics' cost is the "insitu"
// row of the report's time table.
struct BeamPhysicsSection {
  bool enabled = false;
  std::int64_t records = 0;     // reduced-diagnostic records collected

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

// Collapse a registry's history (and, when streaming, the writer's
// counters) into a BeamPhysicsSection.
BeamPhysicsSection summarize_insitu(const insitu::Registry& reg,
                                    const insitu::StreamWriter* stream = nullptr);

// Summary of a run's memory telemetry (obs::MemoryLedger) for the perf
// report: live/high-water bytes per subsystem, the measured-vs-analytic MR
// memory-savings factors (the paper's Fig. 6 affordability argument), and —
// when a recorder with resident-bytes lanes and a budget are supplied — the
// per-rank peak and first-rank-to-OOM prediction. The probe's cost is the
// "memory" row of the report's time table.
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

// Collapse the ledger into a MemorySection. Optional extras:
// measured/analytic savings pair, and a recorder whose resident-bytes lanes
// drive the OOM prediction against `budget_bytes` (ignored when <= 0 except
// for the peak lookup).
MemorySection summarize_memory(const MemoryLedger& ledger,
                               const MrSavings* measured = nullptr,
                               const MrSavings* analytic = nullptr,
                               const RankRecorder* rec = nullptr,
                               double budget_bytes = 0);

// Summary of a run's particle kernels for the perf report: the profiler's
// "gather"/"push"/"deposit" sub-region totals over every step, each placed
// on the machine roofline with the run's particles_pushed and the analytic
// per-particle flop and cold-cache byte models (analysis::kernel_*), plus
// the mean per-step halo overlap headroom of the virtual cluster: the
// "## Kernel headroom" measuring stick for kernel and comm/compute-overlap
// work, and the report's only roofline.
struct KernelSection {
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

  // Mean per-step halo phase split of the virtual cluster's critical rank
  // (modelled; zeros when no recorder steps carried phase data).
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

// One row of "## Where the time went": a profiler region's inclusive
// seconds over the run, per step and as a share of the "step" region.
struct TimeRegion {
  std::string region;          // region name, or "step (unattributed)"
  std::string parent;          // enclosing region ("" for a root)
  double seconds = 0;          // inclusive seconds over the run
  std::int64_t count = 0;      // completed launches (0 for unattributed)
  double ms_per_step = 0;      // seconds / steps, in ms
  double share = 0;            // seconds / step_s
};

// Where a run's wall time went, from the profiler's call tree. Rows, in
// order: "step"; each region directly under "step" (by descending time),
// each followed by its own sub-regions (e.g. particles' gather, push and
// deposit, field_solve's exchange, fdtd, pml and patch); "step
// (unattributed)", the step's time outside every sub-region, so the rows
// whose parent is "step" sum to "step" exactly; then any other root region
// (e.g. "checkpoint"). Without a "step" region, steps and step_s are 0, as
// are every row's ms_per_step and share.
struct TimeBreakdown {
  std::int64_t steps = 0;      // "step" launches
  double step_s = 0;           // "step" inclusive seconds
  std::vector<TimeRegion> regions;

  // Seconds of the first row named `region` (0 when absent).
  double seconds(std::string_view region) const;
};

TimeBreakdown time_breakdown(const Profiler& prof);

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
  // Measured, from the run's profiler: "## Where the time went" and
  // "## Kernel headroom", printed when `time` holds any region. A
  // recorder-only report (the scaling benches) carries neither.
  TimeBreakdown time;
  KernelSection kernel;
  // Modelled, from the virtual cluster's recorder.
  std::vector<analysis::CriticalPath> paths;        // one per recorded step
  analysis::CriticalPathSummary summary;
  std::vector<analysis::LossTerms> step_overhead;   // per-step decomposition
  std::vector<analysis::LossTerms> scaling_losses;  // optional sweep terms
  // The observers' summaries.
  HealthSection health;                             // optional (health.enabled)
  BeamPhysicsSection beam;                          // optional (beam.enabled)
  MemorySection memory;                             // optional (memory.enabled)
  int top_steps = 5;

  bool measured() const { return !time.regions.empty(); }
  // Steps ordered by descending critical-path makespan.
  std::vector<int> worst_steps() const;
};

// Build the modelled per-step part (critical paths + overhead
// decomposition) from a recorder. The measured sections and sweep losses
// are attached by the caller when available (they need context the
// recorder does not carry).
PerfReport build_perf_report(const RankRecorder& rec, const PerfReportOptions& opt = {});

void write_markdown(const PerfReport& report, std::ostream& os);
bool write_markdown(const PerfReport& report, const std::string& path);
// bench kind "attribution": {"bench":"attribution","critical_path":[...],
// "loss":[...]} (loss = scaling_losses when present, else step_overhead).
void write_json(const PerfReport& report, std::ostream& os);
bool write_json(const PerfReport& report, const std::string& path);

} // namespace mrpic::obs
