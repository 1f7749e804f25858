#pragma once

// obs::analysis — the layer that turns recorded telemetry into answers
// (paper Sec. VII: *why* does efficiency drop at scale, not just *that* it
// drops). Two engines over RankRecorder data plus a roofline placement:
//
//  1. Step DAG + critical path. Each recorded step becomes a dependency
//     graph: one compute node per rank, one node per logged halo message
//     (serialized in recorded order on both endpoint NICs, eligible only
//     once both endpoints' predecessors are done), and a residual halo node
//     absorbing unlogged comm so every rank's chain length equals its
//     recorded compute_s + comm_s exactly. The longest chain through that
//     graph is the step's critical path: the rank/message sequence that
//     gates the step, with its composition split into compute, halo
//     transfer, wire latency and resil (retry) time. The DAG makespan can
//     exceed the scalar model total (max over ranks of compute+comm): a
//     cross-rank latency chain the per-rank sums cannot see.
//
//  2. Scaling-loss decomposition. For one point of a weak/strong-scaling
//     sweep, 1 - efficiency is split into imbalance, serialized comm
//     transfer, message latency, resil (retry + detection + checkpoint) and
//     a residual term. The terms are constructed from the identity
//       T = (C_max - C_mean) + (W_lat + W_xfer + W_retry) + detect + ckpt
//           + (C_mean - T_ideal) + T_ideal
//     so  loss = 1 - T_ideal/T  ==  sum of the term fractions, exactly (the
//     invariant asserted by tests/obs/test_analysis.cpp). For clean sweeps
//     (uniform per-rank work equal to the ideal) the residual is zero.
//
//  3. Roofline placement. The particle kernels (analytic flops and
//     cold-cache bytes per pushed particle) are placed against a machine's
//     Table II peaks: arithmetic intensity, the machine's roof at that
//     intensity, and — when a measured time is available — the attainment
//     fraction.
//
// perf_report.hpp packages these into Markdown/JSON reports; the scaling
// benches expose them under --attribution.

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/rank_recorder.hpp"
#include "src/perf/machine.hpp"

namespace mrpic::obs::analysis {

// ---------------------------------------------------------------------------
// 1. Step DAG + critical path
// ---------------------------------------------------------------------------

enum class SegmentKind {
  Compute,       // a rank's summed box work
  Message,       // one logged inter-rank halo message (on both NICs)
  HaloResidual,  // per-rank comm time not covered by logged messages
};

const char* to_string(SegmentKind k);

struct DagNode {
  SegmentKind kind = SegmentKind::Compute;
  int rank = -1;          // executing rank (Message: the later-ready endpoint)
  int src_rank = -1;      // Message only
  int dst_rank = -1;      // Message only
  int msg_index = -1;     // index into the step's message list (Message only)
  double duration_s = 0;
  double latency_s = 0;   // Message split: duration = latency+transfer+retry
  double transfer_s = 0;
  double retry_s = 0;
  double start_s = 0;     // earliest start given dependencies
  double finish_s = 0;    // start + duration
  int pred = -1;          // critical predecessor node index (-1 = chain start)
};

struct StepDag {
  std::int64_t step = -1;
  int nranks = 0;
  std::vector<DagNode> nodes;
  double makespan_s = 0;        // finish time of the whole step
  int sink = -1;                // node attaining the makespan
  double modeled_total_s = 0;   // max over ranks of compute_s + comm_s
};

// Build the dependency DAG of one step from its per-rank breakdown and the
// step's logged messages (obtain them with step_messages()). Messages whose
// endpoints are outside the breakdown's rank set are ignored.
StepDag build_step_dag(const RankStepBreakdown& step,
                       const std::vector<HaloMessage>& messages);

struct CriticalPath {
  std::int64_t step = -1;
  double makespan_s = 0;
  double modeled_total_s = 0;
  std::vector<DagNode> segments;  // chain start -> step finish
  // Composition of the path (sums over segments; adds up to makespan_s).
  double compute_s = 0;
  double transfer_s = 0;   // halo transfer incl. residual halo time
  double latency_s = 0;
  double retry_s = 0;      // resil overhead on the path
  std::vector<int> rank_chain;  // ranks traversed, consecutive dups removed
};

CriticalPath critical_path(const StepDag& dag);
CriticalPath critical_path(const RankStepBreakdown& step,
                           const std::vector<HaloMessage>& messages);

// Messages of one recorded step (recorder order preserved).
std::vector<HaloMessage> step_messages(const RankRecorder& rec, std::int64_t step);

// One critical path per recorded step.
std::vector<CriticalPath> critical_paths(const RankRecorder& rec);

// Aggregate composition over many steps plus per-rank evidence.
struct CriticalPathSummary {
  int steps = 0;
  double makespan_s = 0;
  double compute_s = 0;
  double transfer_s = 0;
  double latency_s = 0;
  double retry_s = 0;
  // Seconds each rank spends on a critical path / number of steps whose
  // path finishes on the rank (straggler evidence; indexed by rank).
  std::vector<double> critical_s_per_rank;
  std::vector<int> finishes_per_rank;
  // Ranks ordered by descending critical-path seconds.
  std::vector<int> stragglers() const;
};

CriticalPathSummary summarize(const std::vector<CriticalPath>& paths, int nranks);

// ---------------------------------------------------------------------------
// 2. Scaling-loss decomposition
// ---------------------------------------------------------------------------

// One node count's share of the efficiency loss. All terms are fractions of
// the modeled step time T; by construction
//   loss = 1 - efficiency = imbalance + comm + latency + resil + residual
// exactly (see decompose_loss).
struct LossTerms {
  double nodes = 0;
  double total_s = 0;       // T: C_max + W_max + detect + checkpoint
  double ideal_s = 0;       // perfectly-scaled time at this point
  double efficiency = 0;    // ideal_s / total_s
  double loss = 0;          // 1 - efficiency
  double imbalance = 0;     // (C_max - C_mean) / T
  double comm = 0;          // serialized transfer on the comm-critical rank
  double latency = 0;       // per-message wire latency on that rank
  double resil = 0;         // retries + failure detection + checkpoints
  double residual = 0;      // (C_mean - ideal_s) / T; 0 for clean sweeps
  double lambda = 1;        // max/mean compute (dist::max_over_mean)
  int compute_critical_rank = -1;
  int comm_critical_rank = -1;

  double sum() const { return imbalance + comm + latency + resil + residual; }
  double invariant_gap() const { return sum() - loss; }
};

// Decompose one sweep point. `latency_s` is the wire model's per-message
// latency (cluster::CommModel::latency_s); `ideal_s` the perfectly-scaled
// step time (weak scaling: the base point's total; strong scaling: base
// total * base_nodes/nodes); `detect_s`/`checkpoint_s` the resil charges on
// the step (cluster::StepCost::detect_s, measured checkpoint seconds).
LossTerms decompose_loss(const RankStepBreakdown& step, double latency_s,
                         double ideal_s, double detect_s = 0, double checkpoint_s = 0);

// Run-level variant: ideal = mean compute over ranks, so the loss is the
// step's parallel-overhead fraction (imbalance + comm + latency + resil)
// with residual identically zero.
LossTerms decompose_step_overhead(const RankStepBreakdown& step, double latency_s,
                                  double detect_s = 0, double checkpoint_s = 0);

// ---------------------------------------------------------------------------
// 3. Roofline placement
// ---------------------------------------------------------------------------

struct KernelRoofline {
  std::string kernel;
  double flops = 0;           // total floating-point operations
  double bytes = 0;           // total DRAM traffic
  double intensity = 0;       // flops/byte
  double roof_tflops = 0;     // min(peak, intensity * bandwidth)
  bool memory_bound = false;  // intensity below the machine's ridge point
  double attained_tflops = 0; // flops / time (when a time is given)
  double attainment = 0;      // attained_tflops / roof_tflops
};

KernelRoofline roofline_point(const std::string& kernel, double flops, double bytes,
                              const perf::Machine& m, double time_s = 0);

// The particle pass's three kernels, in step order; kernel_kind_name is the
// name of each one's profiler sub-region of "particles".
enum class KernelKind { Gather = 0, Push = 1, Deposit = 2 };
inline constexpr int kNumKernelKinds = 3;

const char* kernel_kind_name(KernelKind k);

// Analytic flops per particle (wraps the particles:: kernel counts).
double kernel_flops_per_particle(KernelKind k, int shape_order, int dim);

// Analytic cold-cache bytes per particle (Real = 8 B; P = (order+1)^dim
// stencil points, Q = (order+2)^dim Esirkepov support):
//   gather:  read x (8*dim), stream 6 field components over P stencil cells
//            (48*P), write 6 gathered values (48)        -> 8*dim + 48*P + 48
//   push:    read 6 gathered (48), read+write u (2*24), read+write x
//            (2*8*dim)                                    -> 96 + 16*dim
//   deposit: read x_old + x_new (16*dim), read w (8), read-modify-write 3
//            current components over Q cells (48*Q)       -> 16*dim + 8 + 48*Q
// A per-particle closed form, so a kernel's intensity is exact and the gap
// between modeled and achieved bandwidth is the cache headroom.
double kernel_bytes_per_particle(KernelKind k, int shape_order, int dim);

} // namespace mrpic::obs::analysis
