#include "src/obs/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>

#include "src/dist/imbalance.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"

namespace mrpic::obs::analysis {

const char* to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::Compute: return "compute";
    case SegmentKind::Message: return "message";
    case SegmentKind::HaloResidual: return "halo";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Step DAG
// ---------------------------------------------------------------------------

StepDag build_step_dag(const RankStepBreakdown& step,
                       const std::vector<HaloMessage>& messages) {
  StepDag dag;
  dag.step = step.step;
  dag.nranks = static_cast<int>(step.ranks.size());
  dag.modeled_total_s = step.max_total_s();

  // One compute node per rank; each rank's chain starts there.
  std::vector<int> last_at_rank(step.ranks.size());
  std::vector<double> logged_comm(step.ranks.size(), 0.0);
  for (std::size_t r = 0; r < step.ranks.size(); ++r) {
    DagNode n;
    n.kind = SegmentKind::Compute;
    n.rank = static_cast<int>(r);
    n.duration_s = step.ranks[r].compute_s;
    n.start_s = 0;
    n.finish_s = n.duration_s;
    n.pred = -1;
    last_at_rank[r] = static_cast<int>(dag.nodes.size());
    dag.nodes.push_back(n);
  }

  // Messages serialize on both endpoint NICs in recorded order; a message is
  // eligible once both endpoints' previous chain nodes are done. The global
  // recorded order is a valid topological order, so one forward pass fixes
  // every start time.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const HaloMessage& m = messages[i];
    if (m.src_rank < 0 || m.src_rank >= dag.nranks || m.dst_rank < 0 ||
        m.dst_rank >= dag.nranks || m.src_rank == m.dst_rank) {
      continue;
    }
    DagNode n;
    n.kind = SegmentKind::Message;
    n.src_rank = m.src_rank;
    n.dst_rank = m.dst_rank;
    n.msg_index = static_cast<int>(i);
    n.latency_s = m.latency_s;
    n.transfer_s = m.transfer_s;
    n.retry_s = m.retry_s;
    n.duration_s = m.latency_s + m.transfer_s + m.retry_s;
    const int src_prev = last_at_rank[m.src_rank];
    const int dst_prev = last_at_rank[m.dst_rank];
    // The later-ready endpoint gates the message and becomes its critical
    // predecessor (ties resolve to the source: the data producer).
    const bool dst_gates = dag.nodes[dst_prev].finish_s > dag.nodes[src_prev].finish_s;
    n.pred = dst_gates ? dst_prev : src_prev;
    n.rank = dst_gates ? m.dst_rank : m.src_rank;
    n.start_s = dag.nodes[n.pred].finish_s;
    n.finish_s = n.start_s + n.duration_s;
    const int node = static_cast<int>(dag.nodes.size());
    dag.nodes.push_back(n);
    last_at_rank[m.src_rank] = node;
    last_at_rank[m.dst_rank] = node;
    logged_comm[m.src_rank] += n.duration_s;
    logged_comm[m.dst_rank] += n.duration_s;
  }

  // Residual halo node per rank: comm time the message log does not cover
  // (same-rank copies, or messages dropped past the recorder's cap). Keeps
  // every rank's chain length equal to its recorded compute_s + comm_s.
  for (std::size_t r = 0; r < step.ranks.size(); ++r) {
    const double residual = step.ranks[r].comm_s - logged_comm[r];
    if (residual <= 1e-15) { continue; }
    DagNode n;
    n.kind = SegmentKind::HaloResidual;
    n.rank = static_cast<int>(r);
    n.duration_s = residual;
    n.transfer_s = residual;
    n.pred = last_at_rank[r];
    n.start_s = dag.nodes[n.pred].finish_s;
    n.finish_s = n.start_s + residual;
    last_at_rank[r] = static_cast<int>(dag.nodes.size());
    dag.nodes.push_back(n);
  }

  for (std::size_t r = 0; r < step.ranks.size(); ++r) {
    const double finish = dag.nodes[last_at_rank[r]].finish_s;
    if (finish > dag.makespan_s) {
      dag.makespan_s = finish;
      dag.sink = last_at_rank[r];
    }
  }
  return dag;
}

CriticalPath critical_path(const StepDag& dag) {
  CriticalPath path;
  path.step = dag.step;
  path.makespan_s = dag.makespan_s;
  path.modeled_total_s = dag.modeled_total_s;
  if (dag.sink < 0) { return path; }

  for (int n = dag.sink; n >= 0; n = dag.nodes[n].pred) {
    path.segments.push_back(dag.nodes[n]);
  }
  std::reverse(path.segments.begin(), path.segments.end());

  for (const DagNode& n : path.segments) {
    switch (n.kind) {
      case SegmentKind::Compute:
        path.compute_s += n.duration_s;
        if (path.rank_chain.empty() || path.rank_chain.back() != n.rank) {
          path.rank_chain.push_back(n.rank);
        }
        break;
      case SegmentKind::Message:
        path.latency_s += n.latency_s;
        path.transfer_s += n.transfer_s;
        path.retry_s += n.retry_s;
        if (path.rank_chain.empty() || path.rank_chain.back() != n.src_rank) {
          path.rank_chain.push_back(n.src_rank);
        }
        if (path.rank_chain.back() != n.dst_rank) {
          path.rank_chain.push_back(n.dst_rank);
        }
        break;
      case SegmentKind::HaloResidual:
        path.transfer_s += n.duration_s;
        if (path.rank_chain.empty() || path.rank_chain.back() != n.rank) {
          path.rank_chain.push_back(n.rank);
        }
        break;
    }
  }
  return path;
}

CriticalPath critical_path(const RankStepBreakdown& step,
                           const std::vector<HaloMessage>& messages) {
  return critical_path(build_step_dag(step, messages));
}

std::vector<HaloMessage> step_messages(const RankRecorder& rec, std::int64_t step) {
  std::vector<HaloMessage> out;
  for (const auto& m : rec.messages()) {
    if (m.step == step) { out.push_back(m); }
  }
  return out;
}

std::vector<CriticalPath> critical_paths(const RankRecorder& rec) {
  // Group messages by step tag in one pass (recorder order is per-step
  // contiguous, but a map keeps this robust against interleaved tags).
  std::map<std::int64_t, std::vector<HaloMessage>> by_step;
  for (const auto& m : rec.messages()) { by_step[m.step].push_back(m); }
  static const std::vector<HaloMessage> none;
  std::vector<CriticalPath> paths;
  paths.reserve(rec.steps().size());
  for (const auto& step : rec.steps()) {
    const auto it = by_step.find(step.step);
    paths.push_back(critical_path(step, it == by_step.end() ? none : it->second));
  }
  return paths;
}

std::vector<int> CriticalPathSummary::stragglers() const {
  std::vector<int> order(critical_s_per_rank.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return critical_s_per_rank[a] > critical_s_per_rank[b];
  });
  while (!order.empty() && critical_s_per_rank[order.back()] <= 0) { order.pop_back(); }
  return order;
}

CriticalPathSummary summarize(const std::vector<CriticalPath>& paths, int nranks) {
  CriticalPathSummary s;
  s.critical_s_per_rank.assign(static_cast<std::size_t>(std::max(nranks, 0)), 0.0);
  s.finishes_per_rank.assign(static_cast<std::size_t>(std::max(nranks, 0)), 0);
  for (const auto& p : paths) {
    ++s.steps;
    s.makespan_s += p.makespan_s;
    s.compute_s += p.compute_s;
    s.transfer_s += p.transfer_s;
    s.latency_s += p.latency_s;
    s.retry_s += p.retry_s;
    for (const auto& seg : p.segments) {
      if (seg.rank >= 0 && seg.rank < nranks) {
        s.critical_s_per_rank[seg.rank] += seg.duration_s;
      }
    }
    if (!p.segments.empty()) {
      // A step ending on a message finishes where the data arrives.
      const auto& last = p.segments.back();
      const int finisher = last.kind == SegmentKind::Message ? last.dst_rank : last.rank;
      if (finisher >= 0 && finisher < nranks) { ++s.finishes_per_rank[finisher]; }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Scaling-loss decomposition
// ---------------------------------------------------------------------------

LossTerms decompose_loss(const RankStepBreakdown& step, double latency_s,
                         double ideal_s, double detect_s, double checkpoint_s) {
  LossTerms t;
  t.nodes = static_cast<double>(step.ranks.size());
  t.ideal_s = ideal_s;

  std::vector<double> compute_loads(step.ranks.size(), 0.0);
  double c_max = 0, c_sum = 0, w_max = 0;
  for (std::size_t r = 0; r < step.ranks.size(); ++r) {
    const auto& rs = step.ranks[r];
    compute_loads[r] = rs.compute_s;
    c_sum += rs.compute_s;
    if (t.compute_critical_rank < 0 || rs.compute_s > c_max) {
      c_max = rs.compute_s;
      t.compute_critical_rank = static_cast<int>(r);
    }
    if (t.comm_critical_rank < 0 || rs.comm_s > w_max) {
      w_max = rs.comm_s;
      t.comm_critical_rank = static_cast<int>(r);
    }
  }
  const double c_mean =
      step.ranks.empty() ? 0.0 : c_sum / static_cast<double>(step.ranks.size());
  t.lambda = dist::max_over_mean(compute_loads);

  const double total = c_max + w_max + detect_s + checkpoint_s;
  t.total_s = total;
  if (total <= 0 || step.ranks.empty()) {
    t.efficiency = 1;
    return t;
  }
  t.efficiency = ideal_s / total;
  t.loss = 1 - t.efficiency;

  // Split the comm-critical rank's serialized comm time exactly:
  //   W_max = messages * latency + transfer + retry
  // (comm_s accumulates latency+bytes/bw+retry per message by construction,
  // plus latency-free same-rank copies, which land in the transfer term).
  const auto& cc = step.ranks[static_cast<std::size_t>(t.comm_critical_rank)];
  const double lat = static_cast<double>(cc.messages) * latency_s;
  const double retry = cc.retry_s;
  const double xfer = cc.comm_s - lat - retry;

  t.imbalance = (c_max - c_mean) / total;
  t.latency = lat / total;
  t.comm = xfer / total;
  t.resil = (retry + detect_s + checkpoint_s) / total;
  t.residual = (c_mean - ideal_s) / total;
  return t;
}

LossTerms decompose_step_overhead(const RankStepBreakdown& step, double latency_s,
                                  double detect_s, double checkpoint_s) {
  double c_sum = 0;
  for (const auto& rs : step.ranks) { c_sum += rs.compute_s; }
  const double c_mean =
      step.ranks.empty() ? 0.0 : c_sum / static_cast<double>(step.ranks.size());
  return decompose_loss(step, latency_s, c_mean, detect_s, checkpoint_s);
}

// ---------------------------------------------------------------------------
// Roofline placement
// ---------------------------------------------------------------------------

KernelRoofline roofline_point(const std::string& kernel, double flops, double bytes,
                              const perf::Machine& m, double time_s) {
  KernelRoofline p;
  p.kernel = kernel;
  p.flops = flops;
  p.bytes = bytes;
  // Ridge point: the intensity where the memory roof meets the compute roof.
  const double ridge = m.tbyte_s_device > 0 ? m.dp_tflops_device / m.tbyte_s_device : 0;
  p.intensity = bytes > 0 ? flops / bytes : ridge;
  // TFlop/s roof at this intensity: (flops/byte) * (TByte/s) = TFlop/s.
  p.roof_tflops = std::min(m.dp_tflops_device, p.intensity * m.tbyte_s_device);
  p.memory_bound = p.intensity * m.tbyte_s_device < m.dp_tflops_device;
  if (time_s > 0) {
    p.attained_tflops = flops / time_s / 1e12;
    p.attainment = p.roof_tflops > 0 ? p.attained_tflops / p.roof_tflops : 0;
  }
  return p;
}

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::Gather: return "gather";
    case KernelKind::Push: return "push";
    case KernelKind::Deposit: return "deposit";
  }
  return "unknown";
}

double kernel_flops_per_particle(KernelKind k, int shape_order, int dim) {
  switch (k) {
    case KernelKind::Gather:
      return static_cast<double>(particles::gather_flops_per_particle(shape_order, dim));
    case KernelKind::Push:
      return static_cast<double>(particles::push_flops_per_particle());
    case KernelKind::Deposit:
      return static_cast<double>(particles::deposit_flops_per_particle(shape_order, dim));
  }
  return 0;
}

double kernel_bytes_per_particle(KernelKind k, int shape_order, int dim) {
  const double real_b = static_cast<double>(sizeof(Real));
  const double stencil_points = std::pow(static_cast<double>(shape_order + 1), dim);
  const double esirkepov_points = std::pow(static_cast<double>(shape_order + 2), dim);
  switch (k) {
    case KernelKind::Gather:
      // read x, stream 6 field components over the stencil, write 6 gathered.
      return real_b * dim + 6 * real_b * stencil_points + 6 * real_b;
    case KernelKind::Push:
      // read 6 gathered, read+write u (3), read+write x (dim).
      return 6 * real_b + 2 * 3 * real_b + 2 * real_b * dim;
    case KernelKind::Deposit:
      // read x_old + x_new, read w, RMW 3 current components over the
      // Esirkepov support.
      return 2 * real_b * dim + real_b + 6 * real_b * esirkepov_points;
  }
  return 0;
}

} // namespace mrpic::obs::analysis
