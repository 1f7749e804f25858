#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/cluster/sim_cluster.hpp"
#include "src/dist/distribution_mapping.hpp"
#include "src/obs/analysis.hpp"
#include "src/obs/rank_recorder.hpp"
#include "src/perf/machine.hpp"
#include "src/perf/scaling_model.hpp"

namespace mrpic::obs::analysis {
namespace {

// Three ranks; rank 0 is compute-heavy, messages relay 0 -> 1 -> 2 so the
// latency chain crosses ranks.
RankStepBreakdown make_breakdown() {
  RankStepBreakdown bd;
  bd.step = 7;
  bd.ranks.resize(3);
  for (int r = 0; r < 3; ++r) { bd.ranks[r].rank = r; }
  bd.ranks[0].compute_s = 1.0;
  bd.ranks[1].compute_s = 0.2;
  bd.ranks[2].compute_s = 0.1;
  bd.ranks[0].comm_s = 0.1;
  bd.ranks[1].comm_s = 0.2;
  bd.ranks[2].comm_s = 0.1;
  bd.ranks[0].messages = 1;
  bd.ranks[1].messages = 2;
  bd.ranks[2].messages = 1;
  return bd;
}

std::vector<HaloMessage> make_messages() {
  HaloMessage a; // 0 -> 1
  a.step = 7;
  a.src_rank = 0;
  a.dst_rank = 1;
  a.latency_s = 0.02;
  a.transfer_s = 0.08;
  HaloMessage b; // 1 -> 2
  b.step = 7;
  b.src_rank = 1;
  b.dst_rank = 2;
  b.latency_s = 0.02;
  b.transfer_s = 0.08;
  return {a, b};
}

TEST(AnalysisDag, ChainLengthEqualsRecordedPerRankTime) {
  const auto bd = make_breakdown();
  const auto dag = build_step_dag(bd, make_messages());
  // Per-rank chain length (finish of the rank's last node) must equal the
  // recorded compute_s + comm_s exactly; residual nodes absorb any comm the
  // message log does not cover.
  std::vector<double> finish(3, 0.0);
  for (const auto& n : dag.nodes) {
    if (n.kind == SegmentKind::Message) {
      finish[n.src_rank] = std::max(finish[n.src_rank], n.finish_s);
      finish[n.dst_rank] = std::max(finish[n.dst_rank], n.finish_s);
    } else {
      finish[n.rank] = std::max(finish[n.rank], n.finish_s);
    }
  }
  // Rank 0: compute 1.0, then message a (0.1) -> 1.1. Rank 1: a gated by
  // rank 0 finishes 1.1, then b -> 1.2, residual absorbs nothing (logged
  // 0.2 == comm_s). Rank 2: compute 0.1, b finishes 1.2.
  EXPECT_DOUBLE_EQ(finish[0], 1.1);
  EXPECT_DOUBLE_EQ(finish[1], 1.2);
  EXPECT_DOUBLE_EQ(finish[2], 1.2);
  // The relayed latency chain pushes the makespan past the scalar model
  // total max(compute + comm) = 1.1 — the effect only the DAG can see.
  EXPECT_DOUBLE_EQ(dag.modeled_total_s, 1.1);
  EXPECT_DOUBLE_EQ(dag.makespan_s, 1.2);
}

TEST(AnalysisDag, ResidualNodeCoversUnloggedComm) {
  auto bd = make_breakdown();
  bd.ranks[2].comm_s = 0.35; // 0.1 logged via message b + 0.25 residual
  const auto dag = build_step_dag(bd, make_messages());
  double residual = 0;
  for (const auto& n : dag.nodes) {
    if (n.kind == SegmentKind::HaloResidual) {
      EXPECT_EQ(n.rank, 2);
      residual += n.duration_s;
    }
  }
  EXPECT_NEAR(residual, 0.25, 1e-15);
}

TEST(AnalysisDag, MessagesSerializeOnTheNic) {
  RankStepBreakdown bd;
  bd.ranks.resize(2);
  bd.ranks[0].comm_s = 0.2;
  bd.ranks[1].comm_s = 0.2;
  HaloMessage m;
  m.src_rank = 0;
  m.dst_rank = 1;
  m.latency_s = 0.02;
  m.transfer_s = 0.08;
  const auto dag = build_step_dag(bd, {m, m});
  std::vector<const DagNode*> msgs;
  for (const auto& n : dag.nodes) {
    if (n.kind == SegmentKind::Message) { msgs.push_back(&n); }
  }
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_DOUBLE_EQ(msgs[0]->finish_s, 0.1);
  EXPECT_DOUBLE_EQ(msgs[1]->start_s, 0.1); // second send waits for the NIC
  EXPECT_DOUBLE_EQ(dag.makespan_s, 0.2);
}

TEST(AnalysisCriticalPath, CompositionSumsToMakespan) {
  const auto path = critical_path(make_breakdown(), make_messages());
  EXPECT_DOUBLE_EQ(path.makespan_s, 1.2);
  EXPECT_NEAR(path.compute_s + path.transfer_s + path.latency_s + path.retry_s,
              path.makespan_s, 1e-12);
  // The gating chain: rank 0's compute, message 0->1, message 1->2.
  EXPECT_DOUBLE_EQ(path.compute_s, 1.0);
  EXPECT_DOUBLE_EQ(path.latency_s, 0.04);
  EXPECT_DOUBLE_EQ(path.transfer_s, 0.16);
  ASSERT_FALSE(path.rank_chain.empty());
  EXPECT_EQ(path.rank_chain.front(), 0);
  EXPECT_EQ(path.rank_chain.back(), 2);
}

TEST(AnalysisCriticalPath, SummaryAggregatesAndRanksStragglers) {
  RankRecorder rec(3);
  rec.set_step(0);
  rec.add_step(make_breakdown(), make_messages());
  const auto paths = critical_paths(rec);
  ASSERT_EQ(paths.size(), 1u);
  const auto s = summarize(paths, rec.nranks());
  EXPECT_EQ(s.steps, 1);
  EXPECT_DOUBLE_EQ(s.makespan_s, 1.2);
  const auto order = s.stragglers();
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), 0); // rank 0's 1.0 s compute dominates the path
  EXPECT_EQ(s.finishes_per_rank[2], 1);
}

TEST(AnalysisLoss, StepOverheadTermsSumExactlyWithZeroResidual) {
  const auto t = decompose_step_overhead(make_breakdown(), 0.02);
  // ideal = mean compute -> residual is identically zero.
  EXPECT_DOUBLE_EQ(t.residual, 0.0);
  EXPECT_NEAR(t.invariant_gap(), 0.0, 1e-15);
  EXPECT_EQ(t.compute_critical_rank, 0);
  EXPECT_EQ(t.comm_critical_rank, 1);
  // T = C_max + W_max = 1.0 + 0.2; lambda = 1.0 / (1.3/3).
  EXPECT_DOUBLE_EQ(t.total_s, 1.2);
  EXPECT_NEAR(t.lambda, 1.0 / (1.3 / 3.0), 1e-12);
  // Latency term: comm-critical rank has 2 messages * 0.02 s.
  EXPECT_NEAR(t.latency * t.total_s, 0.04, 1e-15);
}

TEST(AnalysisLoss, ResilTermsChargeDetectAndCheckpoint) {
  const auto t = decompose_loss(make_breakdown(), 0.02, /*ideal_s=*/1.0,
                                /*detect_s=*/0.1, /*checkpoint_s=*/0.2);
  EXPECT_DOUBLE_EQ(t.total_s, 1.5); // 1.0 + 0.2 + 0.1 + 0.2
  EXPECT_NEAR(t.resil * t.total_s, 0.3, 1e-15);
  EXPECT_NEAR(t.invariant_gap(), 0.0, 1e-12);
}

// Acceptance gate (run as the `attribution_invariant` ctest): on the weak-
// and strong-scaling recorder sweeps the loss terms must sum to
// 1 - efficiency within 1e-9 at every node count.
TEST(AttributionInvariant, WeakScalingSweepTermsSumToLoss) {
  const auto& summit = perf::machine_by_name("Summit");
  cluster::CommModel cm;
  cm.latency_s = summit.net_latency_s;
  cm.bandwidth_Bps = summit.net_bandwidth_Bps;
  perf::StepTimeModel st;
  const double comp = st.node_seconds(summit, 64.0 * 64 * 64, 64.0 * 64 * 64) *
                      summit.devices_per_node;
  obs::RankRecorder recorder(64);
  std::vector<double> totals;
  double t1 = 0;
  int sweep_point = 0;
  for (int rpd : {1, 2, 3, 4}) {
    const int nranks = rpd * rpd * rpd;
    const Box3 domain(IntVect3(0, 0, 0),
                      IntVect3(64 * rpd - 1, 64 * rpd - 1, 64 * rpd - 1));
    const auto ba = BoxArray<3>::decompose(domain, 64);
    const auto dm =
        dist::DistributionMapping::make(ba, nranks, dist::Strategy::SpaceFillingCurve);
    cluster::SimCluster cl(nranks, cm);
    recorder.set_step(sweep_point++);
    const auto cost =
        cl.step_cost(ba, dm, std::vector<Real>(ba.size(), comp), 9, 4, 8, &recorder);
    if (rpd == 1) { t1 = cost.total_s; }
    totals.push_back(cost.total_s);
  }
  ASSERT_EQ(recorder.steps().size(), 4u);
  for (std::size_t i = 0; i < recorder.steps().size(); ++i) {
    const auto t = decompose_loss(recorder.steps()[i], cm.latency_s, t1);
    // The decomposition reconstructs the scalar model's step time and
    // efficiency, and its terms sum to the loss within 1e-9 (acceptance
    // tolerance; the identity is exact up to FP rounding).
    EXPECT_NEAR(t.total_s, totals[i], 1e-12 * totals[i]);
    EXPECT_NEAR(t.efficiency, t1 / totals[i], 1e-9);
    EXPECT_LT(std::abs(t.invariant_gap()), 1e-9);
    // Clean weak-scaling sweep: uniform per-box work, one box per rank.
    EXPECT_NEAR(t.residual, 0.0, 1e-12);
    EXPECT_NEAR(t.imbalance, 0.0, 1e-12);
  }
}

TEST(AttributionInvariant, StrongScalingSweepTermsSumToLoss) {
  const auto& summit = perf::machine_by_name("Summit");
  cluster::CommModel cm;
  cm.latency_s = summit.net_latency_s;
  cm.bandwidth_Bps = summit.net_bandwidth_Bps;
  const Box3 domain(IntVect3(0, 0, 0), IntVect3(127, 127, 127));
  const auto ba = BoxArray<3>::decompose(domain, 32);
  perf::StepTimeModel st;
  const double box_comp =
      st.node_seconds(summit, 32.0 * 32 * 32, 32.0 * 32 * 32) * summit.devices_per_node;
  obs::RankRecorder recorder(64);
  double t1 = 0;
  int sweep_point = 0;
  std::vector<int> rank_counts = {1, 2, 4, 8, 16, 32, 64};
  for (int nranks : rank_counts) {
    const auto dm =
        dist::DistributionMapping::make(ba, nranks, dist::Strategy::SpaceFillingCurve);
    cluster::SimCluster cl(nranks, cm);
    recorder.set_step(sweep_point++);
    const auto cost =
        cl.step_cost(ba, dm, std::vector<Real>(ba.size(), box_comp), 9, 4, 8, &recorder);
    if (nranks == 1) { t1 = cost.total_s; }
  }
  for (std::size_t i = 0; i < recorder.steps().size(); ++i) {
    const auto t =
        decompose_loss(recorder.steps()[i], cm.latency_s, t1 / rank_counts[i]);
    EXPECT_LT(std::abs(t.invariant_gap()), 1e-9) << "point " << i;
    EXPECT_GT(t.efficiency, 0.0);
  }
}

TEST(AnalysisRoofline, PlacementAgainstMachinePeaks) {
  const auto& m = perf::machine_by_name("Summit");
  // Low intensity: memory bound, roof = intensity * bandwidth.
  const auto low = roofline_point("gather", 1e9, 1e9, m);
  EXPECT_DOUBLE_EQ(low.intensity, 1.0);
  EXPECT_TRUE(low.memory_bound);
  EXPECT_DOUBLE_EQ(low.roof_tflops, m.tbyte_s_device);
  // High intensity: compute bound, roof = device peak.
  const auto high = roofline_point("dense", 1e12, 1e6, m);
  EXPECT_FALSE(high.memory_bound);
  EXPECT_DOUBLE_EQ(high.roof_tflops, m.dp_tflops_device);
  // Attainment: attained/roof from a measured time.
  const auto timed = roofline_point("gather", 1e12, 1e12, m, /*time_s=*/1.0);
  EXPECT_NEAR(timed.attained_tflops, 1.0, 1e-12);
  EXPECT_NEAR(timed.attainment, 1.0 / timed.roof_tflops, 1e-12);
}

} // namespace
} // namespace mrpic::obs::analysis
