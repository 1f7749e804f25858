#include <gtest/gtest.h>

#include <cmath>

#include "src/perf/fom.hpp"
#include "src/perf/machine.hpp"
#include "src/perf/op_counts.hpp"
#include "src/perf/scaling_model.hpp"

namespace mrpic::perf {
namespace {

TEST(Machine, CatalogueMatchesPaperTableII) {
  const auto& cat = catalogue();
  ASSERT_EQ(cat.size(), 4u);
  const auto& frontier = machine_by_name("Frontier");
  EXPECT_EQ(frontier.device, "MI250X");
  EXPECT_DOUBLE_EQ(frontier.dp_tflops_device, 47.9);
  EXPECT_DOUBLE_EQ(frontier.sp_tflops_device, 95.7);
  EXPECT_DOUBLE_EQ(frontier.tbyte_s_device, 3.3);
  EXPECT_LT(frontier.hpcg_pflops, 0); // "not yet available"

  const auto& fugaku = machine_by_name("Fugaku");
  EXPECT_DOUBLE_EQ(fugaku.dp_tflops_device, 3.38);
  EXPECT_DOUBLE_EQ(fugaku.hpcg_pflops, 16.0);
  EXPECT_EQ(fugaku.total_nodes, 158976);

  EXPECT_DOUBLE_EQ(machine_by_name("Summit").hpcg_pflops, 2.93);
  EXPECT_DOUBLE_EQ(machine_by_name("Perlmutter").tbyte_s_device, 1.6);
  EXPECT_THROW(machine_by_name("Aurora"), std::invalid_argument);
}

TEST(WeakScalingModel, HitsCalibrationAnchors) {
  for (const auto& m : catalogue()) {
    const auto model = WeakScalingModel::for_machine(m);
    EXPECT_NEAR(model.efficiency(m.weak.nodes_early), m.weak.eff_early, 1e-9) << m.name;
    EXPECT_NEAR(model.efficiency(m.weak.nodes_full), m.weak.eff_full, 1e-9) << m.name;
  }
}

TEST(WeakScalingModel, MonotoneDecreasingFromOne) {
  const auto model = WeakScalingModel::for_machine(machine_by_name("Summit"));
  EXPECT_DOUBLE_EQ(model.efficiency(1), 1.0);
  double prev = 1.0;
  for (double n : {2.0, 8.0, 64.0, 512.0, 4096.0}) {
    const double e = model.efficiency(n);
    EXPECT_LT(e, prev + 1e-12);
    EXPECT_GT(e, 0.5);
    prev = e;
  }
}

TEST(WeakScalingModel, SummitEarlyDropReproduced) {
  // Paper: "a 15% loss in efficiency from 2-8 nodes" on Summit.
  const auto model = WeakScalingModel::for_machine(machine_by_name("Summit"));
  EXPECT_NEAR(model.efficiency(8), 0.85, 0.01);
  // Frontier/Fugaku stay close to ideal at small scale.
  const auto frontier = WeakScalingModel::for_machine(machine_by_name("Frontier"));
  EXPECT_GT(frontier.efficiency(64), 0.95);
}

TEST(StrongScalingModel, ThirtyPercentLossPerDecade) {
  StrongScalingModel m;
  EXPECT_DOUBLE_EQ(m.efficiency(512, 512), 1.0);
  EXPECT_NEAR(m.efficiency(5120, 512), 0.70, 0.001);
  EXPECT_GT(m.speedup(5120, 512), 1.0);
  // Speedup still grows with nodes despite the efficiency loss.
  EXPECT_GT(m.speedup(8192, 512), m.speedup(1024, 512));
}

TEST(StrongScalingModel, GranularityLimit) {
  const auto& frontier = machine_by_name("Frontier");
  // 256^3 cells per device block, 4 devices per node.
  const double cells = 8.0 * std::pow(256.0, 3) * 4.0 * 100.0;
  EXPECT_NEAR(StrongScalingModel::max_nodes(frontier, cells), 800.0, 1e-6);
}

TEST(StepTimeModel, MemoryBoundScaling) {
  StepTimeModel st;
  const auto& summit = machine_by_name("Summit");
  const double t1 = st.node_seconds(summit, 2e8, 2e8);
  // Doubling the work doubles the time; faster memory shortens it.
  EXPECT_NEAR(st.node_seconds(summit, 4e8, 4e8) / t1, 2.0, 1e-9);
  const auto& frontier = machine_by_name("Frontier");
  EXPECT_LT(st.node_seconds(frontier, 2e8, 2e8), t1);
  // Summit-scale problems take O(0.1-1 s)/step, as the paper reports.
  EXPECT_GT(t1, 0.05);
  EXPECT_LT(t1, 5.0);
}

TEST(Fom, FormulaMatchesEquationOne) {
  // FOM = (0.1 Nc + 0.9 Np) / (t_step * percent).
  EXPECT_DOUBLE_EQ(figure_of_merit(1e9, 1e9, 1.0, 1.0), 1e9);
  EXPECT_DOUBLE_EQ(figure_of_merit(1e9, 0, 2.0, 0.5), 0.1 * 1e9);
  // Running on a smaller fraction of the machine raises the FOM estimate.
  EXPECT_GT(figure_of_merit(1e9, 1e9, 1.0, 0.5), figure_of_merit(1e9, 1e9, 1.0, 1.0));
}

TEST(Fom, HistoryTableShape) {
  const auto& rows = fom_history();
  ASSERT_EQ(rows.size(), 19u); // Table IV has 19 rows
  // Chronologically non-decreasing FOM envelope on Summit DP rows.
  double best_summit = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.reported_fom, 0);
    EXPECT_GT(r.cells_per_node, 0);
    EXPECT_GT(r.nodes, 0);
    if (r.machine == "Summit" && !r.mixed_precision) {
      EXPECT_GE(r.reported_fom, best_summit * 0.8); // small regressions allowed (6/21)
      best_summit = std::max(best_summit, r.reported_fom);
    }
  }
  // The final Frontier row is the highest DP FOM of the table.
  EXPECT_DOUBLE_EQ(rows.back().reported_fom, 1.1e13);
  EXPECT_EQ(rows.back().machine, "Frontier");
}

TEST(OpCounts, FmaCountsTwice) {
  EXPECT_EQ((OpCounts{10, 5, 3, 1, 1}).flops(), 10 + 5 + 2 * 3 + 1 + 1);
  EXPECT_EQ((OpCounts{0, 0, 1, 0, 0}).flops(), 2);
}

TEST(OpCounts, PicStageEstimates) {
  const auto pp = pic_flops_per_particle_3d(3);
  const auto pc = pic_flops_per_cell_3d();
  EXPECT_GT(pp.flops(), 500);  // order-3 3D gather+deposit is heavy
  EXPECT_LT(pp.flops(), 20000);
  EXPECT_GT(pc.flops(), 10);
  EXPECT_LT(pc.flops(), 200);
  // Particle work dominates cell work per element (beta=0.9 vs alpha=0.1 in
  // the FOM reflects the same ratio of importance).
  EXPECT_GT(pp.flops(), pc.flops());
}

} // namespace
} // namespace mrpic::perf
