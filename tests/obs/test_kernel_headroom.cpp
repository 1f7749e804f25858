// The "## Kernel headroom" perf-report section: the analytic per-particle
// kernel cost models, the halo phase timeline and the section built from the
// profiler's gather/push/deposit totals.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "src/cluster/sim_cluster.hpp"
#include "src/dist/distribution_mapping.hpp"
#include "src/obs/analysis.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/profiler.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"

namespace mrpic::obs {
namespace {

// --- closed-form kernel cost model ---------------------------------------

// Open and close `n` scopes of each particle kernel's region.
void time_kernels(Profiler& prof, int n) {
  for (int i = 0; i < n; ++i) {
    for (const char* kernel : {"gather", "push", "deposit"}) { auto t = prof.scope(kernel); }
  }
}

TEST(KernelModel, AnalyticIntensity) {
  using analysis::KernelKind;
  // A kernel row's intensity must equal the closed-form per-particle
  // flops / bytes ratio to 1e-9, for every kind, order and dimension.
  Profiler prof;
  time_kernels(prof, 1);
  for (int dim : {2, 3}) {
    for (int order : {1, 2, 3}) {
      const double p = std::pow(order + 1, dim);
      const double q = std::pow(order + 2, dim);
      const double gather_b = 8.0 * dim + 48.0 * p + 48.0;
      const double push_b = 96.0 + 16.0 * dim;
      const double deposit_b = 16.0 * dim + 8.0 + 48.0 * q;
      EXPECT_DOUBLE_EQ(analysis::kernel_bytes_per_particle(KernelKind::Gather, order, dim),
                       gather_b);
      EXPECT_DOUBLE_EQ(analysis::kernel_bytes_per_particle(KernelKind::Push, order, dim),
                       push_b);
      EXPECT_DOUBLE_EQ(analysis::kernel_bytes_per_particle(KernelKind::Deposit, order, dim),
                       deposit_b);
      // Flops wrap the particles:: kernel counts exactly.
      EXPECT_DOUBLE_EQ(
          analysis::kernel_flops_per_particle(KernelKind::Gather, order, dim),
          double(particles::gather_flops_per_particle(order, dim)));
      EXPECT_DOUBLE_EQ(analysis::kernel_flops_per_particle(KernelKind::Push, order, dim),
                       double(particles::push_flops_per_particle()));
      EXPECT_DOUBLE_EQ(
          analysis::kernel_flops_per_particle(KernelKind::Deposit, order, dim),
          double(particles::deposit_flops_per_particle(order, dim)));

      const std::int64_t np = 1000;
      const auto k =
          summarize_kernels(prof, np, order, dim, perf::machine_by_name("Summit"));
      ASSERT_EQ(k.kernels.size(), 3u);
      const double analytic[3] = {
          double(particles::gather_flops_per_particle(order, dim)) / gather_b,
          double(particles::push_flops_per_particle()) / push_b,
          double(particles::deposit_flops_per_particle(order, dim)) / deposit_b};
      for (int i = 0; i < 3; ++i) {
        const auto& row = k.kernels[std::size_t(i)];
        EXPECT_EQ(row.kernel, analysis::kernel_kind_name(KernelKind(i)));
        EXPECT_NEAR(row.intensity, analytic[i], 1e-9)
            << "kind " << i << " order " << order << " dim " << dim;
        EXPECT_DOUBLE_EQ(row.flops, double(np) * row.intensity * row.bytes / np)
            << "flops/bytes/intensity must be self-consistent";
      }
    }
  }
}

// --- halo phase timeline --------------------------------------------------

TEST(KernelOverlap, PhaseSplitInvariants) {
  // Every rank's phase split must reconstruct its comm time exactly, and
  // the derived headroom is min(wait, interior compute). The critical
  // rank's timeline is pure model arithmetic, pinned per rank count.
  struct Expected {
    int nranks;
    double compute_s, comm_s, post_s, wait_s, interior_s, headroom_s;
  };
  const Expected sweep[] = {
      {2, 8.0e-4, 4.199872e-5, 2.0e-6, 3.999872e-5, 4.5e-4, 3.999872e-5},
      {4, 4.0e-4, 3.780288e-5, 1.8e-6, 3.600288e-5, 2.25e-4, 3.600288e-5},
      {8, 2.0e-4, 4.614272e-5, 2.2e-6, 4.394272e-5, 1.125e-4, 4.394272e-5},
  };
  const mrpic::Box2 domain(mrpic::IntVect2(0, 0), mrpic::IntVect2(63, 63));
  const auto ba = mrpic::BoxArray<2>::decompose(domain, 16);
  for (const auto& want : sweep) {
    SCOPED_TRACE("nranks " + std::to_string(want.nranks));
    const int nranks = want.nranks;
    const auto dm =
        dist::DistributionMapping::make(ba, nranks, dist::Strategy::SpaceFillingCurve);
    cluster::SimCluster cl(nranks);
    RankRecorder rec(nranks);
    rec.set_step(0);
    const auto cost =
        cl.step_cost(ba, dm, std::vector<Real>(ba.size(), Real(1e-4)), 9, 2, 8, &rec);

    ASSERT_EQ(rec.steps().size(), 1u);
    const auto& ranks = rec.steps().front().ranks;
    ASSERT_EQ(ranks.size(), std::size_t(nranks));
    double max_total = 0;
    std::size_t critical = 0;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const auto& rs = ranks[r];
      EXPECT_NEAR(rs.post_s + rs.wait_s, rs.comm_s, 1e-12) << "rank " << r;
      EXPECT_GE(rs.post_s, 0.0);
      EXPECT_GE(rs.wait_s, 0.0);
      EXPECT_LE(rs.interior_compute_s, rs.compute_s + 1e-12);
      EXPECT_NEAR(rs.overlap_headroom_s, std::min(rs.wait_s, rs.interior_compute_s),
                  1e-12);
      if (rs.total_s() > max_total) {
        max_total = rs.total_s();
        critical = r;
      }
    }
    // StepCost carries the critical rank's timeline.
    EXPECT_NEAR(cost.post_s, ranks[critical].post_s, 1e-15);
    EXPECT_NEAR(cost.wait_s, ranks[critical].wait_s, 1e-15);
    EXPECT_NEAR(cost.overlap_headroom_s, ranks[critical].overlap_headroom_s, 1e-15);
    EXPECT_GT(cost.wait_s, 0.0); // this layout has inter-rank halos

    const auto near = [](double got, double expected) {
      EXPECT_NEAR(got, expected, 1e-9 * expected);
    };
    near(cost.compute_s, want.compute_s);
    near(cost.comm_s, want.comm_s);
    near(cost.post_s, want.post_s);
    near(cost.wait_s, want.wait_s);
    near(cost.interior_compute_s, want.interior_s);
    near(cost.overlap_headroom_s, want.headroom_s);
  }
}

// --- perf-report section --------------------------------------------------

TEST(KernelHeadroom, SectionRendersMarkdownAndJson) {
  Profiler prof;
  time_kernels(prof, 4);
  RankRecorder rec(2);
  rec.set_step(0);
  {
    const mrpic::Box2 domain(mrpic::IntVect2(0, 0), mrpic::IntVect2(31, 31));
    const auto ba = mrpic::BoxArray<2>::decompose(domain, 16);
    const auto dm =
        dist::DistributionMapping::make(ba, 2, dist::Strategy::SpaceFillingCurve);
    cluster::SimCluster cl(2);
    cl.step_cost(ba, dm, std::vector<Real>(ba.size(), Real(1e-4)), 9, 2, 8, &rec);
  }

  // The section prints with the report's measured part, which every
  // driver report carries.
  PerfReport report = build_perf_report(rec);
  report.time = time_breakdown(prof);
  report.kernel = summarize_kernels(prof, 1000, 2, 2, perf::machine_by_name("Summit"), &rec);
  EXPECT_EQ(report.kernel.machine, "Summit");
  ASSERT_EQ(report.kernel.kernels.size(), 3u);
  const auto totals = prof.flat_totals();
  for (const auto& row : report.kernel.kernels) {
    // Each row is the profiler's total for its kernel.
    EXPECT_EQ(row.invocations, 4) << row.kernel;
    EXPECT_EQ(row.particles, 1000) << row.kernel;
    EXPECT_EQ(row.time_s, totals.at(row.kernel).inclusive_s) << row.kernel;
  }
  EXPECT_EQ(report.kernel.overlap_steps, 1);
  EXPECT_GT(report.kernel.mean_wait_s, 0.0);

  std::ostringstream md, js;
  write_markdown(report, md);
  EXPECT_NE(md.str().find("## Kernel headroom (Summit)"), std::string::npos);
  EXPECT_NE(md.str().find("| gather | 4 | 1000 |"), std::string::npos);
  EXPECT_NE(md.str().find("overlap headroom"), std::string::npos);
  write_json(report, js);
  EXPECT_NE(js.str().find("\"kernel_headroom\""), std::string::npos);
  const auto doc = json::parse(js.str());
  ASSERT_TRUE(doc["kernel_headroom"].is_object());
  const auto& kernels = doc["kernel_headroom"]["kernels"].as_array();
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[2]["kernel"].as_string(), "deposit");
  EXPECT_EQ(kernels[2]["invocations"].as_int(), 4);
  EXPECT_NEAR(doc["kernel_headroom"]["overlap"]["mean_wait_s"].as_number(),
              report.kernel.mean_wait_s, 1e-15);

  // A profiler that never timed a kernel yields an empty table.
  EXPECT_TRUE(summarize_kernels(Profiler{}, 0, 2, 2, perf::machine_by_name("Summit"))
                  .kernels.empty());
}

} // namespace
} // namespace mrpic::obs
