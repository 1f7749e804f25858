#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "src/cluster/sim_cluster.hpp"
#include "src/dist/distribution_mapping.hpp"
#include "src/obs/kernel_probe.hpp"
#include "src/obs/locality.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/profiler.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"
#include "src/plasma/plasma_injector.hpp"

namespace mrpic::obs {
namespace {

// --- closed-form kernel cost model ---------------------------------------

TEST(KernelProbe, AnalyticIntensity) {
  // The per-invocation intensity must equal the closed-form per-particle
  // flops / bytes ratio to 1e-9, for every kind, order and dimension.
  for (int dim : {2, 3}) {
    for (int order : {1, 2, 3}) {
      const double p = std::pow(order + 1, dim);
      const double q = std::pow(order + 2, dim);
      const double gather_b = 8.0 * dim + 48.0 * p + 48.0;
      const double push_b = 96.0 + 16.0 * dim;
      const double deposit_b = 16.0 * dim + 8.0 + 48.0 * q;
      EXPECT_DOUBLE_EQ(kernel_bytes_per_particle(KernelKind::Gather, order, dim),
                       gather_b);
      EXPECT_DOUBLE_EQ(kernel_bytes_per_particle(KernelKind::Push, order, dim), push_b);
      EXPECT_DOUBLE_EQ(kernel_bytes_per_particle(KernelKind::Deposit, order, dim),
                       deposit_b);
      // Flops wrap the particles:: kernel counts exactly.
      EXPECT_DOUBLE_EQ(
          kernel_flops_per_particle(KernelKind::Gather, order, dim),
          double(particles::gather_flops_per_particle(order, dim)));
      EXPECT_DOUBLE_EQ(kernel_flops_per_particle(KernelKind::Push, order, dim),
                       double(particles::push_flops_per_particle()));
      EXPECT_DOUBLE_EQ(
          kernel_flops_per_particle(KernelKind::Deposit, order, dim),
          double(particles::deposit_flops_per_particle(order, dim)));

      KernelProbe probe;
      const std::int64_t np = 1000;
      probe.record(KernelKind::Gather, 0, "e", 0, np, 1e-4, order, dim);
      probe.record(KernelKind::Push, 0, "e", 0, np, 1e-4, order, dim);
      probe.record(KernelKind::Deposit, 0, "e", 0, np, 1e-4, order, dim);
      const auto inv = probe.invocations();
      ASSERT_EQ(inv.size(), 3u);
      const double analytic[3] = {
          double(particles::gather_flops_per_particle(order, dim)) / gather_b,
          double(particles::push_flops_per_particle()) / push_b,
          double(particles::deposit_flops_per_particle(order, dim)) / deposit_b};
      for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(inv[i].intensity, analytic[i], 1e-9)
            << "kind " << i << " order " << order << " dim " << dim;
        EXPECT_DOUBLE_EQ(inv[i].flops, double(np) * inv[i].intensity * inv[i].bytes / np)
            << "flops/bytes/intensity must be self-consistent";
      }
    }
  }
}

TEST(KernelProbe, RecordAggregatesAndBounds) {
  KernelObsConfig cfg;
  cfg.max_invocations = 4;
  KernelProbe probe(cfg);
  EXPECT_TRUE(probe.due(0));
  EXPECT_FALSE(probe.due(1));
  EXPECT_TRUE(probe.due(5));

  for (int i = 0; i < 6; ++i) {
    probe.record(KernelKind::Push, 0, "e", i, 100, 1e-5, 2, 2);
  }
  EXPECT_EQ(probe.invocations().size(), 4u); // bounded store
  EXPECT_EQ(probe.dropped_invocations(), 2);
  const auto agg = probe.aggregate(KernelKind::Push);
  EXPECT_EQ(agg.invocations, 6); // aggregates keep accumulating
  EXPECT_EQ(agg.particles, 600);
  EXPECT_NEAR(agg.time_s, 6e-5, 1e-12);
  EXPECT_GT(probe.self_time_s(), 0);

  MetricsRegistry metrics;
  probe.publish(metrics);
  EXPECT_GT(metrics.gauge("kernel_push_gbyte_s").value(), 0);
  EXPECT_GT(metrics.gauge("kernel_probe_self_s").value(), 0);

  probe.clear();
  EXPECT_EQ(probe.invocations().size(), 0u);
  EXPECT_EQ(probe.aggregate(KernelKind::Push).invocations, 0);
}

// --- locality model -------------------------------------------------------

TEST(KernelLocality, FreshInjectorIsCellOrdered) {
  // A freshly injected container fills cell by cell, so the sampled cell
  // keys are already sorted: ~0 inversions and no predicted sort payoff.
  const mrpic::Geometry<2> geom(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(31, 31)),
                                mrpic::RealVect2(0, 0), mrpic::RealVect2(32e-7, 32e-7),
                                {true, true});
  particles::ParticleContainer<2> pc(particles::Species::electron(),
                                     mrpic::BoxArray<2>(geom.domain()));
  plasma::InjectorConfig<2> icfg;
  icfg.density = plasma::uniform<2>(5e23);
  icfg.ppc = mrpic::IntVect2(2, 2);
  plasma::PlasmaInjector<2> inj(icfg);
  inj.inject_all(pc, geom);
  ASSERT_GT(pc.tile(0).size(), 1000u);

  const auto l = tile_locality<2>(pc.tile(0), geom, geom.domain(), 4096);
  EXPECT_GT(l.pairs, 0);
  EXPECT_LE(l.inversion_fraction, 0.01);
  EXPECT_NEAR(l.line_reuse, l.sorted_line_reuse, 0.01);
  EXPECT_NEAR(l.predicted_sort_speedup, 1.0, 0.05);
}

TEST(KernelLocality, ShuffledKeysInvertHalf) {
  // A uniform shuffle of distinct keys descends on ~half the consecutive
  // pairs, and sorting it is predicted to pay off.
  std::vector<std::int64_t> keys(4096);
  std::iota(keys.begin(), keys.end(), std::int64_t(0));
  std::mt19937_64 rng(7);
  std::shuffle(keys.begin(), keys.end(), rng);

  const auto l = locality_from_keys(keys);
  EXPECT_NEAR(l.inversion_fraction, 0.5, 0.05);
  EXPECT_LT(l.line_reuse, 0.05);
  EXPECT_DOUBLE_EQ(l.sorted_line_reuse, 1.0); // consecutive distinct keys
  EXPECT_GT(l.predicted_sort_speedup, 1.5);

  // Sorted input: zero inversions, stride 1, no payoff.
  std::sort(keys.begin(), keys.end());
  const auto s = locality_from_keys(keys);
  EXPECT_DOUBLE_EQ(s.inversion_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_stride_cells, 1.0);
  EXPECT_DOUBLE_EQ(s.predicted_sort_speedup, 1.0);

  // Reversed input: every pair inverts, yet stride 1 keeps each line hot,
  // so sorting buys nothing.
  std::reverse(keys.begin(), keys.end());
  const auto r = locality_from_keys(keys);
  EXPECT_DOUBLE_EQ(r.inversion_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_stride_cells, 1.0);
  EXPECT_DOUBLE_EQ(r.line_reuse, 1.0);
  EXPECT_DOUBLE_EQ(r.predicted_sort_speedup, 1.0);

  // Two interleaved halves (0, n/2, 1, n/2 + 1, ...): strides n/2 and
  // n/2 - 1 alternate, no line is reused, and sorting is predicted to pay
  // the model's ceiling 1 / (1 - kLineReuseSaving) = 8x.
  const std::int64_t half = 2048;
  std::vector<std::int64_t> strided;
  for (std::int64_t i = 0; i < half; ++i) {
    strided.push_back(i);
    strided.push_back(i + half);
  }
  const auto st = locality_from_keys(strided);
  EXPECT_EQ(st.pairs, 2 * half - 1);
  EXPECT_DOUBLE_EQ(st.inversion_fraction, double(half - 1) / double(2 * half - 1));
  EXPECT_DOUBLE_EQ(st.mean_stride_cells,
                   double(half * half + (half - 1) * (half - 1)) / double(2 * half - 1));
  EXPECT_DOUBLE_EQ(st.p99_stride_cells, double(half));
  EXPECT_DOUBLE_EQ(st.line_reuse, 0.0);
  EXPECT_DOUBLE_EQ(st.sorted_line_reuse, 1.0);
  EXPECT_DOUBLE_EQ(st.predicted_sort_speedup, 8.0);

  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(locality_from_keys({}).predicted_sort_speedup, 1.0);
  EXPECT_DOUBLE_EQ(locality_from_keys({42}).predicted_sort_speedup, 1.0);
}

TEST(KernelLocality, SortedReuseAndP99MatchSortedOrderDefinition) {
  // sorted_line_reuse and p99_stride_cells must equal their definitions on
  // the fully sorted sequences, for narrow key ranges with repeats (counted
  // without a sort) and for sparse wide ranges (sorted), negatives included.
  const auto reference = [](std::vector<std::int64_t> keys) {
    std::vector<std::int64_t> strides;
    for (std::size_t p = 1; p < keys.size(); ++p) {
      strides.push_back(std::llabs(keys[p] - keys[p - 1]));
    }
    std::sort(strides.begin(), strides.end());
    const double p99 = static_cast<double>(strides[static_cast<std::size_t>(
        std::floor(0.99 * static_cast<double>(strides.size() - 1)))]);
    std::sort(keys.begin(), keys.end());
    std::int64_t hits = 0;
    for (std::size_t p = 1; p < keys.size(); ++p) {
      if (keys[p] - keys[p - 1] < kCellsPerCacheLine) { ++hits; }
    }
    return std::pair{p99, static_cast<double>(hits) /
                              static_cast<double>(keys.size() - 1)};
  };
  std::mt19937_64 rng(11);
  for (const std::int64_t range : {2, 8, 100, 1024, 100000, 10000000}) {
    for (const std::int64_t offset : {std::int64_t(0), std::int64_t(-5000)}) {
      std::uniform_int_distribution<std::int64_t> pick(offset, offset + range - 1);
      std::vector<std::int64_t> keys(1024);
      for (auto& k : keys) { k = pick(rng); }
      const auto [p99, sorted_reuse] = reference(keys);
      const auto l = locality_from_keys(keys);
      EXPECT_EQ(l.p99_stride_cells, p99) << "range " << range << " offset " << offset;
      EXPECT_EQ(l.sorted_line_reuse, sorted_reuse)
          << "range " << range << " offset " << offset;
    }
  }
}

TEST(KernelLocality, MergeIsPairWeighted) {
  TileLocality a = locality_from_keys({0, 1, 2, 3, 4});      // sorted, 4 pairs
  const TileLocality b = locality_from_keys({4, 3, 2, 1, 0}); // reversed, 4 pairs
  const double mean_a = a.mean_stride_cells;
  merge_locality(a, b);
  EXPECT_EQ(a.pairs, 8);
  EXPECT_EQ(a.particles, 10);
  EXPECT_NEAR(a.inversion_fraction, 0.5, 1e-12);
  EXPECT_NEAR(a.mean_stride_cells, mean_a, 1e-12); // both streams stride 1
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
  KernelProbe probe;
  probe.record(KernelKind::Gather, 0, "e", 0, 1000, 1e-4, 2, 2);
  probe.record(KernelKind::Push, 0, "e", 0, 1000, 1e-4, 2, 2);
  probe.record(KernelKind::Deposit, 0, "e", 0, 1000, 1e-4, 2, 2);

  Profiler prof;
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

  PerfReport report = build_perf_report(rec);
  report.kernel = summarize_kernels(probe, prof, &rec);
  ASSERT_TRUE(report.kernel.enabled);
  EXPECT_EQ(report.kernel.machine, "Summit");
  EXPECT_EQ(report.kernel.sampled_invocations, 3);
  EXPECT_EQ(report.kernel.kernels.size(), 3u);
  EXPECT_EQ(report.kernel.overlap_steps, 1);
  EXPECT_GT(report.kernel.mean_wait_s, 0.0);

  std::ostringstream md, js;
  write_markdown(report, md);
  EXPECT_NE(md.str().find("## Kernel headroom (Summit)"), std::string::npos);
  EXPECT_NE(md.str().find("overlap headroom"), std::string::npos);
  write_json(report, js);
  EXPECT_NE(js.str().find("\"kernel_headroom\""), std::string::npos);
  const auto doc = json::parse(js.str());
  ASSERT_TRUE(doc["kernel_headroom"].is_object());
  EXPECT_EQ(doc["kernel_headroom"]["kernels"].as_array().size(), 3u);
  EXPECT_NEAR(doc["kernel_headroom"]["overlap"]["mean_wait_s"].as_number(),
              report.kernel.mean_wait_s, 1e-15);
}

} // namespace
} // namespace mrpic::obs
