// Thread-count identity of a registered run: lwfa_mr stepped 200 steps at
// one thread and at num_threads() threads must agree bit for bit in every
// field (level 0, the MR patch's fine, coarse and auxiliary fields, every
// PML split fab) and in every particle's x, u and w. In 200 steps the
// field-free front ahead of the pulse passes through the tiles, so the
// particle kernels' early-outs for gas at rest run on both sides of it.
// The thread_identity ctest runs this at OMP_NUM_THREADS=4; among the
// one-thread ctests it checks that two runs agree.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#ifdef MRPIC_USE_OPENMP
#include <omp.h>
#endif

#include "src/amr/parallel_for.hpp"
#include "src/core/simulation.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic {
namespace {

constexpr int kSteps = 200;

void set_threads([[maybe_unused]] int n) {
#ifdef MRPIC_USE_OPENMP
  omp_set_num_threads(n);
#endif
}

std::unique_ptr<core::Simulation<2>> run_lwfa_mr(int threads) {
  set_threads(threads);
  auto sim = scenario::build_simulation(scenario::ScenarioRegistry::instance().make("lwfa_mr"));
  for (int s = 0; s < kSteps; ++s) { sim->step(); }
  return sim;
}

bool same_bits(const Real& a, const Real& b) { return std::memcmp(&a, &b, sizeof(Real)) == 0; }

// Entries whose bit patterns differ (every fab, ghost cells included).
std::size_t mismatches(const MultiFab<2>& a, const MultiFab<2>& b) {
  if (a.num_fabs() != b.num_fabs()) { return 1; }
  std::size_t bad = 0;
  for (int m = 0; m < a.num_fabs(); ++m) {
    if (a.fab(m).size() != b.fab(m).size()) { return 1; }
    for (std::size_t n = 0; n < a.fab(m).size(); ++n) {
      if (!same_bits(a.fab(m).data()[n], b.fab(m).data()[n])) { ++bad; }
    }
  }
  return bad;
}

// Particles whose x, u or w differ in any bit, tile by tile.
std::size_t mismatches(const particles::ParticleContainer<2>& a,
                       const particles::ParticleContainer<2>& b) {
  if (a.num_tiles() != b.num_tiles()) { return 1; }
  std::size_t bad = 0;
  for (int t = 0; t < a.num_tiles(); ++t) {
    const auto& ta = a.tile(t);
    const auto& tb = b.tile(t);
    if (ta.size() != tb.size()) { return 1; }
    for (std::size_t p = 0; p < ta.size(); ++p) {
      bool same = same_bits(ta.w[p], tb.w[p]);
      for (int d = 0; d < 2; ++d) { same = same && same_bits(ta.x[d][p], tb.x[d][p]); }
      for (int cc = 0; cc < 3; ++cc) { same = same && same_bits(ta.u[cc][p], tb.u[cc][p]); }
      if (!same) { ++bad; }
    }
  }
  return bad;
}

void expect_same_fields(const fields::FieldSet<2>& a, const fields::FieldSet<2>& b,
                        const std::string& level) {
  EXPECT_EQ(mismatches(a.E(), b.E()), 0u) << level << " E";
  EXPECT_EQ(mismatches(a.B(), b.B()), 0u) << level << " B";
  EXPECT_EQ(mismatches(a.J(), b.J()), 0u) << level << " J";
}

TEST(ThreadIdentity, LwfaMrMatchesOneThreadBitForBit) {
  const int many = num_threads();
  const auto one = run_lwfa_mr(1);
  const auto par = run_lwfa_mr(many);
  set_threads(many);

  ASSERT_EQ(one->step_count(), kSteps);
  ASSERT_EQ(par->step_count(), kSteps);
  EXPECT_EQ(one->total_particles(), par->total_particles());
  expect_same_fields(one->fields(), par->fields(), "level 0");
  ASSERT_NE(one->domain_pml(), nullptr);
  ASSERT_NE(par->domain_pml(), nullptr);
  EXPECT_EQ(mismatches(one->domain_pml()->split_fab(), par->domain_pml()->split_fab()), 0u)
      << "level-0 PML";

  ASSERT_NE(one->patch(), nullptr);
  ASSERT_NE(par->patch(), nullptr);
  ASSERT_TRUE(one->patch()->active());
  ASSERT_TRUE(par->patch()->active());
  auto& pa = *one->patch();
  auto& pb = *par->patch();
  expect_same_fields(pa.fine(), pb.fine(), "patch fine");
  expect_same_fields(pa.coarse(), pb.coarse(), "patch coarse");
  EXPECT_EQ(mismatches(pa.aux_E(), pb.aux_E()), 0u) << "patch aux E";
  EXPECT_EQ(mismatches(pa.aux_B(), pb.aux_B()), 0u) << "patch aux B";
  EXPECT_EQ(mismatches(pa.fine_pml().split_fab(), pb.fine_pml().split_fab()), 0u)
      << "patch fine PML";
  EXPECT_EQ(mismatches(pa.coarse_pml().split_fab(), pb.coarse_pml().split_fab()), 0u)
      << "patch coarse PML";

  ASSERT_EQ(one->num_species(), par->num_species());
  for (int s = 0; s < one->num_species(); ++s) {
    EXPECT_EQ(mismatches(one->species_level0(s), par->species_level0(s)), 0u)
        << "species " << s << " level 0";
    EXPECT_EQ(mismatches(one->species_patch(s), par->species_patch(s)), 0u)
        << "species " << s << " patch";
  }
}

} // namespace
} // namespace mrpic
