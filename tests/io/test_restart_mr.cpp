// Restart under mesh refinement: checkpoint/restart of a hybrid-target-style
// configuration (solid foil + gas, ratio-2 MR patch over the foil, PML on
// the open boundaries, moving window already advancing when the checkpoint
// is taken) must continue bit-identically — the patch fine/coarse solution,
// both particle levels and the window anchor all round-trip exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/io/checkpoint.hpp"

namespace mrpic::io {
namespace {

using namespace mrpic::constants;

// The hybrid solid-gas target of the registered hybrid_target_mr scenario
// at test scale: foil slab resolved by the patch, gas behind it, leftward
// laser.
std::unique_ptr<core::Simulation<2>> build_hybrid_sim() {
  const Real wavelength = 0.8e-6;
  const Real nc = plasma::critical_density(wavelength);

  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(119, 23));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(6.0e-6, 1.2e-6);
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 6;
  cfg.max_grid_size = IntVect2(60, 24);
  cfg.shape_order = 3;
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> gas_inj;
  gas_inj.density = plasma::uniform<2>(0.02 * nc);
  gas_inj.ppc = IntVect2(1, 1);
  sim->add_species(particles::Species::electron("gas_electrons"), gas_inj);

  plasma::InjectorConfig<2> solid_inj;
  solid_inj.density = plasma::slab<2>(4 * nc, 1.5e-6, 2.2e-6);
  solid_inj.ppc = IntVect2(2, 2);
  solid_inj.temperature_ev = 10.0;
  sim->add_species(particles::Species::electron("solid_electrons"), solid_inj);

  laser::LaserConfig lc;
  lc.a0 = 2.0;
  lc.wavelength = wavelength;
  lc.waist = 0.8e-6;
  lc.duration = 4e-15;
  lc.t_peak = 6e-15;
  lc.x_antenna = 4.0e-6;
  lc.center = {2.0e-6, 0};
  sim->add_laser(lc);

  // Ratio-2 patch over the foil and the gap in front of it.
  mr::MRPatch<2>::Config pcfg;
  pcfg.region = Box2(IntVect2(24, 4), IntVect2(55, 19));
  pcfg.ratio = 2;
  pcfg.transition_cells = 2;
  pcfg.pml.npml = 4;
  sim->enable_mr_patch(pcfg);

  // Window starts almost immediately so it is in motion at checkpoint time.
  sim->set_moving_window(0, c, /*start_time=*/1e-15);
  sim->init();
  return sim;
}

bool fields_identical(const MultiFab<2>& a, const MultiFab<2>& b) {
  if (a.num_fabs() != b.num_fabs()) { return false; }
  for (int m = 0; m < a.num_fabs(); ++m) {
    if (a.fab(m).size() != b.fab(m).size()) { return false; }
    for (std::size_t i = 0; i < a.fab(m).size(); ++i) {
      if (a.fab(m).data()[i] != b.fab(m).data()[i]) { return false; }
    }
  }
  return true;
}

bool particles_identical(const particles::ParticleContainer<2>& a,
                         const particles::ParticleContainer<2>& b) {
  if (a.num_tiles() != b.num_tiles()) { return false; }
  for (int t = 0; t < a.num_tiles(); ++t) {
    const auto& ta = a.tile(t);
    const auto& tb = b.tile(t);
    if (ta.size() != tb.size()) { return false; }
    for (std::size_t p = 0; p < ta.size(); ++p) {
      for (int d = 0; d < 2; ++d) {
        if (ta.x[d][p] != tb.x[d][p]) { return false; }
      }
      for (int cc = 0; cc < 3; ++cc) {
        if (ta.u[cc][p] != tb.u[cc][p]) { return false; }
      }
      if (ta.w[p] != tb.w[p]) { return false; }
    }
  }
  return true;
}

TEST(RestartMR, HybridTargetRestartContinuesBitIdentically) {
  const std::string path = "ckpt_hybrid_mr.bin";
  const int steps_before = 25;
  const int steps_after = 15;

  // Reference runs straight through; gold stops at the checkpoint.
  auto ref = build_hybrid_sim();
  ref->run(steps_before);
  auto gold = build_hybrid_sim();
  gold->run(steps_before);

  // The interesting regime: window in motion, patch active, PML charged.
  ASSERT_GT(gold->window().accumulated(), 0.0)
      << "config error: the moving window must be advancing at checkpoint time";
  ASSERT_TRUE(gold->patch() != nullptr && gold->patch()->active());
  ASSERT_GT(gold->total_particles(), 0);

  ASSERT_TRUE(write_checkpoint(path, *gold));
  ref->run(steps_after);

  auto restored = build_hybrid_sim();
  ASSERT_TRUE(read_checkpoint(path, *restored));
  EXPECT_EQ(restored->step_count(), steps_before);
  EXPECT_DOUBLE_EQ(restored->time(), gold->time());
  EXPECT_DOUBLE_EQ(restored->window().accumulated(), gold->window().accumulated());
  restored->run(steps_after);

  EXPECT_EQ(restored->step_count(), ref->step_count());
  EXPECT_DOUBLE_EQ(restored->time(), ref->time());
  EXPECT_DOUBLE_EQ(restored->geom().prob_lo()[0], ref->geom().prob_lo()[0]);
  EXPECT_TRUE(fields_identical(restored->fields().E(), ref->fields().E()));
  EXPECT_TRUE(fields_identical(restored->fields().B(), ref->fields().B()));
  EXPECT_TRUE(fields_identical(restored->fields().J(), ref->fields().J()));
  ASSERT_TRUE(restored->patch()->active() && ref->patch()->active());
  EXPECT_TRUE(fields_identical(restored->patch()->fine().E(), ref->patch()->fine().E()));
  EXPECT_TRUE(fields_identical(restored->patch()->fine().B(), ref->patch()->fine().B()));
  EXPECT_TRUE(fields_identical(restored->patch()->coarse().E(), ref->patch()->coarse().E()));
  for (int s = 0; s < ref->num_species(); ++s) {
    EXPECT_TRUE(particles_identical(restored->species_level0(s), ref->species_level0(s))) << s;
    EXPECT_TRUE(particles_identical(restored->species_patch(s), ref->species_patch(s))) << s;
  }
  std::remove(path.c_str());
}

TEST(RestartMR, PmlInteriorStateRoundTrips) {
  const std::string path = "ckpt_hybrid_pml.bin";
  auto sim = build_hybrid_sim();
  sim->run(12);
  ASSERT_TRUE(write_checkpoint(path, *sim));

  auto copy = build_hybrid_sim();
  ASSERT_TRUE(read_checkpoint(path, *copy));
  ASSERT_TRUE(copy->domain_pml() != nullptr);
  EXPECT_TRUE(fields_identical(copy->domain_pml()->split_fab(),
                               sim->domain_pml()->split_fab()));
  EXPECT_TRUE(fields_identical(copy->patch()->fine_pml().split_fab(),
                               sim->patch()->fine_pml().split_fab()));
  EXPECT_TRUE(fields_identical(copy->patch()->coarse_pml().split_fab(),
                               sim->patch()->coarse_pml().split_fab()));
  std::remove(path.c_str());
}

} // namespace
} // namespace mrpic::io
