#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/amr/parallel_for.hpp"
#include "src/fields/fdtd.hpp"
#include "src/fields/pml.hpp"

namespace mrpic::fields {
namespace {

using mrpic::constants::c;

FieldSet<2> open_box_2d(int n) {
  const mrpic::Geometry<2> geom(
      mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1)),
      mrpic::RealVect2(0, 0), mrpic::RealVect2(1e-5, 1e-5), {false, false});
  return FieldSet<2>(geom, mrpic::BoxArray<2>::decompose(geom.domain(), n / 2));
}

void pulse_init(FieldSet<2>& f, Real x0, Real y0, Real sigma) {
  const auto& geom = f.geom();
  for (int m = 0; m < f.E().num_fabs(); ++m) {
    auto e = f.E().array(m);
    const auto& vb = f.E().valid_box(m);
    for (int j = vb.lo(1); j <= vb.hi(1); ++j) {
      for (int i = vb.lo(0); i <= vb.hi(0); ++i) {
        const Real x = geom.node_pos(i, 0), y = geom.node_pos(j, 1);
        const Real r2 = (x - x0) * (x - x0) + (y - y0) * (y - y0);
        e(i, j, 0, 2) = std::exp(-r2 / (sigma * sigma));
      }
    }
  }
}

void run_with_pml(FieldSet<2>& f, Pml<2>& pml, FDTDSolver<2>& solver, Real dt, int nsteps) {
  auto exchange = [&] {
    f.fill_boundary();
    pml.exchange_from_interior(f);
    pml.fill_boundary();
    pml.copy_to_interior(f);
  };
  for (int s = 0; s < nsteps; ++s) {
    exchange();
    solver.evolve_b(f, dt / 2);
    pml.evolve_b(dt / 2);
    exchange();
    solver.evolve_e(f, dt);
    pml.evolve_e(dt);
    exchange();
    solver.evolve_b(f, dt / 2);
    pml.evolve_b(dt / 2);
  }
}

TEST(Pml, RingGeometry) {
  const mrpic::Geometry<2> geom(
      mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(31, 31)), mrpic::RealVect2(0, 0),
      mrpic::RealVect2(1, 1), {false, false});
  PmlConfig cfg;
  cfg.npml = 8;
  Pml<2> pml(geom, geom.domain(), {true, true}, cfg);
  // 3x3 segments minus the interior = 8 ring boxes.
  EXPECT_EQ(pml.box_array().size(), 8);
  // Ring boxes tile grown(domain, npml) \ domain exactly.
  std::int64_t ring_cells = 0;
  for (const auto& b : pml.box_array().boxes()) {
    EXPECT_TRUE(geom.domain().grown(8).contains(b));
    EXPECT_FALSE(geom.domain().intersects(b));
    ring_cells += b.num_cells();
  }
  EXPECT_EQ(ring_cells, geom.domain().grown(8).num_cells() - geom.domain().num_cells());
}

TEST(Pml, PeriodicDirectionGetsNoLayer) {
  const mrpic::Geometry<2> geom(
      mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(31, 31)), mrpic::RealVect2(0, 0),
      mrpic::RealVect2(1, 1), {false, true});
  Pml<2> pml(geom, geom.domain(), {true, false});
  EXPECT_EQ(pml.box_array().size(), 2); // only x skirts
}

TEST(Pml, SigmaProfile) {
  const mrpic::Geometry<2> geom(
      mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(31, 31)), mrpic::RealVect2(0, 0),
      mrpic::RealVect2(1e-5, 1e-5), {false, false});
  PmlConfig cfg;
  cfg.npml = 10;
  Pml<2> pml(geom, geom.domain(), {true, true}, cfg);
  EXPECT_EQ(pml.sigma(0, 16.0), 0.0);     // interior
  EXPECT_EQ(pml.sigma(0, 0.0), 0.0);      // at the edge
  EXPECT_GT(pml.sigma(0, -5.0), 0.0);     // inside the layer
  EXPECT_GT(pml.sigma(0, -10.0), pml.sigma(0, -5.0)); // graded
  EXPECT_GT(pml.sigma(0, 42.0), 0.0);     // high-side layer (edge at 32)
  // Cubic grading: sigma(depth d) ~ d^3.
  EXPECT_NEAR(pml.sigma(0, -10.0) / pml.sigma(0, -5.0), 8.0, 1e-9);
}

TEST(Pml, AbsorbsOutgoingPulse) {
  auto f = open_box_2d(64);
  PmlConfig cfg;
  cfg.npml = 12;
  Pml<2> pml(f.geom(), f.geom().domain(), {true, true}, cfg);
  pulse_init(f, 0.5e-5, 0.5e-5, 0.08e-5);
  FDTDSolver<2> solver;
  const Real dt = cfl_dt(f.geom());
  f.fill_boundary();
  const Real e0 = f.field_energy();
  ASSERT_GT(e0, 0.0);
  // Run long enough for the pulse to cross the domain and be absorbed
  // (domain is 1e-5 m, light crosses it in ~64/0.98/sqrt(2) ~ 92 steps).
  run_with_pml(f, pml, solver, dt, 400);
  const Real e1 = f.field_energy();
  EXPECT_LT(e1 / e0, 0.02) << "PML should absorb >98% of the pulse energy";
}

TEST(Pml, OutperformsReflectingBoundary) {
  // Same pulse, no PML: the PEC-like boundary reflects everything and the
  // energy stays in the box. Demonstrates the PML actually does the work.
  auto f_pec = open_box_2d(64);
  pulse_init(f_pec, 0.5e-5, 0.5e-5, 0.08e-5);
  FDTDSolver<2> solver;
  const Real dt = cfl_dt(f_pec.geom());
  f_pec.fill_boundary();
  const Real e0 = f_pec.field_energy();
  for (int s = 0; s < 400; ++s) {
    f_pec.fill_boundary();
    solver.evolve_b(f_pec, dt / 2);
    f_pec.fill_boundary();
    solver.evolve_e(f_pec, dt);
    f_pec.fill_boundary();
    solver.evolve_b(f_pec, dt / 2);
  }
  EXPECT_GT(f_pec.field_energy() / e0, 0.5) << "reflecting box keeps the energy";
}

class PmlWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(PmlWidthSweep, WiderLayersAbsorbBetter) {
  const int npml = GetParam();
  auto f = open_box_2d(48);
  PmlConfig cfg;
  cfg.npml = npml;
  Pml<2> pml(f.geom(), f.geom().domain(), {true, true}, cfg);
  pulse_init(f, 0.5e-5, 0.5e-5, 0.08e-5);
  FDTDSolver<2> solver;
  const Real dt = cfl_dt(f.geom());
  f.fill_boundary();
  const Real e0 = f.field_energy();
  run_with_pml(f, pml, solver, dt, 300);
  const Real residual = f.field_energy() / e0;
  // Even 6 cells should absorb the bulk; 16 should be excellent.
  EXPECT_LT(residual, npml >= 12 ? 0.02 : 0.10) << "npml=" << npml;
}

INSTANTIATE_TEST_SUITE_P(Widths, PmlWidthSweep, ::testing::Values(6, 8, 12, 16));

TEST(Pml, Absorbs3DPulse) {
  const mrpic::Geometry<3> geom(
      mrpic::Box3(mrpic::IntVect3(0, 0, 0), mrpic::IntVect3(31, 31, 31)),
      mrpic::RealVect3(0, 0, 0), mrpic::RealVect3(1e-5, 1e-5, 1e-5),
      {false, false, false});
  FieldSet<3> f(geom, mrpic::BoxArray<3>(geom.domain()));
  PmlConfig cfg;
  cfg.npml = 8;
  Pml<3> pml(geom, geom.domain(), {true, true, true}, cfg);
  // Divergence-free pulse: Ez independent of z (div E = dEz/dz = 0), so the
  // whole blob is radiative — a fully 3D charge-like Ez blob would leave a
  // legitimate electrostatic remnant that no absorber can remove.
  for (int m = 0; m < f.E().num_fabs(); ++m) {
    auto e = f.E().array(m);
    const auto& vb = f.E().valid_box(m);
    for (int k = vb.lo(2); k <= vb.hi(2); ++k) {
      for (int j = vb.lo(1); j <= vb.hi(1); ++j) {
        for (int i = vb.lo(0); i <= vb.hi(0); ++i) {
          const Real r2 = (i - 16.0) * (i - 16.0) + (j - 16.0) * (j - 16.0);
          e(i, j, k, 2) = std::exp(-r2 / 16.0);
        }
      }
    }
  }
  FDTDSolver<3> solver;
  const Real dt = cfl_dt(geom);
  f.fill_boundary();
  const Real e0 = f.field_energy();
  auto exchange = [&] {
    f.fill_boundary();
    pml.exchange_from_interior(f);
    pml.fill_boundary();
    pml.copy_to_interior(f);
  };
  for (int s = 0; s < 200; ++s) {
    exchange();
    solver.evolve_b(f, dt / 2);
    pml.evolve_b(dt / 2);
    exchange();
    solver.evolve_e(f, dt);
    pml.evolve_e(dt);
    exchange();
    solver.evolve_b(f, dt / 2);
    pml.evolve_b(dt / 2);
  }
  // The z-uniform pulse hits the z-layers at grazing incidence, where any
  // PML absorbs more slowly; 8 cells still soak up >90% in this window.
  EXPECT_LT(f.field_energy() / e0, 0.10);
}

// The per-cell update the damping tables replaced: damping(sigma(...)) is
// evaluated for every split component of every cell. Kept here as the
// reference the tabulated Pml::evolve_b/evolve_e must match bit for bit.
struct RefDamp {
  Real d1, d2;
};
RefDamp ref_damping(Real sigma, Real dt) {
  if (sigma <= 0) { return {Real(1), dt}; }
  const Real d1 = std::exp(-sigma * dt);
  return {d1, (Real(1) - d1) / sigma};
}

template <int DIM>
void ref_evolve_b(Pml<DIM>& pml, const mrpic::Geometry<DIM>& geom, Real dt) {
  const Real idx = Real(1) / geom.cell_size(0);
  const Real idy = Real(1) / geom.cell_size(1);
  [[maybe_unused]] const Real idz = DIM == 3 ? Real(1) / geom.cell_size(2) : Real(0);
  auto& mf = pml.split_fab();
  for (int m = 0; m < mf.num_fabs(); ++m) {
    auto a = mf.array(m);
    auto Ex = [a](int i, int j, int k) { return a(i, j, k, EXY) + a(i, j, k, EXZ); };
    auto Ey = [a](int i, int j, int k) { return a(i, j, k, EYZ) + a(i, j, k, EYX); };
    auto Ez = [a](int i, int j, int k) { return a(i, j, k, EZX) + a(i, j, k, EZY); };
    auto update = [&](int i, int j, int k) {
      {
        const RefDamp wy = ref_damping(pml.sigma(1, j + Real(0.5)), dt);
        a(i, j, k, BXY) = wy.d1 * a(i, j, k, BXY) +
                          wy.d2 * (-(Ez(i, j + 1, k) - Ez(i, j, k)) * idy);
        if constexpr (DIM == 3) {
          const RefDamp wz = ref_damping(pml.sigma(2, k + Real(0.5)), dt);
          a(i, j, k, BXZ) = wz.d1 * a(i, j, k, BXZ) +
                            wz.d2 * ((Ey(i, j, k + 1) - Ey(i, j, k)) * idz);
        }
      }
      {
        const RefDamp wx = ref_damping(pml.sigma(0, i + Real(0.5)), dt);
        a(i, j, k, BYX) = wx.d1 * a(i, j, k, BYX) +
                          wx.d2 * ((Ez(i + 1, j, k) - Ez(i, j, k)) * idx);
        if constexpr (DIM == 3) {
          const RefDamp wz = ref_damping(pml.sigma(2, k + Real(0.5)), dt);
          a(i, j, k, BYZ) = wz.d1 * a(i, j, k, BYZ) +
                            wz.d2 * (-(Ex(i, j, k + 1) - Ex(i, j, k)) * idz);
        }
      }
      {
        const RefDamp wx = ref_damping(pml.sigma(0, i + Real(0.5)), dt);
        const RefDamp wy = ref_damping(pml.sigma(1, j + Real(0.5)), dt);
        a(i, j, k, BZX) = wx.d1 * a(i, j, k, BZX) +
                          wx.d2 * (-(Ey(i + 1, j, k) - Ey(i, j, k)) * idx);
        a(i, j, k, BZY) = wy.d1 * a(i, j, k, BZY) +
                          wy.d2 * ((Ex(i, j + 1, k) - Ex(i, j, k)) * idy);
      }
    };
    if constexpr (DIM == 2) {
      mrpic::serial_for(mf.valid_box(m), [&](int i, int j) { update(i, j, 0); });
    } else {
      mrpic::serial_for(mf.valid_box(m), [&](int i, int j, int k) { update(i, j, k); });
    }
  }
}

template <int DIM>
void ref_evolve_e(Pml<DIM>& pml, const mrpic::Geometry<DIM>& geom, Real dt) {
  const Real c2 = c * c;
  const Real idx = Real(1) / geom.cell_size(0);
  const Real idy = Real(1) / geom.cell_size(1);
  [[maybe_unused]] const Real idz = DIM == 3 ? Real(1) / geom.cell_size(2) : Real(0);
  auto& mf = pml.split_fab();
  for (int m = 0; m < mf.num_fabs(); ++m) {
    auto a = mf.array(m);
    auto Bx = [a](int i, int j, int k) { return a(i, j, k, BXY) + a(i, j, k, BXZ); };
    auto By = [a](int i, int j, int k) { return a(i, j, k, BYZ) + a(i, j, k, BYX); };
    auto Bz = [a](int i, int j, int k) { return a(i, j, k, BZX) + a(i, j, k, BZY); };
    auto update = [&](int i, int j, int k) {
      {
        const RefDamp wy = ref_damping(pml.sigma(1, Real(j)), dt);
        a(i, j, k, EXY) = wy.d1 * a(i, j, k, EXY) +
                          wy.d2 * (c2 * (Bz(i, j, k) - Bz(i, j - 1, k)) * idy);
        if constexpr (DIM == 3) {
          const RefDamp wz = ref_damping(pml.sigma(2, Real(k)), dt);
          a(i, j, k, EXZ) = wz.d1 * a(i, j, k, EXZ) +
                            wz.d2 * (-c2 * (By(i, j, k) - By(i, j, k - 1)) * idz);
        }
      }
      {
        const RefDamp wx = ref_damping(pml.sigma(0, Real(i)), dt);
        a(i, j, k, EYX) = wx.d1 * a(i, j, k, EYX) +
                          wx.d2 * (-c2 * (Bz(i, j, k) - Bz(i - 1, j, k)) * idx);
        if constexpr (DIM == 3) {
          const RefDamp wz = ref_damping(pml.sigma(2, Real(k)), dt);
          a(i, j, k, EYZ) = wz.d1 * a(i, j, k, EYZ) +
                            wz.d2 * (c2 * (Bx(i, j, k) - Bx(i, j, k - 1)) * idz);
        }
      }
      {
        const RefDamp wx = ref_damping(pml.sigma(0, Real(i)), dt);
        const RefDamp wy = ref_damping(pml.sigma(1, Real(j)), dt);
        a(i, j, k, EZX) = wx.d1 * a(i, j, k, EZX) +
                          wx.d2 * (c2 * (By(i, j, k) - By(i - 1, j, k)) * idx);
        a(i, j, k, EZY) = wy.d1 * a(i, j, k, EZY) +
                          wy.d2 * (-c2 * (Bx(i, j, k) - Bx(i, j - 1, k)) * idy);
      }
    };
    if constexpr (DIM == 2) {
      mrpic::serial_for(mf.valid_box(m), [&](int i, int j) { update(i, j, 0); });
    } else {
      mrpic::serial_for(mf.valid_box(m), [&](int i, int j, int k) { update(i, j, k); });
    }
  }
}

// Advance two copies of the same seeded random split fields, one through the
// tabulated Pml updates and one through the per-cell reference, over
// B(dt/2) E(dt) B(dt/2) and then the same with a new dt (a table rebuild);
// every stored value must agree exactly after every update.
template <int DIM>
void expect_tabulated_matches_reference(const mrpic::Geometry<DIM>& geom,
                                        const mrpic::Box<DIM>& inner,
                                        const std::array<bool, DIM>& absorb, int npml) {
  PmlConfig cfg;
  cfg.npml = npml;
  Pml<DIM> tab(geom, inner, absorb, cfg);
  Pml<DIM> ref(geom, inner, absorb, cfg);
  ASSERT_FALSE(tab.empty());
  std::mt19937_64 rng(20221);
  std::uniform_real_distribution<Real> u(-1, 1);
  for (int m = 0; m < tab.split_fab().num_fabs(); ++m) {
    auto& ft = tab.split_fab().fab(m);
    auto& fr = ref.split_fab().fab(m);
    for (std::size_t n = 0; n < ft.size(); ++n) { ft.data()[n] = fr.data()[n] = u(rng); }
  }
  const Real dt = cfl_dt(geom);
  int update = 0;
  for (const Real h : {dt, Real(0.8) * dt}) {
    for (const bool e_step : {false, true, false}) {
      if (e_step) {
        tab.evolve_e(h);
        ref_evolve_e(ref, geom, h);
      } else {
        tab.evolve_b(h / 2);
        ref_evolve_b(ref, geom, h / 2);
      }
      ++update;
      for (int m = 0; m < tab.split_fab().num_fabs(); ++m) {
        const auto& ft = tab.split_fab().fab(m);
        const auto& fr = ref.split_fab().fab(m);
        std::size_t mismatches = 0;
        for (std::size_t n = 0; n < ft.size(); ++n) {
          mismatches += ft.data()[n] == fr.data()[n] ? 0 : 1;
        }
        EXPECT_EQ(mismatches, 0u) << "update " << update << ", ring box " << m;
      }
    }
  }
}

TEST(Pml, TabulatedDampingMatchesPerCellUpdate) {
  // 2D: both directions absorb, the ring is off the index origin.
  const mrpic::Geometry<2> g2(
      mrpic::Box2(mrpic::IntVect2(-4, 3), mrpic::IntVect2(27, 22)), mrpic::RealVect2(0, 0),
      mrpic::RealVect2(2e-5, 1e-5), {false, false});
  expect_tabulated_matches_reference<2>(g2, g2.domain(), {true, true}, 7);
  // 3D: y is periodic (sigma == 0 throughout the table), anisotropic cells.
  const mrpic::Geometry<3> g3(
      mrpic::Box3(mrpic::IntVect3(0, -2, 5), mrpic::IntVect3(11, 9, 14)),
      mrpic::RealVect3(0, 0, 0), mrpic::RealVect3(1.2e-5, 1e-5, 0.8e-5),
      {false, true, false});
  expect_tabulated_matches_reference<3>(g3, g3.domain(), {true, false, true}, 5);
}

} // namespace
} // namespace mrpic::fields
