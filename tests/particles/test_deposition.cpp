#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>

#include "src/diag/diagnostics.hpp"
#include "src/fields/yee.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {
namespace {

using mrpic::constants::c;

// The per-tap deposits the row-walked kernels replaced, kept as the
// reference they must match bit for bit: every tap indexes the fab through
// Array4::operator(), and the direct deposit reads its staggering from the
// run-time table.
namespace ref {

// Shape window for Esirkepov: old and new shapes on a common index range.
// A CFL-limited push moves a particle by less than one cell, so the union of
// the two supports spans at most ORDER+2 points.
template <int ORDER>
struct ShapePair {
  static constexpr int NW = ORDER + 2;
  Real S0[NW];
  Real S1[NW];
  int imin;

  void compute(Real xi_old, Real xi_new) {
    Real w0[ORDER + 1], w1[ORDER + 1];
    const int i0 = Shape<ORDER>::compute(w0, xi_old);
    const int i1 = Shape<ORDER>::compute(w1, xi_new);
    imin = std::min(i0, i1);
    for (int a = 0; a < NW; ++a) {
      S0[a] = 0;
      S1[a] = 0;
    }
    for (int a = 0; a <= ORDER; ++a) {
      S0[a + i0 - imin] = w0[a];
      S1[a + i1 - imin] = w1[a];
    }
  }
  Real ds(int a) const { return S1[a] - S0[a]; }
};

template <int ORDER>
void esirkepov_2d(const ParticleTile<2>& tile, const std::array<std::vector<Real>, 2>& x_old,
                  const mrpic::Geometry<2>& geom, const Array4<Real>& J, Real charge,
                  Real dt) {
  constexpr int NW = ORDER + 2;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  const Real dxv = geom.cell_size(0), dyv = geom.cell_size(1);

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p];
    ShapePair<ORDER> sx, sy;
    sx.compute((x_old[0][p] - lo[0]) * idx[0], (tile.x[0][p] - lo[0]) * idx[0]);
    sy.compute((x_old[1][p] - lo[1]) * idx[1], (tile.x[1][p] - lo[1]) * idx[1]);

    // Jx: prefix sum along x of Wx = DSx * (S0y + DSy/2).
    const Real cx = -Q / (dyv * dt); // 2D: unit length in z
    for (int b = 0; b < NW; ++b) {
      const Real yfac = sy.S0[b] + Real(0.5) * sy.ds(b);
      Real acc = 0;
      for (int a = 0; a < NW - 1; ++a) { // last column sums to zero
        acc += sx.ds(a) * yfac;
        J(sx.imin + a, sy.imin + b, 0, fields::X) += cx * acc;
      }
    }
    // Jy: prefix sum along y of Wy = DSy * (S0x + DSx/2).
    const Real cy = -Q / (dxv * dt);
    for (int a = 0; a < NW; ++a) {
      const Real xfac = sx.S0[a] + Real(0.5) * sx.ds(a);
      Real acc = 0;
      for (int b = 0; b < NW - 1; ++b) {
        acc += sy.ds(b) * xfac;
        J(sx.imin + a, sy.imin + b, 0, fields::Y) += cy * acc;
      }
    }
    // Jz (out-of-plane): direct deposition with the time-averaged shape
    // bracket Wz = S0x S0y + (DSx S0y + S0x DSy)/2 + DSx DSy / 3.
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real vz = tile.u[2][p] / std::sqrt(1 + u2 / (c * c));
    const Real cz = Q * vz / (dxv * dyv);
    for (int b = 0; b < NW; ++b) {
      for (int a = 0; a < NW; ++a) {
        const Real wz = sx.S0[a] * sy.S0[b] +
                        Real(0.5) * (sx.ds(a) * sy.S0[b] + sx.S0[a] * sy.ds(b)) +
                        sx.ds(a) * sy.ds(b) / 3;
        J(sx.imin + a, sy.imin + b, 0, fields::Z) += cz * wz;
      }
    }
  }
}

template <int ORDER>
void esirkepov_3d(const ParticleTile<3>& tile, const std::array<std::vector<Real>, 3>& x_old,
                  const mrpic::Geometry<3>& geom, const Array4<Real>& J, Real charge,
                  Real dt) {
  constexpr int NW = ORDER + 2;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  const Real dxv = geom.cell_size(0), dyv = geom.cell_size(1), dzv = geom.cell_size(2);

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p];
    ShapePair<ORDER> sx, sy, sz;
    sx.compute((x_old[0][p] - lo[0]) * idx[0], (tile.x[0][p] - lo[0]) * idx[0]);
    sy.compute((x_old[1][p] - lo[1]) * idx[1], (tile.x[1][p] - lo[1]) * idx[1]);
    sz.compute((x_old[2][p] - lo[2]) * idx[2], (tile.x[2][p] - lo[2]) * idx[2]);

    // Esirkepov bracket for direction d1 given the two transverse shapes:
    // W = DS1 * (S0a S0b + (DSa S0b + S0a DSb)/2 + DSa DSb / 3).
    auto bracket = [](const auto& sa, const auto& sb, int a, int b) {
      return sa.S0[a] * sb.S0[b] +
             Real(0.5) * (sa.ds(a) * sb.S0[b] + sa.S0[a] * sb.ds(b)) +
             sa.ds(a) * sb.ds(b) / 3;
    };

    const Real cx = -Q / (dyv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      for (int b = 0; b < NW; ++b) {
        const Real t = bracket(sy, sz, b, cc);
        Real acc = 0;
        for (int a = 0; a < NW - 1; ++a) {
          acc += sx.ds(a) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::X) += cx * acc;
        }
      }
    }
    const Real cy = -Q / (dxv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      for (int a = 0; a < NW; ++a) {
        const Real t = bracket(sx, sz, a, cc);
        Real acc = 0;
        for (int b = 0; b < NW - 1; ++b) {
          acc += sy.ds(b) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::Y) += cy * acc;
        }
      }
    }
    const Real cz = -Q / (dxv * dyv * dt);
    for (int b = 0; b < NW; ++b) {
      for (int a = 0; a < NW; ++a) {
        const Real t = bracket(sx, sy, a, b);
        Real acc = 0;
        for (int cc = 0; cc < NW - 1; ++cc) {
          acc += sz.ds(cc) * t;
          J(sx.imin + a, sy.imin + b, sz.imin + cc, fields::Z) += cz * acc;
        }
      }
    }
  }
}

// Direct (non-charge-conserving) deposition: J += q w v S(x_mid) at the
// Yee-staggered component locations.
template <int DIM, int ORDER>
void direct_deposit(const ParticleTile<DIM>& tile,
                    const std::array<std::vector<Real>, DIM>& x_old,
                    const mrpic::Geometry<DIM>& geom, const Array4<Real>& J, Real charge) {
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real invg = 1 / std::sqrt(1 + u2 / (c * c));
    const Real Qv = charge * tile.w[p] / dv;

    Real xi_mid[DIM];
    for (int d = 0; d < DIM; ++d) {
      xi_mid[d] = (Real(0.5) * (x_old[d][p] + tile.x[d][p]) - lo[d]) * idx[d];
    }

    for (int comp = 0; comp < 3; ++comp) {
      const auto& stag = fields::j_stag3[comp];
      Real w[DIM][ORDER + 1];
      int start[DIM];
      for (int d = 0; d < DIM; ++d) {
        start[d] = Shape<ORDER>::compute(w[d], xi_mid[d] - Real(0.5) * stag[d]);
      }
      const Real amp = Qv * tile.u[comp][p] * invg;
      if constexpr (DIM == 2) {
        for (int b = 0; b <= ORDER; ++b) {
          for (int a = 0; a <= ORDER; ++a) {
            J(start[0] + a, start[1] + b, 0, comp) += amp * w[0][a] * w[1][b];
          }
        }
      } else {
        for (int cc = 0; cc <= ORDER; ++cc) {
          for (int b = 0; b <= ORDER; ++b) {
            for (int a = 0; a <= ORDER; ++a) {
              J(start[0] + a, start[1] + b, start[2] + cc, comp) +=
                  amp * w[0][a] * w[1][b] * w[2][cc];
            }
          }
        }
      }
    }
  }
}

template <int DIM, int ORDER>
void charge_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<Real>& rho, Real charge) {
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p] / dv;
    Real w[DIM][ORDER + 1];
    int start[DIM];
    for (int d = 0; d < DIM; ++d) {
      start[d] = Shape<ORDER>::compute(w[d], (tile.x[d][p] - lo[d]) * idx[d]);
    }
    if constexpr (DIM == 2) {
      for (int b = 0; b <= ORDER; ++b) {
        for (int a = 0; a <= ORDER; ++a) {
          rho(start[0] + a, start[1] + b, 0, 0) += Q * w[0][a] * w[1][b];
        }
      }
    } else {
      for (int cc = 0; cc <= ORDER; ++cc) {
        for (int b = 0; b <= ORDER; ++b) {
          for (int a = 0; a <= ORDER; ++a) {
            rho(start[0] + a, start[1] + b, start[2] + cc, 0) +=
                Q * w[0][a] * w[1][b] * w[2][cc];
          }
        }
      }
    }
  }
}

} // namespace ref

template <int DIM>
mrpic::Geometry<DIM> make_geom(int n) {
  if constexpr (DIM == 2) {
    return mrpic::Geometry<2>(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1)),
                              mrpic::RealVect2(0, 0), mrpic::RealVect2(n * 1e-7, n * 1e-7),
                              {true, true});
  } else {
    return mrpic::Geometry<3>(
        mrpic::Box3(mrpic::IntVect3(0, 0, 0), mrpic::IntVect3(n - 1, n - 1, n - 1)),
        mrpic::RealVect3(0, 0, 0), mrpic::RealVect3(n * 1e-7, n * 1e-7, n * 1e-7),
        {true, true, true});
  }
}

// The central charge-conservation property (Esirkepov): the deposited J
// satisfies (rho_new - rho_old)/dt + div J = 0 on the Yee lattice, to
// round-off, for arbitrary sub-cell motion.
template <int DIM>
void check_continuity(int order, std::uint64_t seed) {
  const int n = 16;
  const auto geom = make_geom<DIM>(n);
  const mrpic::BoxArray<DIM> ba(geom.domain());
  mrpic::MultiFab<DIM> J(ba, 3, mrpic::default_num_ghost);
  mrpic::MultiFab<DIM> rho_old(ba, 1, mrpic::default_num_ghost);
  mrpic::MultiFab<DIM> rho_new(ba, 1, mrpic::default_num_ghost);

  const Real dx = geom.cell_size(0);
  const Real dt = 0.5 * dx / c;
  const Real q = -mrpic::constants::q_e;

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(2.0, n - 3.0);
  std::uniform_real_distribution<double> mov(-0.9, 0.9);

  ParticleTile<DIM> tile;
  std::array<std::vector<Real>, DIM> x_old;
  for (int p = 0; p < 40; ++p) {
    std::array<Real, DIM> xo, xn;
    std::array<Real, 3> u{};
    for (int d = 0; d < DIM; ++d) {
      xo[d] = pos(rng) * dx;
      xn[d] = xo[d] + mov(rng) * c * dt; // |displacement| < 1 cell
    }
    // Momentum consistent with the displacement (matters only for Jz in 2D).
    Real disp2 = 0;
    for (int d = 0; d < DIM; ++d) { disp2 += (xn[d] - xo[d]) * (xn[d] - xo[d]); }
    const Real v = std::sqrt(disp2) / dt;
    const Real gamma = 1 / std::sqrt(1 - v * v / (c * c));
    for (int d = 0; d < DIM; ++d) { u[d] = gamma * (xn[d] - xo[d]) / dt; }
    tile.push_back(xn, u, 1.0 + 0.1 * p);
    for (int d = 0; d < DIM; ++d) { x_old[d].push_back(xo[d]); }
  }

  // rho_old at x_old: temporarily swap positions.
  ParticleTile<DIM> tile_old = tile;
  for (int d = 0; d < DIM; ++d) { tile_old.x[d] = x_old[d]; }
  deposit_charge<DIM>(order, tile_old, geom, rho_old.array(0), q);
  deposit_charge<DIM>(order, tile, geom, rho_new.array(0), q);
  deposit_current<DIM>(DepositionKind::Esirkepov, order, tile, x_old, geom, J.array(0), q,
                       dt);

  const Real resid = mrpic::diag::continuity_residual<DIM>(rho_old, rho_new, J, geom, dt);
  // Scale: typical |drho/dt|.
  const Real scale = rho_new.max_abs(0) / dt;
  EXPECT_LT(resid, 1e-10 * scale) << "order " << order << " DIM " << DIM;
}

class Continuity2D : public ::testing::TestWithParam<int> {};
TEST_P(Continuity2D, EsirkepovConservesCharge) { check_continuity<2>(GetParam(), 11); }
INSTANTIATE_TEST_SUITE_P(Orders, Continuity2D, ::testing::Values(1, 2, 3));

class Continuity3D : public ::testing::TestWithParam<int> {};
TEST_P(Continuity3D, EsirkepovConservesCharge) { check_continuity<3>(GetParam(), 13); }
INSTANTIATE_TEST_SUITE_P(Orders, Continuity3D, ::testing::Values(1, 2, 3));

TEST(Deposition, TotalCurrentMatchesChargeFlux) {
  // Integral of Esirkepov J over the grid equals q w <v> (each component):
  // sum_i Jx * dV = Q * (x_new - x_old) / dt.
  const int n = 16;
  const auto geom = make_geom<2>(n);
  mrpic::MultiFab<2> J(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0);
  const Real dt = 0.5 * dx / c;
  const Real q = -mrpic::constants::q_e;
  const Real w = 3.0;

  ParticleTile<2> tile;
  std::array<std::vector<Real>, 2> x_old;
  const std::array<Real, 2> xo = {7.3 * dx, 8.6 * dx};
  const std::array<Real, 2> xn = {7.9 * dx, 8.2 * dx};
  tile.push_back(xn, {0, 0, 0}, w);
  x_old[0].push_back(xo[0]);
  x_old[1].push_back(xo[1]);
  deposit_current<2>(DepositionKind::Esirkepov, 3, tile, x_old, geom, J.array(0), q, dt);

  const Real dv = dx * dx; // unit z-depth
  EXPECT_NEAR(J.sum(0) * dv, q * w * (xn[0] - xo[0]) / dt,
              std::abs(q * w * dx / dt) * 1e-10);
  EXPECT_NEAR(J.sum(1) * dv, q * w * (xn[1] - xo[1]) / dt,
              std::abs(q * w * dx / dt) * 1e-10);
}

TEST(Deposition, OutOfPlaneCurrent2D) {
  // Jz in 2D deposits q w vz S: integral = q w vz.
  const int n = 16;
  const auto geom = make_geom<2>(n);
  mrpic::MultiFab<2> J(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0);
  const Real dt = 0.4 * dx / c;
  const Real q = -mrpic::constants::q_e;
  const Real uz = 0.3 * c;
  const Real gamma = 1 / std::sqrt(1 - 0.09);

  ParticleTile<2> tile;
  std::array<std::vector<Real>, 2> x_old;
  tile.push_back({8.5 * dx, 8.5 * dx}, {0, 0, gamma * uz}, 2.0);
  x_old[0].push_back(8.5 * dx);
  x_old[1].push_back(8.5 * dx);
  deposit_current<2>(DepositionKind::Esirkepov, 3, tile, x_old, geom, J.array(0), q, dt);
  EXPECT_NEAR(J.sum(2) * dx * dx, q * 2.0 * uz, std::abs(q * 2.0 * uz) * 1e-10);
}

TEST(Deposition, DirectMatchesEsirkepovIntegral) {
  // The two schemes distribute differently but the total deposited current
  // must agree (same physical charge flux).
  const int n = 16;
  const auto geom = make_geom<2>(n);
  mrpic::MultiFab<2> Je(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  mrpic::MultiFab<2> Jd(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0);
  const Real dt = 0.5 * dx / c;
  const Real q = -mrpic::constants::q_e;

  ParticleTile<2> tile;
  std::array<std::vector<Real>, 2> x_old;
  const Real vx = 0.4 * c;
  const Real gamma = 1 / std::sqrt(1 - 0.16);
  const std::array<Real, 2> xo = {6.2 * dx, 9.1 * dx};
  const std::array<Real, 2> xn = {xo[0] + vx * dt, xo[1]};
  tile.push_back(xn, {gamma * vx, 0, 0}, 1.0);
  x_old[0].push_back(xo[0]);
  x_old[1].push_back(xo[1]);

  deposit_current<2>(DepositionKind::Esirkepov, 3, tile, x_old, geom, Je.array(0), q, dt);
  deposit_current<2>(DepositionKind::Direct, 3, tile, x_old, geom, Jd.array(0), q, dt);
  EXPECT_NEAR(Je.sum(0), Jd.sum(0), std::abs(Je.sum(0)) * 1e-9);
}

TEST(Deposition, ChargeDepositTotal) {
  const int n = 12;
  const auto geom = make_geom<3>(n);
  mrpic::MultiFab<3> rho(mrpic::BoxArray<3>(geom.domain()), 1, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0);
  const Real q = mrpic::constants::q_e;

  ParticleTile<3> tile;
  tile.push_back({5.3 * dx, 6.1 * dx, 4.9 * dx}, {0, 0, 0}, 7.0);
  tile.push_back({2.8 * dx, 3.3 * dx, 8.2 * dx}, {0, 0, 0}, 1.5);
  deposit_charge<3>(3, tile, geom, rho.array(0), q);
  // Integral of rho dV = total charge.
  EXPECT_NEAR(rho.sum(0) * dx * dx * dx, q * 8.5, q * 8.5 * 1e-10);
}

TEST(Deposition, StationaryParticleNoInPlaneCurrent) {
  const int n = 12;
  const auto geom = make_geom<2>(n);
  mrpic::MultiFab<2> J(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0);
  ParticleTile<2> tile;
  std::array<std::vector<Real>, 2> x_old;
  tile.push_back({5.5 * dx, 5.5 * dx}, {0, 0, 0}, 1.0);
  x_old[0].push_back(5.5 * dx);
  x_old[1].push_back(5.5 * dx);
  deposit_current<2>(DepositionKind::Esirkepov, 3, tile, x_old, geom, J.array(0),
                     -mrpic::constants::q_e, 1e-16);
  EXPECT_EQ(J.max_abs(0), 0.0);
  EXPECT_EQ(J.max_abs(1), 0.0);
  EXPECT_EQ(J.max_abs(2), 0.0);
}

// A level of 2^DIM boxes with a physical origin off zero; the kernels run
// against the last box, whose lower corner is off the index origin too.
template <int DIM>
mrpic::Geometry<DIM> offset_geom(int n) {
  mrpic::Box<DIM> domain(mrpic::IntVect<DIM>(0), mrpic::IntVect<DIM>(n - 1));
  mrpic::RealVect<DIM> lo, hi;
  for (int d = 0; d < DIM; ++d) {
    lo[d] = -3e-7 + 1.1e-7 * d;
    hi[d] = lo[d] + n * 1e-7;
  }
  return mrpic::Geometry<DIM>(domain, lo, hi, {});
}

// Pre- and post-push positions in `box` (x_old, tile.x), in cell units
// from the box's low corner: random sub-cell moves, moves across a cell
// face, moves in the lowest half cell (the half-shifted stencils reach the
// low ghost layer) and moves out through the low and high faces, as a
// deposit before redistribution sees them. Every motion class appears
// explicitly: still in every direction, still along all axes but one and
// along one axis only, within a cell, and across a face upward and downward
// along each axis, both an integer face (orders 1 and 3) and a half-integer
// one (order 2). Every particle has u != 0 but the still ones with
// u_z = +-0: at rest, at rest with u_z = -0, and moving in x or y only.
template <int DIM>
void crossing_particles(const mrpic::Geometry<DIM>& geom, const mrpic::Box<DIM>& box,
                        std::uint64_t seed, ParticleTile<DIM>& tile,
                        std::array<std::vector<Real>, DIM>& x_old) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> sym(-1.0, 1.0);
  const Real n = box.length(0);
  const auto place = [&](const std::array<Real, DIM>& from, const std::array<Real, DIM>& to) {
    std::array<Real, DIM> xo, xn;
    for (int d = 0; d < DIM; ++d) {
      xo[d] = geom.prob_lo()[d] + (box.lo(d) + from[d]) * geom.cell_size(d);
      xn[d] = geom.prob_lo()[d] + (box.lo(d) + to[d]) * geom.cell_size(d);
    }
    tile.push_back(xn, {c * sym(rng), c * sym(rng), 3 * c * sym(rng)}, 1.0 + sym(rng) / 2);
    for (int d = 0; d < DIM; ++d) { x_old[d].push_back(xo[d]); }
  };
  const std::pair<Real, Real> moves[] = {
      {2.9, 3.2}, {3.2, 2.9}, {0.1, 0.4}, {0.45, 0.05}, {0.2, -0.3},
      {n - 0.2, n + 0.5}, {2.5, 2.5}, {1.0, 1.75}, {4.49, 4.51}};
  for (const auto& [a, b] : moves) {
    std::array<Real, DIM> from, to;
    from.fill(a);
    to.fill(b);
    place(from, to);
    from[0] = 1.3; // mixed: the crossing in y (and z) only
    to[0] = 1.6;
    place(from, to);
  }
  const std::pair<Real, Real> axis_moves[] = {{3.3, 3.3}, {3.2, 3.45}, {3.9, 4.1},
                                              {4.1, 3.9}, {3.4, 3.6},  {3.6, 3.4}};
  for (int d = 0; d < DIM; ++d) {
    for (const auto& [oa, ob] : {std::pair<Real, Real>{3.3, 3.3}, {3.2, 3.45}, {3.9, 4.1}}) {
      for (const auto& [a, b] : axis_moves) {
        std::array<Real, DIM> from, to;
        from.fill(oa); // the other axes stay, move within a cell, or cross one
        to.fill(ob);
        from[d] = a;
        to[d] = b;
        place(from, to);
      }
    }
  }
  for (const std::array<Real, 3>& u : {std::array<Real, 3>{0, 0, 0}, {0, 0, -0.0},
                                       {c / 2, 0, 0}, {0, -c / 3, 0}}) {
    for (const Real a : {2.5, 3.3, 0.1}) {
      std::array<Real, DIM> at;
      at.fill(a);
      place(at, at);
      for (int cc = 0; cc < 3; ++cc) { tile.u[cc].back() = u[cc]; }
    }
  }
  std::uniform_real_distribution<Real> cell(0.0, n);
  for (int p = 0; p < 200; ++p) {
    std::array<Real, DIM> from, to;
    for (int d = 0; d < DIM; ++d) {
      from[d] = cell(rng);
      to[d] = from[d] + 0.95 * sym(rng);
    }
    place(from, to);
  }
}

// Entries of fab m whose bit patterns differ, so a +0/-0 flip counts too.
template <int DIM>
std::size_t fab_mismatches(const mrpic::MultiFab<DIM>& a, const mrpic::MultiFab<DIM>& b,
                           int m) {
  std::size_t bad = 0;
  for (std::size_t n = 0; n < a.fab(m).size(); ++n) {
    if (std::memcmp(a.fab(m).data() + n, b.fab(m).data() + n, sizeof(Real)) != 0) { ++bad; }
  }
  return bad;
}

template <int DIM, int ORDER>
void check_deposits_match_per_tap(std::uint64_t seed) {
  const auto geom = offset_geom<DIM>(16);
  const auto ba = mrpic::BoxArray<DIM>::decompose(geom.domain(), 8);
  const int m = ba.size() - 1;
  // Two tiles deposit into one J, so the kernels also accumulate.
  ParticleTile<DIM> tiles[2];
  std::array<std::vector<Real>, DIM> x_old[2];
  for (int t = 0; t < 2; ++t) {
    crossing_particles<DIM>(geom, ba[m], seed + 1000 * t, tiles[t], x_old[t]);
  }
  const Real dt = 0.5 * geom.cell_size(0) / c;
  const Real q = -mrpic::constants::q_e;

  for (auto kind : {DepositionKind::Esirkepov, DepositionKind::Direct}) {
    mrpic::MultiFab<DIM> got(ba, 3, mrpic::default_num_ghost);
    mrpic::MultiFab<DIM> want(ba, 3, mrpic::default_num_ghost);
    for (int t = 0; t < 2; ++t) {
      const auto& tile = tiles[t];
      deposit_current<DIM>(kind, ORDER, tile, x_old[t], geom, got.array(m), q, dt);
      if (kind == DepositionKind::Direct) {
        ref::direct_deposit<DIM, ORDER>(tile, x_old[t], geom, want.array(m), q);
      } else if constexpr (DIM == 2) {
        ref::esirkepov_2d<ORDER>(tile, x_old[t], geom, want.array(m), q, dt);
      } else {
        ref::esirkepov_3d<ORDER>(tile, x_old[t], geom, want.array(m), q, dt);
      }
    }
    EXPECT_GT(got.max_abs(0), 0.0);
    EXPECT_EQ(fab_mismatches(got, want, m), 0u)
        << (kind == DepositionKind::Direct ? "direct" : "Esirkepov") << " order " << ORDER
        << " DIM " << DIM;
  }

  mrpic::MultiFab<DIM> got(ba, 1, mrpic::default_num_ghost);
  mrpic::MultiFab<DIM> want(ba, 1, mrpic::default_num_ghost);
  for (int t = 0; t < 2; ++t) {
    deposit_charge<DIM>(ORDER, tiles[t], geom, got.array(m), q);
    ref::charge_impl<DIM, ORDER>(tiles[t], geom, want.array(m), q);
  }
  EXPECT_EQ(fab_mismatches(got, want, m), 0u) << "charge order " << ORDER << " DIM " << DIM;
}

TEST(Deposition, RowWalkedMatchesPerTap2D) {
  check_deposits_match_per_tap<2, 1>(51);
  check_deposits_match_per_tap<2, 2>(52);
  check_deposits_match_per_tap<2, 3>(53);
}

TEST(Deposition, RowWalkedMatchesPerTap3D) {
  check_deposits_match_per_tap<3, 1>(61);
  check_deposits_match_per_tap<3, 2>(62);
  check_deposits_match_per_tap<3, 3>(63);
}

TEST(Deposition, UnsupportedOrderThrows) {
  const auto geom = make_geom<2>(8);
  mrpic::MultiFab<2> J(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  ParticleTile<2> tile;
  std::array<std::vector<Real>, 2> x_old;
  tile.push_back({1e-7, 1e-7}, {0, 0, 0}, 1.0);
  x_old[0].push_back(1e-7);
  x_old[1].push_back(1e-7);
  for (int order : {0, 4}) {
    for (auto kind : {DepositionKind::Esirkepov, DepositionKind::Direct}) {
      EXPECT_THROW(deposit_current<2>(kind, order, tile, x_old, geom, J.array(0), 1.0, 1e-16),
                   std::invalid_argument);
    }
    EXPECT_THROW(deposit_charge<2>(order, tile, geom, J.array(0), 1.0), std::invalid_argument);
  }
}

} // namespace
} // namespace mrpic::particles
