#include "src/particles/deposition.hpp"

#include <cmath>

#include "src/fields/yee.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {

using mrpic::constants::c;

namespace {

// Shape window for Esirkepov: old and new shapes on a common index range.
// A CFL-limited push moves a particle by less than one cell, so the union of
// the two supports spans at most ORDER+2 points.
template <int ORDER>
struct ShapePair {
  static constexpr int NW = ORDER + 2;
  Real S0[NW];
  Real S1[NW];
  Real DS[NW]; // S1 - S0
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
    for (int a = 0; a < NW; ++a) { DS[a] = S1[a] - S0[a]; }
  }
};

// Every J component is written row by row: each particle touches a
// contiguous i-row of its window at a time, through a pointer to the row's
// start. Prefix sums that run along y or z advance one row at a time, one
// running sum per column.
//
// A particle that did not move (xi_old == xi_new in every direction) has
// DS == +0 throughout: in 2D it deposits only Jz += cz (S0x S0y) over its
// (ORDER+1)^2 shape, and in 3D nothing. This is bit-identical to the full
// window. Every skipped term is a +-0 added to a J entry. That entry started
// at +0 (zero_current) and has since been only a round-to-nearest sum, which
// is -0 only when both addends are, so it is never -0 and x + (+-0) == x bit
// for bit. The still bracket S0x S0y + (+0 S0y + S0x +0)/2 + (+0 +0)/3 equals
// S0x S0y because B-spline weights are >= +0. A still particle with cz == 0
// (u_z == 0: gas at rest) would add only +-0 terms, so it deposits nothing;
// testing cz itself keeps a NaN or infinite u on the full path.
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
    const Real xo = (x_old[0][p] - lo[0]) * idx[0], xn = (tile.x[0][p] - lo[0]) * idx[0];
    const Real yo = (x_old[1][p] - lo[1]) * idx[1], yn = (tile.x[1][p] - lo[1]) * idx[1];
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real vz = tile.u[2][p] / std::sqrt(1 + u2 / (c * c));
    const Real cz = Q * vz / (dxv * dyv);
    if (xo == xn && yo == yn) { // did not move: Jz over the one shape
      if (cz == 0) { continue; }
      Real wx[ORDER + 1], wy[ORDER + 1];
      const int i0 = Shape<ORDER>::compute(wx, xo);
      const int j0 = Shape<ORDER>::compute(wy, yo);
      for (int b = 0; b <= ORDER; ++b) {
        Real* row = J.row(i0, j0 + b, 0, fields::Z, ORDER + 1);
        for (int a = 0; a <= ORDER; ++a) { row[a] += cz * (wx[a] * wy[b]); }
      }
      continue;
    }
    ShapePair<ORDER> sx, sy;
    sx.compute(xo, xn);
    sy.compute(yo, yn);
    const int i0 = sx.imin, j0 = sy.imin;

    // Jx: prefix sum along x of Wx = DSx * (S0y + DSy/2).
    const Real cx = -Q / (dyv * dt); // 2D: unit length in z
    for (int b = 0; b < NW; ++b) {
      const Real yfac = sy.S0[b] + Real(0.5) * sy.DS[b];
      Real* row = J.row(i0, j0 + b, 0, fields::X, NW - 1);
      Real acc = 0;
      for (int a = 0; a < NW - 1; ++a) { // last column sums to zero
        acc += sx.DS[a] * yfac;
        row[a] += cx * acc;
      }
    }
    // Jy: prefix sum along y of Wy = DSy * (S0x + DSx/2).
    const Real cy = -Q / (dxv * dt);
    Real xfac[NW], acc[NW];
    for (int a = 0; a < NW; ++a) {
      xfac[a] = sx.S0[a] + Real(0.5) * sx.DS[a];
      acc[a] = 0;
    }
    for (int b = 0; b < NW - 1; ++b) { // last row sums to zero
      Real* row = J.row(i0, j0 + b, 0, fields::Y, NW);
      for (int a = 0; a < NW; ++a) {
        acc[a] += sy.DS[b] * xfac[a];
        row[a] += cy * acc[a];
      }
    }
    // Jz (out-of-plane): direct deposition with the time-averaged shape
    // bracket Wz = S0x S0y + (DSx S0y + S0x DSy)/2 + DSx DSy / 3.
    for (int b = 0; b < NW; ++b) {
      Real* row = J.row(i0, j0 + b, 0, fields::Z, NW);
      for (int a = 0; a < NW; ++a) {
        const Real wz = sx.S0[a] * sy.S0[b] +
                        Real(0.5) * (sx.DS[a] * sy.S0[b] + sx.S0[a] * sy.DS[b]) +
                        sx.DS[a] * sy.DS[b] / 3;
        row[a] += cz * wz;
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

  // Esirkepov bracket for direction d1 given the two transverse shapes:
  // W = DS1 * (S0a S0b + (DSa S0b + S0a DSb)/2 + DSa DSb / 3).
  const auto bracket = [](const ShapePair<ORDER>& sa, const ShapePair<ORDER>& sb, int a,
                          int b) {
    return sa.S0[a] * sb.S0[b] + Real(0.5) * (sa.DS[a] * sb.S0[b] + sa.S0[a] * sb.DS[b]) +
           sa.DS[a] * sb.DS[b] / 3;
  };

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p];
    Real xi_old[3], xi_new[3];
    for (int d = 0; d < 3; ++d) {
      xi_old[d] = (x_old[d][p] - lo[d]) * idx[d];
      xi_new[d] = (tile.x[d][p] - lo[d]) * idx[d];
    }
    if (xi_old[0] == xi_new[0] && xi_old[1] == xi_new[1] && xi_old[2] == xi_new[2]) {
      continue; // did not move: every term is +-0
    }
    ShapePair<ORDER> sx, sy, sz;
    sx.compute(xi_old[0], xi_new[0]);
    sy.compute(xi_old[1], xi_new[1]);
    sz.compute(xi_old[2], xi_new[2]);
    const int i0 = sx.imin, j0 = sy.imin, k0 = sz.imin;

    const Real cx = -Q / (dyv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      for (int b = 0; b < NW; ++b) {
        const Real t = bracket(sy, sz, b, cc);
        Real* row = J.row(i0, j0 + b, k0 + cc, fields::X, NW - 1);
        Real acc = 0;
        for (int a = 0; a < NW - 1; ++a) {
          acc += sx.DS[a] * t;
          row[a] += cx * acc;
        }
      }
    }
    const Real cy = -Q / (dxv * dzv * dt);
    for (int cc = 0; cc < NW; ++cc) {
      Real t[NW], acc[NW];
      for (int a = 0; a < NW; ++a) {
        t[a] = bracket(sx, sz, a, cc);
        acc[a] = 0;
      }
      for (int b = 0; b < NW - 1; ++b) {
        Real* row = J.row(i0, j0 + b, k0 + cc, fields::Y, NW);
        for (int a = 0; a < NW; ++a) {
          acc[a] += sy.DS[b] * t[a];
          row[a] += cy * acc[a];
        }
      }
    }
    const Real cz = -Q / (dxv * dyv * dt);
    Real t[NW][NW], acc[NW][NW];
    for (int b = 0; b < NW; ++b) {
      for (int a = 0; a < NW; ++a) {
        t[b][a] = bracket(sx, sy, a, b);
        acc[b][a] = 0;
      }
    }
    for (int cc = 0; cc < NW - 1; ++cc) {
      for (int b = 0; b < NW; ++b) {
        Real* row = J.row(i0, j0 + b, k0 + cc, fields::Z, NW);
        for (int a = 0; a < NW; ++a) {
          acc[b][a] += sz.DS[cc] * t[b][a];
          row[a] += cz * acc[b][a];
        }
      }
    }
  }
}

// Deposits amp * S over one component's stencil, staggered S in each
// direction, a contiguous i-row at a time.
template <int DIM, int ORDER, std::array<int, 3> S>
void deposit_component(const Array4<Real>& J, int comp, Real amp,
                       const StaggeredShape<ORDER>* sh) {
  constexpr int N = ORDER + 1;
  const Real* wx = sh[0].w[S[0]];
  const Real* wy = sh[1].w[S[1]];
  const int i0 = sh[0].first[S[0]];
  const int j0 = sh[1].first[S[1]];
  if constexpr (DIM == 2) {
    for (int b = 0; b < N; ++b) {
      Real* row = J.row(i0, j0 + b, 0, comp, N);
      for (int a = 0; a < N; ++a) { row[a] += amp * wx[a] * wy[b]; }
    }
  } else {
    const Real* wz = sh[2].w[S[2]];
    const int k0 = sh[2].first[S[2]];
    for (int cc = 0; cc < N; ++cc) {
      for (int b = 0; b < N; ++b) {
        Real* row = J.row(i0, j0 + b, k0 + cc, comp, N);
        for (int a = 0; a < N; ++a) { row[a] += amp * wx[a] * wy[b] * wz[cc]; }
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
  using fields::j_stag3;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real u2 = tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                    tile.u[2][p] * tile.u[2][p];
    const Real invg = 1 / std::sqrt(1 + u2 / (c * c));
    const Real Qv = charge * tile.w[p] / dv;

    StaggeredShape<ORDER> sh[DIM];
    for (int d = 0; d < DIM; ++d) {
      sh[d].compute((Real(0.5) * (x_old[d][p] + tile.x[d][p]) - lo[d]) * idx[d]);
    }
    deposit_component<DIM, ORDER, j_stag3[0]>(J, 0, Qv * tile.u[0][p] * invg, sh);
    deposit_component<DIM, ORDER, j_stag3[1]>(J, 1, Qv * tile.u[1][p] * invg, sh);
    deposit_component<DIM, ORDER, j_stag3[2]>(J, 2, Qv * tile.u[2][p] * invg, sh);
  }
}

template <int DIM, int ORDER>
void charge_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<Real>& rho, Real charge) {
  constexpr int N = ORDER + 1;
  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= geom.cell_size(d); }

  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real Q = charge * tile.w[p] / dv;
    Real w[DIM][N];
    int start[DIM];
    for (int d = 0; d < DIM; ++d) {
      start[d] = Shape<ORDER>::compute(w[d], (tile.x[d][p] - lo[d]) * idx[d]);
    }
    if constexpr (DIM == 2) {
      for (int b = 0; b < N; ++b) {
        Real* row = rho.row(start[0], start[1] + b, 0, 0, N);
        for (int a = 0; a < N; ++a) { row[a] += Q * w[0][a] * w[1][b]; }
      }
    } else {
      for (int cc = 0; cc < N; ++cc) {
        for (int b = 0; b < N; ++b) {
          Real* row = rho.row(start[0], start[1] + b, start[2] + cc, 0, N);
          for (int a = 0; a < N; ++a) { row[a] += Q * w[0][a] * w[1][b] * w[2][cc]; }
        }
      }
    }
  }
}

} // namespace

template <int DIM>
void deposit_current(DepositionKind kind, int order, const ParticleTile<DIM>& tile,
                     const std::array<std::vector<Real>, DIM>& x_old,
                     const mrpic::Geometry<DIM>& geom, const Array4<Real>& J, Real charge,
                     Real dt) {
  with_shape_order(order, [&](auto o) {
    constexpr int ORDER = decltype(o)::value;
    if (kind == DepositionKind::Direct) {
      direct_deposit<DIM, ORDER>(tile, x_old, geom, J, charge);
      return;
    }
    if constexpr (DIM == 2) {
      esirkepov_2d<ORDER>(tile, x_old, geom, J, charge, dt);
    } else {
      esirkepov_3d<ORDER>(tile, x_old, geom, J, charge, dt);
    }
  });
}

template <int DIM>
void deposit_charge(int order, const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                    const Array4<Real>& rho, Real charge) {
  with_shape_order(order, [&](auto o) {
    charge_impl<DIM, decltype(o)::value>(tile, geom, rho, charge);
  });
}

std::int64_t deposit_flops_per_particle(int order, int dim) {
  const int nw = order + 2;
  // Shape pairs: 2 evaluations per dim; brackets + prefix sums per window
  // point; see esirkepov_*d above. An upper bound for a particle that did
  // not move.
  const std::int64_t shape_cost = 2 * dim * (order == 1 ? 2 : order == 2 ? 9 : 16);
  if (dim == 2) { return shape_cost + 2 * nw * (2 + 3 * (nw - 1)) + nw * nw * 9; }
  return shape_cost + 3 * nw * nw * (8 + 3 * (nw - 1));
}

template void deposit_current<2>(DepositionKind, int, const ParticleTile<2>&,
                                 const std::array<std::vector<Real>, 2>&,
                                 const mrpic::Geometry<2>&, const Array4<Real>&, Real, Real);
template void deposit_current<3>(DepositionKind, int, const ParticleTile<3>&,
                                 const std::array<std::vector<Real>, 3>&,
                                 const mrpic::Geometry<3>&, const Array4<Real>&, Real, Real);
template void deposit_charge<2>(int, const ParticleTile<2>&, const mrpic::Geometry<2>&,
                                const Array4<Real>&, Real);
template void deposit_charge<3>(int, const ParticleTile<3>&, const mrpic::Geometry<3>&,
                                const Array4<Real>&, Real);

} // namespace mrpic::particles
