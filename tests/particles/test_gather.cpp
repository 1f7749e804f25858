#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "src/amr/multifab.hpp"
#include "src/amr/parallel_for.hpp"
#include "src/fields/yee.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {
namespace {

mrpic::Geometry<2> make_geom2(int n) {
  return mrpic::Geometry<2>(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1)),
                            mrpic::RealVect2(0, 0), mrpic::RealVect2(n * 1e-7, n * 1e-7),
                            {false, false});
}

TEST(Gather, UniformFieldIsExact) {
  const int n = 16;
  const auto geom = make_geom2(n);
  mrpic::MultiFab<2> E(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  mrpic::MultiFab<2> B(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  E.set_val(3.0);
  B.set_val(-2.0);

  ParticleTile<2> tile;
  const Real dx = geom.cell_size(0);
  tile.push_back({5.37 * dx, 9.11 * dx}, {0, 0, 0}, 1.0);
  tile.push_back({8.0 * dx, 3.5 * dx}, {0, 0, 0}, 1.0);

  GatheredFields out;
  for (int order : {1, 2, 3}) {
    gather_fields<2>(order, tile, geom, E.const_array(0), B.const_array(0), out);
    for (std::size_t p = 0; p < tile.size(); ++p) {
      for (int cc = 0; cc < 3; ++cc) {
        EXPECT_NEAR(out.E[cc][p], 3.0, 1e-12) << "order " << order;
        EXPECT_NEAR(out.B[cc][p], -2.0, 1e-12) << "order " << order;
      }
    }
  }
}

TEST(Gather, LinearFieldReproducedExactly) {
  // B-spline interpolation of any order reproduces linear functions, with
  // the correct staggering offsets per component.
  const int n = 32;
  const auto geom = make_geom2(n);
  mrpic::MultiFab<2> E(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  mrpic::MultiFab<2> B(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  const Real dx = geom.cell_size(0), dy = geom.cell_size(1);

  // Fill E/B components (including ghosts) with f(x,y) = x + 2y evaluated at
  // each component's staggered location.
  auto fill = [&](mrpic::MultiFab<2>& mf, auto stag_of) {
    auto& fab = mf.fab(0);
    fab.for_each_cell(mf.grown_box(0), [&](const mrpic::IntVect2& p) {
      for (int cc = 0; cc < 3; ++cc) {
        const auto s = stag_of(cc);
        const Real x = (p[0] + 0.5 * s[0]) * dx;
        const Real y = (p[1] + 0.5 * s[1]) * dy;
        fab(p, cc) = x + 2 * y;
      }
    });
  };
  fill(E, [](int cc) { return mrpic::fields::e_stag<2>(cc); });
  fill(B, [](int cc) { return mrpic::fields::b_stag<2>(cc); });

  ParticleTile<2> tile;
  tile.push_back({13.27 * dx, 17.63 * dy}, {0, 0, 0}, 1.0);
  GatheredFields out;
  for (int order : {1, 2, 3}) {
    gather_fields<2>(order, tile, geom, E.const_array(0), B.const_array(0), out);
    const Real expected = 13.27 * dx + 2 * 17.63 * dy;
    for (int cc = 0; cc < 3; ++cc) {
      EXPECT_NEAR(out.E[cc][0], expected, expected * 1e-12) << "order " << order;
      EXPECT_NEAR(out.B[cc][0], expected, expected * 1e-12) << "order " << order;
    }
  }
}

TEST(Gather, SmoothFieldConvergesSecondOrderInResolution) {
  // B-spline gathering of any order is a smoothing interpolation with an
  // O(h^2) error on smooth fields (higher shape orders reduce grid noise,
  // not the smooth-field error — their error constant is the spline
  // variance, which grows with order). Check the h^2 convergence.
  Real errs[2];
  int idx = 0;
  for (int n : {32, 64}) {
    const auto geom = make_geom2(n);
    mrpic::MultiFab<2> E(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
    mrpic::MultiFab<2> B(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
    const Real L = geom.prob_hi()[0];
    auto& fab = E.fab(0);
    fab.for_each_cell(E.grown_box(0), [&](const mrpic::IntVect2& p) {
      const Real x = (p[0] + 0.5) * geom.cell_size(0); // Ex staggering
      fab(p, 0) = std::sin(2 * mrpic::constants::pi * x / L);
    });
    ParticleTile<2> tile;
    // Same physical position in both resolutions.
    const Real xp = 0.413 * L;
    tile.push_back({xp, 0.5 * L}, {0, 0, 0}, 1.0);
    const Real exact = std::sin(2 * mrpic::constants::pi * xp / L);
    GatheredFields out;
    gather_fields<2>(3, tile, geom, E.const_array(0), B.const_array(0), out);
    errs[idx++] = std::abs(out.E[0][0] - exact);
  }
  // Doubling resolution cuts the error by ~4 (allow slack for the sampled
  // position landing at different sub-cell offsets).
  EXPECT_LT(errs[1], errs[0] / 2.5);
  EXPECT_LT(errs[1], 2e-3);
}

// The per-tap gather the row-walked kernel replaced, kept as the reference
// it must match bit for bit: every tap indexes the fab through
// Array4::operator() and picks its weights from the run-time staggering
// tables.
namespace ref {

template <int ORDER>
struct DimWeights {
  Real w_nodal[ORDER + 1];
  Real w_half[ORDER + 1];
  int i_nodal;
  int i_half;

  void compute(Real xi) {
    i_nodal = Shape<ORDER>::compute(w_nodal, xi);
    i_half = Shape<ORDER>::compute(w_half, xi - Real(0.5));
  }
};

template <int DIM, int ORDER>
void gather_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<const Real>& E, const Array4<const Real>& B,
                 GatheredFields& out) {
  const std::size_t np = tile.size();
  out.resize(np);

  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();

  mrpic::parallel_for(static_cast<std::int64_t>(np), [&](std::int64_t p) {
    DimWeights<ORDER> dw[DIM];
    for (int d = 0; d < DIM; ++d) {
      dw[d].compute((tile.x[d][p] - lo[d]) * idx[d]);
    }

    auto interp = [&](const Array4<const Real>& f, int comp, const auto& stag) {
      Real acc = 0;
      if constexpr (DIM == 2) {
        for (int b = 0; b <= ORDER; ++b) {
          const Real wy = stag[1] ? dw[1].w_half[b] : dw[1].w_nodal[b];
          const int j = (stag[1] ? dw[1].i_half : dw[1].i_nodal) + b;
          for (int a = 0; a <= ORDER; ++a) {
            const Real wx = stag[0] ? dw[0].w_half[a] : dw[0].w_nodal[a];
            const int i = (stag[0] ? dw[0].i_half : dw[0].i_nodal) + a;
            acc += wx * wy * f(i, j, 0, comp);
          }
        }
      } else {
        for (int cc = 0; cc <= ORDER; ++cc) {
          const Real wz = stag[2] ? dw[2].w_half[cc] : dw[2].w_nodal[cc];
          const int k = (stag[2] ? dw[2].i_half : dw[2].i_nodal) + cc;
          for (int b = 0; b <= ORDER; ++b) {
            const Real wy = stag[1] ? dw[1].w_half[b] : dw[1].w_nodal[b];
            const int j = (stag[1] ? dw[1].i_half : dw[1].i_nodal) + b;
            for (int a = 0; a <= ORDER; ++a) {
              const Real wx = stag[0] ? dw[0].w_half[a] : dw[0].w_nodal[a];
              const int i = (stag[0] ? dw[0].i_half : dw[0].i_nodal) + a;
              acc += wx * wy * wz * f(i, j, k, comp);
            }
          }
        }
      }
      return acc;
    };

    for (int comp = 0; comp < 3; ++comp) {
      out.E[comp][p] = interp(E, comp, fields::e_stag3[comp]);
      out.B[comp][p] = interp(B, comp, fields::b_stag3[comp]);
    }
  });
}

} // namespace ref

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

// Particles in `box`: random positions plus the edge cases of the stencil
// starts (on a cell face, on a half-cell face, within half a cell of the
// low face so the half-shifted stencil reaches the low ghost layer, and just
// below the high face).
template <int DIM>
ParticleTile<DIM> stencil_edge_particles(const mrpic::Geometry<DIM>& geom,
                                         const mrpic::Box<DIM>& box, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ParticleTile<DIM> tile;
  const auto place = [&](const std::array<Real, DIM>& cells) {
    std::array<Real, DIM> x;
    for (int d = 0; d < DIM; ++d) {
      x[d] = geom.prob_lo()[d] + (box.lo(d) + cells[d]) * geom.cell_size(d);
    }
    tile.push_back(x, {0, 0, 0}, 1.0);
  };
  const Real n = box.length(0);
  for (Real off : {0.0, 0.25, 0.5, 1.0, 0.49999, 2.5, n - 1e-9}) {
    std::array<Real, DIM> cells;
    cells.fill(off);
    place(cells);
    cells[0] = 0.1; // mixed: low ghost in x only
    place(cells);
  }
  std::uniform_real_distribution<Real> u01(0.0, n);
  for (int p = 0; p < 200; ++p) {
    std::array<Real, DIM> cells;
    for (int d = 0; d < DIM; ++d) { cells[d] = u01(rng); }
    place(cells);
  }
  return tile;
}

template <int DIM, int ORDER>
void check_gather_matches_per_tap(std::uint64_t seed) {
  const auto geom = offset_geom<DIM>(16);
  const auto ba = mrpic::BoxArray<DIM>::decompose(geom.domain(), 8);
  mrpic::MultiFab<DIM> E(ba, 3, mrpic::default_num_ghost);
  mrpic::MultiFab<DIM> B(ba, 3, mrpic::default_num_ghost);
  const int m = ba.size() - 1;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> val(-1.0, 1.0);
  for (auto* mf : {&E, &B}) {
    auto& fab = mf->fab(m);
    for (std::size_t n = 0; n < fab.size(); ++n) { fab.data()[n] = val(rng); }
  }
  const auto tile = stencil_edge_particles<DIM>(geom, ba[m], seed);

  GatheredFields got, want;
  gather_fields<DIM>(ORDER, tile, geom, E.const_array(m), B.const_array(m), got);
  ref::gather_impl<DIM, ORDER>(tile, geom, E.const_array(m), B.const_array(m), want);
  for (int cc = 0; cc < 3; ++cc) {
    EXPECT_TRUE(got.E[cc] == want.E[cc]) << "E" << cc << " order " << ORDER << " DIM " << DIM;
    EXPECT_TRUE(got.B[cc] == want.B[cc]) << "B" << cc << " order " << ORDER << " DIM " << DIM;
  }
}

TEST(Gather, RowWalkedMatchesPerTap2D) {
  check_gather_matches_per_tap<2, 1>(21);
  check_gather_matches_per_tap<2, 2>(22);
  check_gather_matches_per_tap<2, 3>(23);
}

TEST(Gather, RowWalkedMatchesPerTap3D) {
  check_gather_matches_per_tap<3, 1>(31);
  check_gather_matches_per_tap<3, 2>(32);
  check_gather_matches_per_tap<3, 3>(33);
}

TEST(Gather, UnsupportedOrderThrows) {
  const auto geom = make_geom2(8);
  mrpic::MultiFab<2> E(mrpic::BoxArray<2>(geom.domain()), 3, mrpic::default_num_ghost);
  ParticleTile<2> tile;
  tile.push_back({1e-7, 1e-7}, {0, 0, 0}, 1.0);
  GatheredFields out;
  for (int order : {0, 4}) {
    EXPECT_THROW(gather_fields<2>(order, tile, geom, E.const_array(0), E.const_array(0), out),
                 std::invalid_argument);
  }
}

TEST(Gather, FlopsEstimatesPositive) {
  EXPECT_GT(gather_flops_per_particle(1, 2), 0);
  EXPECT_GT(gather_flops_per_particle(3, 3), gather_flops_per_particle(1, 3));
}

} // namespace
} // namespace mrpic::particles
