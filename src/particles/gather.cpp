#include "src/particles/gather.hpp"

#include "src/amr/parallel_for.hpp"
#include "src/fields/yee.hpp"
#include "src/particles/shape.hpp"

namespace mrpic::particles {

namespace {

template <int ORDER>
using PlaneWeights = Real[2][2][ORDER + 1][ORDER + 1];

// Interpolates one field component with Yee staggering S (per direction:
// 0 nodal, 1 half-shifted). wxy[sx][sy][b][a] holds the in-plane weight
// product wx[a] * wy[b]; the stencil walks contiguous i-rows of the fab.
template <int DIM, int ORDER, std::array<int, 3> S>
Real interp(const Array4<const Real>& f, int comp, const StaggeredShape<ORDER>* sh,
            const PlaneWeights<ORDER>& wxy) {
  constexpr int N = ORDER + 1;
  const auto& w = wxy[S[0]][S[1]];
  const int i0 = sh[0].first[S[0]];
  const int j0 = sh[1].first[S[1]];
  Real acc = 0;
  if constexpr (DIM == 2) {
    for (int b = 0; b < N; ++b) {
      const Real* row = f.row(i0, j0 + b, 0, comp, N);
      for (int a = 0; a < N; ++a) { acc += w[b][a] * row[a]; }
    }
  } else {
    const int k0 = sh[2].first[S[2]];
    for (int cc = 0; cc < N; ++cc) {
      const Real wz = sh[2].w[S[2]][cc];
      for (int b = 0; b < N; ++b) {
        const Real* row = f.row(i0, j0 + b, k0 + cc, comp, N);
        for (int a = 0; a < N; ++a) { acc += w[b][a] * wz * row[a]; }
      }
    }
  }
  return acc;
}

template <int DIM, int ORDER>
void gather_impl(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                 const Array4<const Real>& E, const Array4<const Real>& B,
                 GatheredFields& out) {
  using fields::b_stag3;
  using fields::e_stag3;
  const std::size_t np = tile.size();
  out.resize(np);

  const auto lo = geom.prob_lo();
  const auto idx = geom.inv_dx();

  mrpic::parallel_for(static_cast<std::int64_t>(np), [&](std::int64_t p) {
    StaggeredShape<ORDER> sh[DIM];
    for (int d = 0; d < DIM; ++d) { sh[d].compute((tile.x[d][p] - lo[d]) * idx[d]); }

    // The six components use all four in-plane staggerings; Ex/By and
    // Ey/Bx share theirs.
    PlaneWeights<ORDER> wxy;
    for (int sx = 0; sx < 2; ++sx) {
      for (int sy = 0; sy < 2; ++sy) {
        for (int b = 0; b <= ORDER; ++b) {
          for (int a = 0; a <= ORDER; ++a) {
            wxy[sx][sy][b][a] = sh[0].w[sx][a] * sh[1].w[sy][b];
          }
        }
      }
    }

    out.E[0][p] = interp<DIM, ORDER, e_stag3[0]>(E, 0, sh, wxy);
    out.E[1][p] = interp<DIM, ORDER, e_stag3[1]>(E, 1, sh, wxy);
    out.E[2][p] = interp<DIM, ORDER, e_stag3[2]>(E, 2, sh, wxy);
    out.B[0][p] = interp<DIM, ORDER, b_stag3[0]>(B, 0, sh, wxy);
    out.B[1][p] = interp<DIM, ORDER, b_stag3[1]>(B, 1, sh, wxy);
    out.B[2][p] = interp<DIM, ORDER, b_stag3[2]>(B, 2, sh, wxy);
  });
}

} // namespace

template <int DIM>
void gather_fields(int order, const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                   const Array4<const Real>& E, const Array4<const Real>& B,
                   GatheredFields& out) {
  with_shape_order(order, [&](auto o) {
    gather_impl<DIM, decltype(o)::value>(tile, geom, E, B, out);
  });
}

std::int64_t gather_flops_per_particle(int order, int dim) {
  const int sup = order + 1;
  const std::int64_t points = dim == 2 ? sup * sup : sup * sup * sup;
  const std::int64_t shape_cost = 2 * dim * (order == 1 ? 2 : order == 2 ? 9 : 16);
  // Per interpolation point: dim weight multiplies + 1 fma (2 flops).
  return shape_cost + 6 * points * (dim + 2);
}

template void gather_fields<2>(int, const ParticleTile<2>&, const mrpic::Geometry<2>&,
                               const Array4<const Real>&, const Array4<const Real>&,
                               GatheredFields&);
template void gather_fields<3>(int, const ParticleTile<3>&, const mrpic::Geometry<3>&,
                               const Array4<const Real>&, const Array4<const Real>&,
                               GatheredFields&);

} // namespace mrpic::particles
