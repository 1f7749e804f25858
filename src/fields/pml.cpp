#include "src/fields/pml.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/amr/parallel_for.hpp"

namespace mrpic::fields {

using mrpic::constants::c;

namespace {

// First/second split component receiving the interior value in exchanges.
// (Only the totals matter for the stencils; the chosen first component is
// the one that evolves in 2D so that 2D valid-region dynamics are complete.)
constexpr std::array<int, 3> e_first = {EXY, EYX, EZX};
constexpr std::array<int, 3> e_second = {EXZ, EYZ, EZY};
constexpr std::array<int, 3> b_first = {BXY, BYX, BZX};
constexpr std::array<int, 3> b_second = {BXZ, BYZ, BZY};

} // namespace

template <int DIM>
typename Pml<DIM>::Damp Pml<DIM>::damping(Real sigma, Real dt) {
  if (sigma <= 0) { return {Real(1), dt}; }
  const Real d1 = std::exp(-sigma * dt);
  return {d1, (Real(1) - d1) / sigma};
}

template <int DIM>
Pml<DIM>::Pml(const mrpic::Geometry<DIM>& geom, const mrpic::Box<DIM>& inner,
              const std::array<bool, DIM>& absorb, PmlConfig cfg, int ngrow)
    : m_geom(geom), m_inner(inner), m_absorb(absorb), m_cfg(cfg) {
  for (int d = 0; d < DIM; ++d) {
    m_sigma_max[d] = -(cfg.grade_order + 1) * std::log(cfg.reflection) * c /
                     (2 * cfg.npml * geom.cell_size(d));
  }

  // Build the ring: cartesian product of {lo-skirt, span, hi-skirt} segments
  // per direction, excluding the all-span (= interior) combination.
  struct Seg {
    int lo, hi;
    bool is_span;
  };
  std::array<std::vector<Seg>, DIM> segs;
  for (int d = 0; d < DIM; ++d) {
    if (absorb[d]) {
      segs[d].push_back({inner.lo(d) - cfg.npml, inner.lo(d) - 1, false});
    }
    segs[d].push_back({inner.lo(d), inner.hi(d), true});
    if (absorb[d]) {
      segs[d].push_back({inner.hi(d) + 1, inner.hi(d) + cfg.npml, false});
    }
  }
  std::vector<mrpic::Box<DIM>> boxes;
  if constexpr (DIM == 2) {
    for (const auto& sx : segs[0]) {
      for (const auto& sy : segs[1]) {
        if (sx.is_span && sy.is_span) { continue; }
        boxes.emplace_back(IV(sx.lo, sy.lo), IV(sx.hi, sy.hi));
      }
    }
  } else {
    for (const auto& sx : segs[0]) {
      for (const auto& sy : segs[1]) {
        for (const auto& sz : segs[2]) {
          if (sx.is_span && sy.is_span && sz.is_span) { continue; }
          boxes.emplace_back(IV(sx.lo, sy.lo, sz.lo), IV(sx.hi, sy.hi, sz.hi));
        }
      }
    }
  }
  if (!boxes.empty()) {
    m_fab = mrpic::MultiFab<DIM>(mrpic::BoxArray<DIM>(std::move(boxes)), NUM_PML_COMP,
                                 ngrow);
  }
}

template <int DIM>
Real Pml<DIM>::sigma(int d, Real pos) const {
  if (!m_absorb[d]) { return 0; }
  const Real lo = static_cast<Real>(m_inner.lo(d));
  const Real hi = static_cast<Real>(m_inner.hi(d) + 1);
  Real xi = 0;
  if (pos < lo) {
    xi = (lo - pos) / m_cfg.npml;
  } else if (pos > hi) {
    xi = (pos - hi) / m_cfg.npml;
  } else {
    return 0;
  }
  xi = std::min(xi, Real(1));
  return m_sigma_max[d] * std::pow(xi, m_cfg.grade_order);
}

template <int DIM>
const typename Pml<DIM>::DampTable& Pml<DIM>::damping_table(DampTable& t, Real dt,
                                                            Real offset) const {
  if (t.dt == dt) { return t; }
  t.dt = dt;
  const auto span = m_fab.box_array().minimal_box().grown(m_fab.num_ghost());
  for (int d = 0; d < DIM; ++d) {
    t.lo[d] = span.lo(d);
    t.w[d].resize(static_cast<std::size_t>(span.length(d)));
    for (int i = span.lo(d); i <= span.hi(d); ++i) {
      t.w[d][static_cast<std::size_t>(i - span.lo(d))] = damping(sigma(d, i + offset), dt);
    }
  }
  return t;
}

template <int DIM>
void Pml<DIM>::exchange_from_interior(const FieldSet<DIM>& f) {
  if (empty()) { return; }
  const auto& iba = f.box_array();
  for (int i = 0; i < m_fab.num_fabs(); ++i) {
    const auto gi = m_fab.grown_box(i);
    auto& dst = m_fab.fab(i);
    const auto a = dst.array();
    for (int j = 0; j < iba.size(); ++j) {
      const auto region = gi & iba[j];
      if (region.empty()) { continue; }
      const int nx = region.length(0);
      for (int comp = 0; comp < 3; ++comp) {
        dst.copy_from(f.E().fab(j), region, comp, e_first[comp], 1);
        dst.copy_from(f.B().fab(j), region, comp, b_first[comp], 1);
        dst.for_each_row(region, [&](int jj, int k) {
          std::fill_n(&a(region.lo(0), jj, k, e_second[comp]), nx, Real(0));
          std::fill_n(&a(region.lo(0), jj, k, b_second[comp]), nx, Real(0));
        });
      }
    }
  }
}

template <int DIM>
void Pml<DIM>::fill_boundary() {
  if (empty()) { return; }
  // The ring's own geometry is non-periodic for ghost purposes; pass the
  // interior geometry with periodicity stripped.
  mrpic::Geometry<DIM> g(m_geom.domain(), m_geom.prob_lo(), m_geom.prob_hi(), {});
  m_fab.fill_boundary(g);
}

template <int DIM>
void Pml<DIM>::copy_to_interior(FieldSet<DIM>& f) const {
  if (empty()) { return; }
  const auto& iba = f.box_array();
  const int ng = f.num_ghost();
  const auto& pba = m_fab.box_array();
  for (int j = 0; j < iba.size(); ++j) {
    const auto gj = iba[j].grown(ng);
    auto& edst = f.E().fab(j);
    auto& bdst = f.B().fab(j);
    for (int i = 0; i < pba.size(); ++i) {
      const auto region = gj & pba[i];
      if (region.empty()) { continue; }
      const auto s = m_fab.const_array(i);
      const auto e = edst.array();
      const auto b = bdst.array();
      const int i0 = region.lo(0), nx = region.length(0);
      edst.for_each_row(region, [&](int jj, int k) {
        for (int comp = 0; comp < 3; ++comp) {
          const Real* e1 = &s(i0, jj, k, e_first[comp]);
          const Real* e2 = &s(i0, jj, k, e_second[comp]);
          const Real* b1 = &s(i0, jj, k, b_first[comp]);
          const Real* b2 = &s(i0, jj, k, b_second[comp]);
          Real* er = &e(i0, jj, k, comp);
          Real* br = &b(i0, jj, k, comp);
          for (int ii = 0; ii < nx; ++ii) { er[ii] = e1[ii] + e2[ii]; }
          for (int ii = 0; ii < nx; ++ii) { br[ii] = b1[ii] + b2[ii]; }
        }
      });
    }
  }
}

template <int DIM>
void Pml<DIM>::evolve_b(Real dt) {
  if (empty()) { return; }
  const Real idx = Real(1) / m_geom.cell_size(0);
  const Real idy = Real(1) / m_geom.cell_size(1);
  [[maybe_unused]] const Real idz = DIM == 3 ? Real(1) / m_geom.cell_size(2) : Real(0);
  // B components sit at half-integer positions along their split directions.
  const DampTable& w = damping_table(m_damp_b, dt, Real(0.5));

  for (int m = 0; m < m_fab.num_fabs(); ++m) {
    auto a = m_fab.array(m);
    const auto& bx = m_fab.valid_box(m);
    // E totals from split components.
    auto Ex = [a](int i, int j, int k) { return a(i, j, k, EXY) + a(i, j, k, EXZ); };
    auto Ey = [a](int i, int j, int k) { return a(i, j, k, EYZ) + a(i, j, k, EYX); };
    auto Ez = [a](int i, int j, int k) { return a(i, j, k, EZX) + a(i, j, k, EZY); };

    auto update = [&](int i, int j, int k) {
      const Damp& wx = w.at(0, i);
      const Damp& wy = w.at(1, j);
      // Bx splits (Bx staggering: (0,1,1)):
      {
        a(i, j, k, BXY) = wy.d1 * a(i, j, k, BXY) +
                          wy.d2 * (-(Ez(i, j + 1, k) - Ez(i, j, k)) * idy);
        if constexpr (DIM == 3) {
          const Damp& wz = w.at(2, k);
          a(i, j, k, BXZ) = wz.d1 * a(i, j, k, BXZ) +
                            wz.d2 * ((Ey(i, j, k + 1) - Ey(i, j, k)) * idz);
        }
      }
      // By splits (stag (1,0,1)):
      {
        a(i, j, k, BYX) = wx.d1 * a(i, j, k, BYX) +
                          wx.d2 * ((Ez(i + 1, j, k) - Ez(i, j, k)) * idx);
        if constexpr (DIM == 3) {
          const Damp& wz = w.at(2, k);
          a(i, j, k, BYZ) = wz.d1 * a(i, j, k, BYZ) +
                            wz.d2 * (-(Ex(i, j, k + 1) - Ex(i, j, k)) * idz);
        }
      }
      // Bz splits (stag (1,1,0)):
      {
        a(i, j, k, BZX) = wx.d1 * a(i, j, k, BZX) +
                          wx.d2 * (-(Ey(i + 1, j, k) - Ey(i, j, k)) * idx);
        a(i, j, k, BZY) = wy.d1 * a(i, j, k, BZY) +
                          wy.d2 * ((Ex(i, j + 1, k) - Ex(i, j, k)) * idy);
      }
    };

    if constexpr (DIM == 2) {
      mrpic::parallel_for(bx, [&](int i, int j) { update(i, j, 0); });
    } else {
      mrpic::parallel_for(bx, [&](int i, int j, int k) { update(i, j, k); });
    }
  }
}

template <int DIM>
void Pml<DIM>::evolve_e(Real dt) {
  if (empty()) { return; }
  const Real c2 = c * c;
  const Real idx = Real(1) / m_geom.cell_size(0);
  const Real idy = Real(1) / m_geom.cell_size(1);
  [[maybe_unused]] const Real idz = DIM == 3 ? Real(1) / m_geom.cell_size(2) : Real(0);
  // E components sit at integer positions along their split directions.
  const DampTable& w = damping_table(m_damp_e, dt, Real(0));

  for (int m = 0; m < m_fab.num_fabs(); ++m) {
    auto a = m_fab.array(m);
    const auto& bx = m_fab.valid_box(m);
    auto Bx = [a](int i, int j, int k) { return a(i, j, k, BXY) + a(i, j, k, BXZ); };
    auto By = [a](int i, int j, int k) { return a(i, j, k, BYZ) + a(i, j, k, BYX); };
    auto Bz = [a](int i, int j, int k) { return a(i, j, k, BZX) + a(i, j, k, BZY); };

    auto update = [&](int i, int j, int k) {
      const Damp& wx = w.at(0, i);
      const Damp& wy = w.at(1, j);
      // Ex splits (stag (1,0,0)):
      {
        a(i, j, k, EXY) = wy.d1 * a(i, j, k, EXY) +
                          wy.d2 * (c2 * (Bz(i, j, k) - Bz(i, j - 1, k)) * idy);
        if constexpr (DIM == 3) {
          const Damp& wz = w.at(2, k);
          a(i, j, k, EXZ) = wz.d1 * a(i, j, k, EXZ) +
                            wz.d2 * (-c2 * (By(i, j, k) - By(i, j, k - 1)) * idz);
        }
      }
      // Ey splits (stag (0,1,0)):
      {
        a(i, j, k, EYX) = wx.d1 * a(i, j, k, EYX) +
                          wx.d2 * (-c2 * (Bz(i, j, k) - Bz(i - 1, j, k)) * idx);
        if constexpr (DIM == 3) {
          const Damp& wz = w.at(2, k);
          a(i, j, k, EYZ) = wz.d1 * a(i, j, k, EYZ) +
                            wz.d2 * (c2 * (Bx(i, j, k) - Bx(i, j, k - 1)) * idz);
        }
      }
      // Ez splits (stag (0,0,1)):
      {
        a(i, j, k, EZX) = wx.d1 * a(i, j, k, EZX) +
                          wx.d2 * (c2 * (By(i, j, k) - By(i - 1, j, k)) * idx);
        a(i, j, k, EZY) = wy.d1 * a(i, j, k, EZY) +
                          wy.d2 * (-c2 * (Bx(i, j, k) - Bx(i, j - 1, k)) * idy);
      }
    };

    if constexpr (DIM == 2) {
      mrpic::parallel_for(bx, [&](int i, int j) { update(i, j, 0); });
    } else {
      mrpic::parallel_for(bx, [&](int i, int j, int k) { update(i, j, k); });
    }
  }
}

template <int DIM>
Real Pml<DIM>::max_abs() const {
  Real m = 0;
  for (int c2 = 0; c2 < NUM_PML_COMP; ++c2) { m = std::max(m, m_fab.max_abs(c2)); }
  return m;
}

template class Pml<2>;
template class Pml<3>;

} // namespace mrpic::fields
