#include "src/amr/multifab.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mrpic {

template <int DIM>
std::vector<typename MultiFab<DIM>::IV> MultiFab<DIM>::periodic_shifts(
    const Geometry<DIM>& geom) const {
  std::vector<IV> shifts{IV::zero()};
  for (int d = 0; d < DIM; ++d) {
    if (!geom.is_periodic(d)) { continue; }
    const int L = geom.domain().length(d);
    std::vector<IV> next;
    next.reserve(shifts.size() * 3);
    for (const IV& s : shifts) {
      next.push_back(s);
      IV sp = s;
      sp[d] += L;
      next.push_back(sp);
      IV sm = s;
      sm[d] -= L;
      next.push_back(sm);
    }
    shifts.swap(next);
  }
  return shifts;
}

template <int DIM>
void MultiFab<DIM>::lin_comb(Real a, Real b, const MultiFab& src, int scomp, int dcomp,
                             int ncomp) {
  assert(m_ba == src.m_ba && m_ngrow == src.m_ngrow);
  for (int i = 0; i < num_fabs(); ++i) {
    auto& dst = m_fabs[i];
    const auto& sf = src.m_fabs[i];
    dst.for_each_cell(grown_box(i), [&](const IV& p) {
      for (int n = 0; n < ncomp; ++n) {
        dst(p, dcomp + n) = a * dst(p, dcomp + n) + b * sf(p, scomp + n);
      }
    });
  }
}

template <int DIM>
void MultiFab<DIM>::fill_boundary(const Geometry<DIM>& geom) {
  if (m_ngrow == 0) { return; }
  const auto shifts = periodic_shifts(geom);
  for (int i = 0; i < num_fabs(); ++i) {
    const Box<DIM> gi = grown_box(i);
    for (int j = 0; j < num_fabs(); ++j) {
      for (const IV& s : shifts) {
        if (i == j && s == IV::zero()) { continue; }
        // Region of i's allocation covered by j's valid data shifted by s.
        const Box<DIM> src_valid = m_ba[j].shifted(s);
        const Box<DIM> region = gi & src_valid;
        if (region.empty()) { continue; }
        // Copy src data (at region - s) into dst (at region).
        m_fabs[i].copy_from_shifted(m_fabs[j], region.shifted(-s), region, 0, 0, m_ncomp);
      }
    }
  }
}

template <int DIM>
void MultiFab<DIM>::sum_boundary(const Geometry<DIM>& geom) {
  if (m_ngrow == 0) { return; }
  const auto shifts = periodic_shifts(geom);
  // Accumulate ghost-region contributions of every fab j into the valid
  // region of the owning fab i.
  for (int i = 0; i < num_fabs(); ++i) {
    const Box<DIM> vi = m_ba[i];
    for (int j = 0; j < num_fabs(); ++j) {
      for (const IV& s : shifts) {
        if (i == j && s == IV::zero()) { continue; }
        // j's ghost region shifted by s, intersected with i's valid region.
        // (j's *valid* region never overlaps i's valid region: boxes are
        // disjoint and periodic images of valid regions fall outside the
        // domain.)
        const Box<DIM> src_alloc = m_ba[j].grown(m_ngrow).shifted(s);
        const Box<DIM> region = vi & src_alloc;
        if (region.empty()) { continue; }
        m_fabs[i].add_from_shifted(m_fabs[j], region.shifted(-s), region, 0, 0, m_ncomp);
      }
    }
  }
  // Zero all ghost regions: their content has been folded into owners.
  for (int i = 0; i < num_fabs(); ++i) {
    auto& f = m_fabs[i];
    const Box<DIM> vi = m_ba[i];
    f.for_each_cell(grown_box(i), [&](const IV& p) {
      if (!vi.contains(p)) {
        for (int n = 0; n < m_ncomp; ++n) { f(p, n) = 0; }
      }
    });
  }
}

template <int DIM>
void MultiFab<DIM>::parallel_copy(const MultiFab& src, int scomp, int dcomp, int ncomp,
                                  int src_ghost, int dst_ghost, bool add) {
  assert(src_ghost <= src.m_ngrow && dst_ghost <= m_ngrow);
  for (int i = 0; i < num_fabs(); ++i) {
    const Box<DIM> di = m_ba[i].grown(dst_ghost);
    for (int j = 0; j < src.num_fabs(); ++j) {
      const Box<DIM> sj = src.m_ba[j].grown(src_ghost);
      const Box<DIM> region = di & sj;
      if (region.empty()) { continue; }
      if (add) {
        m_fabs[i].add_from(src.m_fabs[j], region, scomp, dcomp, ncomp);
      } else {
        m_fabs[i].copy_from(src.m_fabs[j], region, scomp, dcomp, ncomp);
      }
    }
  }
}

template <int DIM>
Real MultiFab<DIM>::sum(int comp) const {
  Real s = 0;
  for (int i = 0; i < num_fabs(); ++i) { s += m_fabs[i].sum(m_ba[i], comp); }
  return s;
}

template <int DIM>
Real MultiFab<DIM>::max_abs(int comp) const {
  Real m = 0;
  for (int i = 0; i < num_fabs(); ++i) {
    m_fabs[i].for_each_cell(m_ba[i], [&](const IV& p) {
      m = std::max(m, std::abs(m_fabs[i](p, comp)));
    });
  }
  return m;
}

template <int DIM>
Real MultiFab<DIM>::sum_sq(int comp) const {
  // Cell order, a row at a time. The sum starts at +0 and never falls, so a
  // +-0 cell adds +0 and leaves it as is: each row sums only its
  // nonzero_span, which spares the serial add chain the field-free ends of
  // a row and changes no bit.
  Real s = 0;
  for (int i = 0; i < num_fabs(); ++i) {
    const auto a = m_fabs[i].const_array();
    const int i0 = m_ba[i].lo(0), nx = m_ba[i].length(0);
    m_fabs[i].for_each_row(m_ba[i], [&](int j, int k) {
      const Real* row = a.row(i0, j, k, comp, nx);
      const auto [lo, hi] = nonzero_span(row, nx);
      for (int n = lo; n < hi; ++n) { s += row[n] * row[n]; }
    });
  }
  return s;
}

template <int DIM>
void MultiFab<DIM>::shift_data(int d, int ncells, Real fill_value) {
  if (ncells == 0) { return; }
  assert(ncells > 0);
  for (int i = 0; i < num_fabs(); ++i) {
    auto& f = m_fabs[i];
    const auto a = f.array();
    const Box<DIM> gb = grown_box(i);
    const int i0 = gb.lo(0), nx = gb.length(0);
    // value(p) <- value(p + n e_d); rows are visited in increasing j, k and
    // cells in increasing i, so sources are read before being overwritten.
    for (int n = 0; n < m_ncomp; ++n) {
      f.for_each_row(gb, [&](int j, int k) {
        Real* row = &a(i0, j, k, n);
        if (d == 0) {
          for (int ii = 0; ii < nx; ++ii) {
            row[ii] = ii + ncells < nx ? row[ii + ncells] : fill_value;
          }
          return;
        }
        // Source row: (j + n, k) for d == 1, (j, k + n) for d == 2.
        const int js = d == 1 ? j + ncells : j;
        const int ks = d == 2 ? k + ncells : k;
        bool inside = js <= gb.hi(1);
        if constexpr (DIM == 3) { inside = inside && ks <= gb.hi(2); }
        if (inside) {
          std::copy_n(&a(i0, js, ks, n), nx, row);
        } else {
          std::fill_n(row, nx, fill_value);
        }
      });
    }
  }
}

template class MultiFab<2>;
template class MultiFab<3>;

} // namespace mrpic
