#pragma once

// BaseFab<T, DIM>: owning storage for multi-component data over the index
// range of a (typically grown) cell box. All components share one contiguous
// allocation (Fortran order, component slowest).

#include <cstring>
#include <vector>

#include "src/amr/array4.hpp"
#include "src/amr/box.hpp"
#include "src/amr/config.hpp"
#include "src/obs/memory.hpp"

namespace mrpic {

template <typename T, int DIM>
class BaseFab {
public:
  using IV = IntVect<DIM>;

  BaseFab() = default;

  BaseFab(const Box<DIM>& bx, int ncomp) { resize(bx, ncomp); }

  void resize(const Box<DIM>& bx, int ncomp) {
    m_box = bx;
    m_ncomp = ncomp;
    m_data.assign(static_cast<std::size_t>(bx.num_cells()) * ncomp, T(0));
    // Charge the owning allocation into the memory ledger under the active
    // ScopedMemTag (the account binds on the first resize and then sticks;
    // the compiler-generated copy/move of m_mem keeps the books balanced).
    m_mem.update(static_cast<std::int64_t>(m_data.capacity() * sizeof(T)));
  }

  const Box<DIM>& box() const { return m_box; }
  int num_comp() const { return m_ncomp; }
  std::size_t size() const { return m_data.size(); }
  T* data() { return m_data.data(); }
  const T* data() const { return m_data.data(); }

  Array4<T> array() { return make_array4<T>(m_data.data()); }
  Array4<const T> const_array() const { return make_array4<const T>(m_data.data()); }

  void set_val(T v) { std::fill(m_data.begin(), m_data.end(), v); }

  // Copy `comp`-component data on region `rg` from src (src must cover rg).
  void copy_from(const BaseFab& src, const Box<DIM>& rg, int scomp, int dcomp, int ncomp) {
    transfer<false>(src, rg, rg, scomp, dcomp, ncomp);
  }
  // Copy with index shift: dst region rg_dst takes values from src region
  // rg_src (same shape), used for periodic wraps.
  void copy_from_shifted(const BaseFab& src, const Box<DIM>& rg_src, const Box<DIM>& rg_dst,
                         int scomp, int dcomp, int ncomp) {
    transfer<false>(src, rg_src, rg_dst, scomp, dcomp, ncomp);
  }
  // Accumulate (+=) variants, used by SumBoundary.
  void add_from(const BaseFab& src, const Box<DIM>& rg, int scomp, int dcomp, int ncomp) {
    transfer<true>(src, rg, rg, scomp, dcomp, ncomp);
  }
  void add_from_shifted(const BaseFab& src, const Box<DIM>& rg_src, const Box<DIM>& rg_dst,
                        int scomp, int dcomp, int ncomp) {
    transfer<true>(src, rg_src, rg_dst, scomp, dcomp, ncomp);
  }

  T sum(const Box<DIM>& rg, int comp) const {
    T s = 0;
    for_each_cell(rg, [&](const IV& p) { s += (*this)(p, comp); });
    return s;
  }

  T& operator()(const IV& p, int comp = 0) {
    return m_data[cell_offset(p, comp)];
  }
  const T& operator()(const IV& p, int comp = 0) const {
    return m_data[cell_offset(p, comp)];
  }

  template <typename F>
  void for_each_cell(const Box<DIM>& rg, F&& f) const {
    if (rg.empty()) { return; }
    if constexpr (DIM == 2) {
      for (int j = rg.lo(1); j <= rg.hi(1); ++j) {
        for (int i = rg.lo(0); i <= rg.hi(0); ++i) { f(IV(i, j)); }
      }
    } else {
      for (int k = rg.lo(2); k <= rg.hi(2); ++k) {
        for (int j = rg.lo(1); j <= rg.hi(1); ++j) {
          for (int i = rg.lo(0); i <= rg.hi(0); ++i) { f(IV(i, j, k)); }
        }
      }
    }
  }

  // Visit the i-rows of rg in storage order: f(j, k) for every row, whose
  // cells run contiguously from rg.lo(0) to rg.hi(0) (k == 0 in 2D, the
  // Array4 k index of 2D data).
  template <typename F>
  void for_each_row(const Box<DIM>& rg, F&& f) const {
    if (rg.empty()) { return; }
    if constexpr (DIM == 2) {
      for (int j = rg.lo(1); j <= rg.hi(1); ++j) { f(j, 0); }
    } else {
      for (int k = rg.lo(2); k <= rg.hi(2); ++k) {
        for (int j = rg.lo(1); j <= rg.hi(1); ++j) { f(j, k); }
      }
    }
  }

private:
  std::size_t cell_offset(const IV& p, int comp) const {
    return static_cast<std::size_t>(m_box.index(p)) +
           static_cast<std::size_t>(comp) * static_cast<std::size_t>(m_box.num_cells());
  }

  template <typename U>
  Array4<U> make_array4(U* ptr) const {
    const IV sz = m_box.size();
    if constexpr (DIM == 2) {
      return Array4<U>(ptr, m_box.lo(0), m_box.lo(1), 0, sz[0], sz[1], 1, m_ncomp);
    } else {
      return Array4<U>(ptr, m_box.lo(0), m_box.lo(1), m_box.lo(2), sz[0], sz[1], sz[2],
                       m_ncomp);
    }
  }

  template <bool Add>
  void transfer(const BaseFab& src, const Box<DIM>& rg_src, const Box<DIM>& rg_dst,
                int scomp, int dcomp, int ncomp) {
    if (rg_src.empty()) { return; }
    const IV shift = rg_dst.lo() - rg_src.lo();
    int sk = 0;
    if constexpr (DIM == 3) { sk = shift[2]; }
    const int nx = rg_src.length(0);
    const auto s = src.const_array();
    const auto d = array();
    for (int n = 0; n < ncomp; ++n) {
      for_each_row(rg_src, [&](int j, int k) {
        const T* sp = &s(rg_src.lo(0), j, k, scomp + n);
        T* dp = &d(rg_dst.lo(0), j + shift[1], k + sk, dcomp + n);
        for (int i = 0; i < nx; ++i) {
          if constexpr (Add) {
            dp[i] += sp[i];
          } else {
            dp[i] = sp[i];
          }
        }
      });
    }
  }

  Box<DIM> m_box;
  int m_ncomp = 0;
  std::vector<T> m_data;
  obs::MemCharge m_mem;
};

template <int DIM>
using FArrayBox = BaseFab<Real, DIM>;

} // namespace mrpic
