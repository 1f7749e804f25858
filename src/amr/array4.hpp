#pragma once

// Array4<T>: a non-owning strided view of fab data indexed as (i,j,k,comp),
// mirroring AMReX's Array4. 2D data is viewed with k == the single index
// kz_lo (stride 0 in k is not used; 2D fabs simply have k extent 1).

#include <cassert>
#include <cstdint>

#include "src/amr/box.hpp"

namespace mrpic {

template <typename T>
struct Array4 {
  T* __restrict__ p = nullptr;
  std::int64_t jstride = 0;
  std::int64_t kstride = 0;
  std::int64_t nstride = 0;
  int ilo = 0, jlo = 0, klo = 0;
  int ihi = -1, jhi = -1, khi = -1; // inclusive; used for debug bounds checks
  int ncomp = 0;

  constexpr Array4() = default;

  constexpr Array4(T* ptr, int ilo_, int jlo_, int klo_, int nx, int ny, int nz, int nc)
      : p(ptr),
        jstride(nx),
        kstride(static_cast<std::int64_t>(nx) * ny),
        nstride(static_cast<std::int64_t>(nx) * ny * nz),
        ilo(ilo_), jlo(jlo_), klo(klo_),
        ihi(ilo_ + nx - 1), jhi(jlo_ + ny - 1), khi(klo_ + nz - 1),
        ncomp(nc) {}

  constexpr bool contains(int i, int j, int k) const {
    return i >= ilo && i <= ihi && j >= jlo && j <= jhi && k >= klo && k <= khi;
  }

  constexpr std::int64_t offset(int i, int j, int k, int n) const {
#ifdef MRPIC_BOUNDS_CHECK
    assert(contains(i, j, k) && n >= 0 && n < ncomp);
#endif
    return (i - ilo) + (j - jlo) * jstride + (k - klo) * kstride + n * nstride;
  }

  constexpr T& operator()(int i, int j, int k, int n = 0) const {
    return p[offset(i, j, k, n)];
  }
  // 2D convenience overload (k = klo).
  constexpr T& operator()(int i, int j) const { return p[offset(i, j, klo, 0)]; }

  // Start of the contiguous row (i .. i+len-1, j, k, n), for stencils that
  // walk a row through a pointer. The start goes through offset()'s bounds
  // check, and so, in bounds-checked builds, does the row's last element.
  constexpr T* row(int i, int j, int k, int n, [[maybe_unused]] int len) const {
#ifdef MRPIC_BOUNDS_CHECK
    assert(contains(i + len - 1, j, k));
#endif
    return &(*this)(i, j, k, n);
  }

  constexpr explicit operator bool() const { return p != nullptr; }
};

} // namespace mrpic
