#pragma once

// Planned radix-2 FFTs for the PSATD spectral Maxwell solver. A plan is built
// once for a grid of power-of-two extents and holds, per axis, the
// bit-reversal swaps and per-stage twiddle tables, so a transform computes no
// cos/sin and allocates nothing. Arrays are dense and Fortran-ordered (x
// fastest). The slow axes (y, z) are transformed over whole contiguous rows
// or planes, so no strided column is ever gathered. Real data uses the half
// spectrum: each row is transformed real-to-complex along x on its own into
// nx/2+1 modes, the other modes being their complex conjugates. No external
// FFT dependency is used so the spectral solver stays as self-contained as
// the rest of the framework.

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "src/amr/config.hpp"

namespace mrpic::fields {

using Complex = std::complex<Real>;

bool is_power_of_two(int n);

// Angular wavenumber of mode index m of an n-point DFT with spacing dx:
// k = 2 pi f, with f folded to the negative half above n/2.
Real fft_wavenumber(int m, int n, Real dx);

// Transforms of an nx x ny x nz grid (ny = nz = 1 for 1D, nz = 1 for 2D).
// Inverses divide by num_points(), so forward then inverse is the identity.
class FftPlan {
public:
  // Throws std::invalid_argument unless every extent is a positive power of
  // two.
  FftPlan(int nx, int ny = 1, int nz = 1);

  std::int64_t num_points() const;
  int half_nx() const { return m_n[0] / 2 + 1; } // modes per half-spectrum row
  std::int64_t num_half_modes() const;           // half_nx() * ny * nz

  // Complex transforms in place over a dense nx*ny*nz array.
  void forward(Complex* a) const;
  void inverse(Complex* a) const;

  // Real-to-complex: the samples in[i + j*row_pitch + k*plane_pitch] give
  // the dense half spectrum out[mx + half_nx()*(my + ny*mz)], mx <= nx/2.
  void forward_real(const Real* in, std::int64_t row_pitch, std::int64_t plane_pitch,
                    Complex* out) const;
  // Complex-to-real inverse of forward_real; overwrites `spectrum`. The
  // spectrum is taken as Hermitian: after the y and z inverses only the real
  // parts of the x axis's DC and Nyquist modes are used.
  void inverse_real(Complex* spectrum, Real* out, std::int64_t row_pitch,
                    std::int64_t plane_pitch) const;

private:
  // One transform axis of length n = 2^k.
  class Axis {
  public:
    // Throws std::invalid_argument unless n is a positive power of two.
    explicit Axis(int n);

    // Unscaled in-place transform along the axis of n consecutive blocks of
    // `block` values each: element i of the axis is the block starting at
    // data + i * block, and every position in the block is its own line.
    void transform(Complex* data, std::int64_t block, bool inverse) const;

  private:
    int m_n;
    std::vector<std::array<int, 2>> m_swaps; // bit-reversal pairs (i < rev(i))
    // Twiddles of stage h (h = 1, 2, 4, ... n/2) at [h - 1, 2h - 1):
    // exp(-+ i pi j / h), j < h; [0] forward, [1] inverse.
    std::array<std::vector<Complex>, 2> m_tw;
  };

  std::array<int, 3> m_n;
  Axis m_x, m_y, m_z;
  Axis m_xhalf;                    // length nx/2 (1 if nx == 1)
  std::vector<Complex> m_split_tw; // exp(-2 pi i m / nx), m <= nx/4

  void slow_axes(Complex* a, std::int64_t row, bool inverse) const;
  void real_row_forward(const Real* x, Complex* X) const;
  void real_row_inverse(Complex* X, Real* x, Real scale) const;
};

} // namespace mrpic::fields
