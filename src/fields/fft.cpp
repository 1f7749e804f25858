#include "src/fields/fft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mrpic::fields {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

Real fft_wavenumber(int m, int n, Real dx) {
  const int folded = m <= n / 2 ? m : m - n;
  return 2 * constants::pi * folded / (n * dx);
}

namespace {

// lo, hi <- lo + w hi, lo - w hi. Written out in real arithmetic: the
// std::complex product carries a NaN-recovery branch that blocks
// vectorization of the block loops.
inline void butterfly(Complex& lo, Complex& hi, Complex w) {
  const Real tr = hi.real() * w.real() - hi.imag() * w.imag();
  const Real ti = hi.real() * w.imag() + hi.imag() * w.real();
  const Real ur = lo.real(), ui = lo.imag();
  lo = Complex(ur + tr, ui + ti);
  hi = Complex(ur - tr, ui - ti);
}

} // namespace

FftPlan::Axis::Axis(int n) : m_n(n) {
  if (!is_power_of_two(n)) {
    // A silently-wrong transform would corrupt every PSATD field solve;
    // fail loudly in every build type, not just with NDEBUG off.
    throw std::invalid_argument("FFT length " + std::to_string(n) +
                                " is not a positive power of two");
  }
  int bits = 0;
  while ((1 << bits) < n) { ++bits; }
  for (int i = 0; i < n; ++i) {
    int r = 0;
    for (int b = 0; b < bits; ++b) { r |= ((i >> b) & 1) << (bits - 1 - b); }
    if (i < r) { m_swaps.push_back({i, r}); }
  }
  for (auto& t : m_tw) { t.reserve(n > 1 ? n - 1 : 0); }
  for (int h = 1; h < n; h *= 2) {
    for (int j = 0; j < h; ++j) {
      const Real ang = constants::pi * j / h;
      m_tw[0].emplace_back(std::cos(ang), -std::sin(ang));
      m_tw[1].emplace_back(std::cos(ang), std::sin(ang));
    }
  }
}

void FftPlan::Axis::transform(Complex* data, std::int64_t block, bool inverse) const {
  if (block == 1) {
    for (const auto& s : m_swaps) { std::swap(data[s[0]], data[s[1]]); }
  } else {
    for (const auto& s : m_swaps) {
      std::swap_ranges(data + s[0] * block, data + (s[0] + 1) * block, data + s[1] * block);
    }
  }
  const Complex* tw = m_tw[inverse ? 1 : 0].data();
  for (int h = 1; h < m_n; h *= 2) {
    const Complex* w = tw + (h - 1);
    for (int i = 0; i < m_n; i += 2 * h) {
      if (block == 1) {
        Complex* __restrict__ lo = data + i;
        Complex* __restrict__ hi = lo + h;
        for (int j = 0; j < h; ++j) { butterfly(lo[j], hi[j], w[j]); }
      } else {
        for (int j = 0; j < h; ++j) {
          Complex* __restrict__ lo = data + (i + j) * block;
          Complex* __restrict__ hi = lo + h * block;
          const Complex wj = w[j];
          for (std::int64_t e = 0; e < block; ++e) { butterfly(lo[e], hi[e], wj); }
        }
      }
    }
  }
}

FftPlan::FftPlan(int nx, int ny, int nz)
    : m_n{nx, ny, nz}, m_x(nx), m_y(ny), m_z(nz), m_xhalf(std::max(nx / 2, 1)) {
  for (int m = 0; m <= nx / 4; ++m) {
    const Real ang = 2 * constants::pi * m / nx;
    m_split_tw.emplace_back(std::cos(ang), -std::sin(ang));
  }
}

std::int64_t FftPlan::num_points() const {
  return static_cast<std::int64_t>(m_n[0]) * m_n[1] * m_n[2];
}

std::int64_t FftPlan::num_half_modes() const {
  return static_cast<std::int64_t>(half_nx()) * m_n[1] * m_n[2];
}

void FftPlan::slow_axes(Complex* a, std::int64_t row, bool inverse) const {
  const std::int64_t plane = row * m_n[1];
  for (int k = 0; k < m_n[2]; ++k) { m_y.transform(a + k * plane, row, inverse); }
  m_z.transform(a, plane, inverse);
}

void FftPlan::forward(Complex* a) const {
  const std::int64_t rows = static_cast<std::int64_t>(m_n[1]) * m_n[2];
  for (std::int64_t r = 0; r < rows; ++r) { m_x.transform(a + r * m_n[0], 1, false); }
  slow_axes(a, m_n[0], false);
}

void FftPlan::inverse(Complex* a) const {
  slow_axes(a, m_n[0], true);
  const std::int64_t rows = static_cast<std::int64_t>(m_n[1]) * m_n[2];
  for (std::int64_t r = 0; r < rows; ++r) { m_x.transform(a + r * m_n[0], 1, true); }
  const Real s = Real(1) / static_cast<Real>(num_points());
  for (std::int64_t i = 0; i < num_points(); ++i) { a[i] *= s; }
}

// Real row x (length n = 2M) to its half spectrum X[0..M]: transform the
// packed z[t] = x[2t] + i x[2t+1] with the M-point axis, then split the even
// and odd sample spectra, X[m] = Ev[m] + W^m Od[m] with W = exp(-2 pi i/n).
void FftPlan::real_row_forward(const Real* x, Complex* X) const {
  const int n = m_n[0];
  if (n == 1) {
    X[0] = Complex(x[0], 0);
    return;
  }
  const int M = n / 2;
  for (int t = 0; t < M; ++t) { X[t] = Complex(x[2 * t], x[2 * t + 1]); }
  m_xhalf.transform(X, 1, false);
  const Complex z0 = X[0];
  X[0] = Complex(z0.real() + z0.imag(), 0);
  X[M] = Complex(z0.real() - z0.imag(), 0);
  // Pairs (m, M-m): Ev = (a + conj b)/2, Od = -i (a - conj b)/2,
  // X[m] = Ev + W^m Od, X[M-m] = conj(Ev - W^m Od).
  for (int m = 1; m < M - m; ++m) {
    const Complex a = X[m], b = X[M - m];
    const Real er = Real(0.5) * (a.real() + b.real());
    const Real ei = Real(0.5) * (a.imag() - b.imag());
    const Real orr = Real(0.5) * (a.imag() + b.imag());
    const Real oi = Real(-0.5) * (a.real() - b.real());
    const Complex w = m_split_tw[m];
    const Real tr = orr * w.real() - oi * w.imag();
    const Real ti = orr * w.imag() + oi * w.real();
    X[m] = Complex(er + tr, ei + ti);
    X[M - m] = Complex(er - tr, ti - ei);
  }
  if (M % 2 == 0) { X[M / 2] = std::conj(X[M / 2]); } // W^(M/2) = -i
}

// Inverse of real_row_forward, times n * scale: Z[m] = 2 (Ev[m] + i Od[m])
// from X[m] and conj(X[M-m]), the M-point inverse, then unpack.
void FftPlan::real_row_inverse(Complex* X, Real* x, Real scale) const {
  const int n = m_n[0];
  if (n == 1) {
    x[0] = X[0].real() * scale;
    return;
  }
  const int M = n / 2;
  const Real r0 = X[0].real(), rM = X[M].real();
  X[0] = Complex(r0 + rM, r0 - rM);
  // Ev2 = a + conj b, Od2 = (a - conj b) conj(W^m); Z[m] = Ev2 + i Od2,
  // Z[M-m] = conj(Ev2 - i Od2).
  for (int m = 1; m < M - m; ++m) {
    const Complex a = X[m], b = X[M - m];
    const Real er = a.real() + b.real(), ei = a.imag() - b.imag();
    const Real dr = a.real() - b.real(), di = a.imag() + b.imag();
    const Complex w = m_split_tw[m];
    const Real orr = dr * w.real() + di * w.imag();
    const Real oi = di * w.real() - dr * w.imag();
    X[m] = Complex(er - oi, ei + orr);
    X[M - m] = Complex(er + oi, orr - ei);
  }
  if (M % 2 == 0) { X[M / 2] = Real(2) * std::conj(X[M / 2]); }
  m_xhalf.transform(X, 1, true);
  for (int t = 0; t < M; ++t) {
    x[2 * t] = X[t].real() * scale;
    x[2 * t + 1] = X[t].imag() * scale;
  }
}

void FftPlan::forward_real(const Real* in, std::int64_t row_pitch, std::int64_t plane_pitch,
                           Complex* out) const {
  const int nxh = half_nx();
  for (int k = 0; k < m_n[2]; ++k) {
    for (int j = 0; j < m_n[1]; ++j) {
      real_row_forward(in + j * row_pitch + k * plane_pitch,
                       out + (j + static_cast<std::int64_t>(k) * m_n[1]) * nxh);
    }
  }
  slow_axes(out, nxh, false);
}

void FftPlan::inverse_real(Complex* spectrum, Real* out, std::int64_t row_pitch,
                           std::int64_t plane_pitch) const {
  const int nxh = half_nx();
  slow_axes(spectrum, nxh, true);
  const Real scale = Real(1) / static_cast<Real>(num_points());
  for (int k = 0; k < m_n[2]; ++k) {
    for (int j = 0; j < m_n[1]; ++j) {
      real_row_inverse(spectrum + (j + static_cast<std::int64_t>(k) * m_n[1]) * nxh,
                       out + j * row_pitch + k * plane_pitch, scale);
    }
  }
}

} // namespace mrpic::fields
