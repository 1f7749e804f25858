#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/fields/fft.hpp"

namespace mrpic::fields {
namespace {

std::vector<Complex> random_complex(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<Complex> a(n);
  for (auto& v : a) { v = Complex(dist(rng), dist(rng)); }
  return a;
}

std::vector<Real> random_real(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<Real> a(n);
  for (auto& v : a) { v = dist(rng); }
  return a;
}

TEST(Fft, PowerOfTwoPredicate) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_FALSE(is_power_of_two(-4));
}

TEST(Fft, NonPowerOfTwoLengthThrows) {
  EXPECT_THROW(FftPlan(48), std::invalid_argument);
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(-4), std::invalid_argument);
  EXPECT_THROW(FftPlan(16, 12), std::invalid_argument);
  EXPECT_THROW(FftPlan(8, 4, 6), std::invalid_argument);
  try {
    FftPlan plan(48);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("48"), std::string::npos);
  }
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  std::vector<Complex> a(16, Complex(0));
  a[0] = Complex(1);
  FftPlan(16).forward(a.data());
  for (const auto& v : a) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleModeLandsInSingleBin) {
  const int n = 32;
  std::vector<Complex> a(n);
  for (int i = 0; i < n; ++i) {
    a[i] = Complex(std::cos(2 * constants::pi * 3 * i / n), 0);
  }
  FftPlan(n).forward(a.data());
  // cos(2 pi 3 x / L): power split between bins 3 and n-3, amplitude n/2.
  EXPECT_NEAR(std::abs(a[3]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(a[n - 3]), n / 2.0, 1e-9);
  for (int m = 0; m < n; ++m) {
    if (m != 3 && m != n - 3) { EXPECT_NEAR(std::abs(a[m]), 0.0, 1e-9) << m; }
  }
}

TEST(Fft, RoundTrip1D) {
  const int n = 64;
  auto a = random_complex(n, 3);
  const auto orig = a;
  const FftPlan plan(n);
  plan.forward(a.data());
  plan.inverse(a.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(a[i].real(), orig[i].real(), 1e-12);
    EXPECT_NEAR(a[i].imag(), orig[i].imag(), 1e-12);
  }
}

TEST(Fft, ParsevalEnergyPreserved) {
  const int n = 128;
  std::vector<Complex> a(n);
  double time_energy = 0;
  const auto x = random_real(n, 7);
  for (int i = 0; i < n; ++i) {
    a[i] = Complex(x[i], 0);
    time_energy += std::norm(a[i]);
  }
  FftPlan(n).forward(a.data());
  double freq_energy = 0;
  for (const auto& v : a) { freq_energy += std::norm(v); }
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * time_energy);
}

TEST(Fft, RoundTrip2D) {
  const int nx = 16, ny = 8;
  auto a = random_complex(nx * ny, 11);
  const auto orig = a;
  const FftPlan plan(nx, ny);
  plan.forward(a.data());
  plan.inverse(a.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-11);
  }
}

TEST(Fft, RoundTrip3D) {
  const int nx = 8, ny = 4, nz = 16;
  auto a = random_complex(nx * ny * nz, 13);
  const auto orig = a;
  const FftPlan plan(nx, ny, nz);
  plan.forward(a.data());
  plan.inverse(a.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-11);
  }
}

TEST(Fft, SeparableModeIn2D) {
  const int nx = 16, ny = 16;
  std::vector<Complex> a(nx * ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      a[i + j * nx] = std::exp(Complex(0, 2 * constants::pi * (2.0 * i / nx + 5.0 * j / ny)));
    }
  }
  FftPlan(nx, ny).forward(a.data());
  // exp(i(k2 x + k5 y)) -> single bin (2, 5) with amplitude nx*ny.
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double expect = (i == 2 && j == 5) ? nx * ny : 0.0;
      EXPECT_NEAR(std::abs(a[i + j * nx]), expect, 1e-8) << i << "," << j;
    }
  }
}

// Grids of every dimensionality, including x extents of 1 and 2.
const std::array<std::array<int, 3>, 8> kRealGrids = {{
    {1, 1, 1}, {2, 1, 1}, {64, 1, 1}, {1, 8, 1}, {2, 8, 1}, {16, 8, 1}, {8, 4, 16}, {4, 2, 2},
}};

TEST(Fft, HalfSpectrumMatchesComplexTransform) {
  for (const auto& n : kRealGrids) {
    const FftPlan plan(n[0], n[1], n[2]);
    const auto x = random_real(plan.num_points(), 17);
    std::vector<Complex> full(x.begin(), x.end());
    plan.forward(full.data());
    std::vector<Complex> half(plan.num_half_modes());
    plan.forward_real(x.data(), n[0], static_cast<std::int64_t>(n[0]) * n[1], half.data());
    for (int mz = 0; mz < n[2]; ++mz) {
      for (int my = 0; my < n[1]; ++my) {
        for (int mx = 0; mx < plan.half_nx(); ++mx) {
          const Complex h = half[mx + plan.half_nx() * (my + n[1] * mz)];
          const Complex f = full[mx + n[0] * (my + n[1] * mz)];
          EXPECT_NEAR(std::abs(h - f), 0.0, 1e-12)
              << n[0] << "x" << n[1] << "x" << n[2] << " mode " << mx << "," << my << "," << mz;
        }
      }
    }
  }
}

TEST(Fft, RealRoundTripThroughPitchedRows) {
  // Rows padded by 3 values and planes by one extra row, as in a fab with
  // ghost cells; the padding must be neither read into the spectrum nor
  // written by the inverse.
  for (const auto& n : kRealGrids) {
    const FftPlan plan(n[0], n[1], n[2]);
    const std::int64_t row = n[0] + 3, plane = row * (n[1] + 1);
    const auto x = random_real(plane * n[2], 19);
    std::vector<Complex> spectrum(plan.num_half_modes());
    plan.forward_real(x.data(), row, plane, spectrum.data());
    std::vector<Real> y(x.size(), 42.0);
    plan.inverse_real(spectrum.data(), y.data(), row, plane);
    for (int k = 0; k < n[2]; ++k) {
      for (int j = 0; j <= n[1]; ++j) {
        for (int i = 0; i < row; ++i) {
          const std::int64_t at = i + j * row + k * plane;
          const bool valid = i < n[0] && j < n[1];
          EXPECT_NEAR(y[at], valid ? x[at] : 42.0, 1e-13)
              << n[0] << "x" << n[1] << "x" << n[2] << " at " << i << "," << j << "," << k;
        }
      }
    }
  }
}

TEST(Fft, WavenumberFolding) {
  const Real dx = 0.5;
  const int n = 8;
  EXPECT_DOUBLE_EQ(fft_wavenumber(0, n, dx), 0.0);
  EXPECT_DOUBLE_EQ(fft_wavenumber(1, n, dx), 2 * constants::pi / (n * dx));
  // Above n/2 the mode is negative frequency.
  EXPECT_DOUBLE_EQ(fft_wavenumber(n - 1, n, dx), -2 * constants::pi / (n * dx));
  EXPECT_DOUBLE_EQ(fft_wavenumber(n / 2, n, dx), 2 * constants::pi * (n / 2) / (n * dx));
}

} // namespace
} // namespace mrpic::fields
