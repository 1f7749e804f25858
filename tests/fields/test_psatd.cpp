#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "src/fields/fdtd.hpp"
#include "src/fields/psatd.hpp"

namespace mrpic::fields {
namespace {

using mrpic::constants::c;
using mrpic::constants::eps0;
using mrpic::constants::pi;

FieldSet<2> periodic_2d(int n) {
  const mrpic::Geometry<2> geom(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1)),
                                mrpic::RealVect2(0, 0), mrpic::RealVect2(1e-5, 1e-5),
                                {true, true});
  return FieldSet<2>(geom, mrpic::BoxArray<2>(geom.domain()));
}

// Sinusoidal plane wave along x: Ez = E0 sin(kx), By = -Ez/c, each sampled
// at its own Yee-staggered location (Ez nodal in x; By at i + 1/2 — the
// solver handles the staggering spectrally).
void plane_wave(FieldSet<2>& f, int mode, Real amp) {
  const auto& geom = f.geom();
  const int n = geom.domain().length(0);
  auto e = f.E().array(0);
  auto b = f.B().array(0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      e(i, j, 0, 2) = amp * std::sin(2 * pi * mode * i / n);
      b(i, j, 0, 1) = -amp * std::sin(2 * pi * mode * (i + 0.5) / n) / c;
    }
  }
}

TEST(Psatd, VacuumPlaneWaveAdvectsExactly) {
  // The PSATD headline: no dispersion, waves advance at exactly c for any
  // dt — even far above the FDTD CFL limit.
  auto f = periodic_2d(32);
  plane_wave(f, 3, 1.0);
  PsatdSolver<2> solver(f.geom());
  const Real L = 1e-5;
  // One full domain crossing in 10 steps: dt = L/(10c), CFL number ~ 3.2.
  const Real dt = L / (10 * c);
  EXPECT_GT(c * dt / f.geom().cell_size(0), 1.0) << "dt above the FDTD limit by design";
  for (int s = 0; s < 10; ++s) { solver.advance(f, dt); }
  // After one crossing of a periodic box the wave must be bit-like exact.
  const auto e = f.E().const_array(0);
  for (int i = 0; i < 32; ++i) {
    const Real phase = 2 * pi * 3 * i / 32.0;
    EXPECT_NEAR(e(i, 7, 0, 2), std::sin(phase), 1e-10) << i;
  }
}

TEST(Psatd, VacuumEnergyExactlyConserved) {
  auto f = periodic_2d(32);
  plane_wave(f, 2, 1.0);
  // Add an unrelated mode in y for good measure.
  auto e = f.E().array(0);
  for (int j = 0; j < 32; ++j) {
    for (int i = 0; i < 32; ++i) { e(i, j, 0, 0) += 0.3 * std::sin(2 * pi * 5 * j / 32.0); }
  }
  PsatdSolver<2> solver(f.geom());
  const Real e0 = f.field_energy();
  const Real dt = 0.7e-13 / 3; // arbitrary, far above CFL
  for (int s = 0; s < 57; ++s) { solver.advance(f, dt); }
  EXPECT_NEAR(f.field_energy() / e0, 1.0, 1e-10);
}

TEST(Psatd, StaticUniformFieldsUntouched) {
  auto f = periodic_2d(16);
  f.E().set_val(4.0, 2);
  f.B().set_val(-2.0, 0);
  PsatdSolver<2> solver(f.geom());
  for (int s = 0; s < 5; ++s) { solver.advance(f, 1e-14); }
  EXPECT_NEAR(f.E().fab(0)(mrpic::IntVect2(3, 3), 2), 4.0, 1e-12);
  EXPECT_NEAR(f.B().fab(0)(mrpic::IntVect2(3, 3), 0), -2.0, 1e-12);
}

TEST(Psatd, MeanCurrentDrivesMeanField) {
  // k = 0 mode: dE/dt = -J/eps0 exactly.
  auto f = periodic_2d(16);
  f.J().set_val(5.0, 2);
  PsatdSolver<2> solver(f.geom());
  const Real dt = 2e-15;
  solver.advance(f, dt);
  EXPECT_NEAR(f.E().fab(0)(mrpic::IntVect2(5, 5), 2), -5.0 * dt / eps0,
              std::abs(5.0 * dt / eps0) * 1e-12);
}

TEST(Psatd, AgreesWithFdtdAtFineResolution) {
  // On a well-resolved smooth pulse and small dt, the two solvers must
  // agree to the FDTD truncation error.
  auto f_sp = periodic_2d(64);
  auto f_fd = periodic_2d(64);
  const int n = 64;
  for (FieldSet<2>* f : {&f_sp, &f_fd}) {
    auto e = f->E().array(0);
    auto b = f->B().array(0);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) { // 32 cells per wavelength, staggered By
        e(i, j, 0, 2) = std::sin(2 * pi * 2 * i / n);
        b(i, j, 0, 1) = -std::sin(2 * pi * 2 * (i + 0.5) / n) / c;
      }
    }
  }
  PsatdSolver<2> sp(f_sp.geom());
  FDTDSolver<2> fd;
  const Real dt = cfl_dt(f_fd.geom(), 0.5);
  for (int s = 0; s < 40; ++s) {
    sp.advance(f_sp, dt);
    f_fd.fill_boundary();
    fd.evolve_b(f_fd, dt / 2);
    f_fd.fill_boundary();
    fd.evolve_e(f_fd, dt);
    f_fd.fill_boundary();
    fd.evolve_b(f_fd, dt / 2);
  }
  // Compare the RMS amplitude along a row (phase-insensitive: the sampled
  // maximum depends on where the crest sits between grid points).
  auto rms_amp = [&](FieldSet<2>& f) {
    Real s2 = 0;
    const auto e = f.E().const_array(0);
    for (int i = 0; i < n; ++i) { s2 += e(i, 5, 0, 2) * e(i, 5, 0, 2); }
    return std::sqrt(2 * s2 / n); // RMS of a unit sine is 1/sqrt(2)
  };
  EXPECT_NEAR(rms_amp(f_sp), 1.0, 1e-9); // spectral: exact amplitude
  EXPECT_NEAR(rms_amp(f_fd), 1.0, 0.05); // FDTD: truncation-level error
}

TEST(Psatd, FdtdDispersionErrorVsSpectralExactness) {
  // Quantify the paper-motivating difference: at 8 cells/wavelength a
  // wave's phase after one domain crossing is exact for PSATD and visibly
  // lags for FDTD (numerical dispersion).
  const int n = 32;
  auto f_sp = periodic_2d(n);
  auto f_fd = periodic_2d(n);
  const int mode = 4; // 8 cells per wavelength
  plane_wave(f_sp, mode, 1.0);
  plane_wave(f_fd, mode, 1.0);
  PsatdSolver<2> sp(f_sp.geom());
  FDTDSolver<2> fd;
  const Real L = 1e-5;
  const Real dt = cfl_dt(f_fd.geom(), 0.5);
  const int nsteps = static_cast<int>(L / (c * dt));
  for (int s = 0; s < nsteps; ++s) {
    sp.advance(f_sp, dt);
    f_fd.fill_boundary();
    fd.evolve_b(f_fd, dt / 2);
    f_fd.fill_boundary();
    fd.evolve_e(f_fd, dt);
    f_fd.fill_boundary();
    fd.evolve_b(f_fd, dt / 2);
  }
  // Phase of the propagating mode via its discrete Fourier amplitude,
  // against the exact expectation sin(kx - omega t).
  auto phase_error = [&](FieldSet<2>& f) {
    std::complex<Real> a(0, 0);
    const auto e = f.E().const_array(0);
    for (int i = 0; i < n; ++i) {
      a += e(i, 3, 0, 2) * std::exp(std::complex<Real>(0, -2 * pi * mode * i / n));
    }
    // sin(kx + phi) has mode amplitude ~ exp(i phi)/(2i); expected
    // phi = -omega t.
    const Real expected_phi = -2 * pi * mode * c * nsteps * dt / L;
    const std::complex<Real> expected =
        std::exp(std::complex<Real>(0, expected_phi)) / std::complex<Real>(0, 2);
    return std::arg(a / expected);
  };
  EXPECT_NEAR(phase_error(f_sp), 0.0, 1e-6); // spectral: dispersion-free
  // FDTD at 8 cells/wavelength: phase velocity ~2% low -> ~0.5 rad lag
  // after one domain crossing (the error the paper's PSATD work removes).
  EXPECT_GT(std::abs(phase_error(f_fd)), 0.1);
  EXPECT_LT(std::abs(phase_error(f_fd)), 1.5);
}

TEST(Psatd, Vacuum3DEnergyConserved) {
  const mrpic::Geometry<3> geom(
      mrpic::Box3(mrpic::IntVect3(0, 0, 0), mrpic::IntVect3(15, 15, 15)),
      mrpic::RealVect3(0, 0, 0), mrpic::RealVect3(1e-5, 1e-5, 1e-5), {true, true, true});
  FieldSet<3> f(geom, mrpic::BoxArray<3>(geom.domain()));
  auto e = f.E().array(0);
  for (int k = 0; k < 16; ++k) {
    for (int j = 0; j < 16; ++j) {
      for (int i = 0; i < 16; ++i) {
        e(i, j, k, 2) = std::sin(2 * pi * i / 16.0) * std::cos(2 * pi * j / 16.0);
      }
    }
  }
  PsatdSolver<3> solver(geom);
  const Real e0 = f.field_energy();
  for (int s = 0; s < 25; ++s) { solver.advance(f, 3e-15); }
  EXPECT_NEAR(f.field_energy() / e0, 1.0, 1e-9);
}

// --- Invalid set-ups --------------------------------------------------------

TEST(Psatd, NonPeriodicGeometryThrows) {
  const mrpic::Geometry<2> geom(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(15, 15)),
                                mrpic::RealVect2(0, 0), mrpic::RealVect2(1e-5, 1e-5),
                                {true, false});
  EXPECT_THROW(PsatdSolver<2>{geom}, std::invalid_argument);
}

TEST(Psatd, NonPowerOfTwoExtentThrows) {
  const mrpic::Geometry<3> geom(
      mrpic::Box3(mrpic::IntVect3(0, 0, 0), mrpic::IntVect3(15, 11, 7)),
      mrpic::RealVect3(0, 0, 0), mrpic::RealVect3(1e-5, 1e-5, 1e-5), {true, true, true});
  EXPECT_THROW(PsatdSolver<3>{geom}, std::invalid_argument);
}

TEST(Psatd, MultiBoxLevelThrows) {
  // The transform is global: a level split into boxes must be refused, not
  // read as one whole-domain fab.
  const mrpic::Geometry<2> geom(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(15, 15)),
                                mrpic::RealVect2(0, 0), mrpic::RealVect2(1e-5, 1e-5),
                                {true, true});
  FieldSet<2> f(geom, mrpic::BoxArray<2>::decompose(geom.domain(), 8));
  ASSERT_EQ(f.box_array().size(), 4u);
  PsatdSolver<2> solver(geom);
  EXPECT_THROW(solver.advance(f, 1e-15), std::invalid_argument);
}

// --- Reference solver -------------------------------------------------------

// The spectral solve as first written, kept test-local as a reference: a
// naive full-complex DFT of each component, the stagger shift and the exact
// update recomputed with cos/sin per mode, and the real part of the inverse.
// Fields are dense nx*ny*nz arrays (x fastest), one per component.
class ReferencePsatd {
public:
  using Field = std::array<std::vector<Real>, 3>;

  ReferencePsatd(std::array<int, 3> n, std::array<Real, 3> dx, int dim)
      : m_n(n), m_dx(dx), m_dim(dim) {}

  void advance(Field& E, Field& B, const Field& J, Real dt) const {
    std::array<std::vector<Complex>, 3> e, b, j;
    for (int comp = 0; comp < 3; ++comp) {
      e[comp] = shifted_spectrum(E[comp], e_stag3[comp]);
      b[comp] = shifted_spectrum(B[comp], b_stag3[comp]);
      j[comp] = shifted_spectrum(J[comp], e_stag3[comp]);
    }
    std::int64_t idx = 0;
    for (int mz = 0; mz < m_n[2]; ++mz) {
      for (int my = 0; my < m_n[1]; ++my) {
        for (int mx = 0; mx < m_n[0]; ++mx, ++idx) {
          update_mode(e, b, j, idx, {wavenumber(0, mx), wavenumber(1, my), wavenumber(2, mz)},
                      dt);
        }
      }
    }
    for (int comp = 0; comp < 3; ++comp) {
      E[comp] = real_field(e[comp], e_stag3[comp]);
      B[comp] = real_field(b[comp], b_stag3[comp]);
    }
  }

private:
  std::array<int, 3> m_n;
  std::array<Real, 3> m_dx;
  int m_dim;

  Real wavenumber(int d, int m) const {
    if (d >= m_dim) { return 0; }
    const int folded = m <= m_n[d] / 2 ? m : m - m_n[d];
    return 2 * pi * folded / (m_n[d] * m_dx[d]);
  }

  std::int64_t size() const { return static_cast<std::int64_t>(m_n[0]) * m_n[1] * m_n[2]; }

  // Naive DFT with exp(sign * 2 pi i m.x / n) over the whole grid.
  std::vector<Complex> dft(const std::vector<Complex>& a, int sign) const {
    std::vector<Complex> out(size());
    std::int64_t m = 0;
    for (int mz = 0; mz < m_n[2]; ++mz) {
      for (int my = 0; my < m_n[1]; ++my) {
        for (int mx = 0; mx < m_n[0]; ++mx, ++m) {
          Complex sum(0, 0);
          std::int64_t x = 0;
          for (int z = 0; z < m_n[2]; ++z) {
            for (int y = 0; y < m_n[1]; ++y) {
              for (int i = 0; i < m_n[0]; ++i, ++x) {
                const Real ph = 2 * pi *
                                (Real(mx) * i / m_n[0] + Real(my) * y / m_n[1] +
                                 Real(mz) * z / m_n[2]);
                sum += a[x] * Complex(std::cos(ph), sign * std::sin(ph));
              }
            }
          }
          out[m] = sum;
        }
      }
    }
    return out;
  }

  // Multiply by exp(sign i k.s dx/2) for staggering s.
  void shift(std::vector<Complex>& a, const std::array<int, 3>& s, int sign) const {
    std::int64_t idx = 0;
    for (int mz = 0; mz < m_n[2]; ++mz) {
      for (int my = 0; my < m_n[1]; ++my) {
        for (int mx = 0; mx < m_n[0]; ++mx, ++idx) {
          const int m[3] = {mx, my, mz};
          Real ph = 0;
          for (int d = 0; d < m_dim; ++d) {
            if (s[d] != 0) { ph += sign * wavenumber(d, m[d]) * m_dx[d] / 2; }
          }
          a[idx] *= Complex(std::cos(ph), std::sin(ph));
        }
      }
    }
  }

  std::vector<Complex> shifted_spectrum(const std::vector<Real>& f,
                                        const std::array<int, 3>& s) const {
    auto a = dft(std::vector<Complex>(f.begin(), f.end()), -1);
    shift(a, s, -1);
    return a;
  }

  std::vector<Real> real_field(std::vector<Complex> a, const std::array<int, 3>& s) const {
    shift(a, s, +1);
    const auto inv = dft(a, +1);
    std::vector<Real> out(size());
    for (std::int64_t i = 0; i < size(); ++i) { out[i] = inv[i].real() / size(); }
    return out;
  }

  static void update_mode(std::array<std::vector<Complex>, 3>& e,
                          std::array<std::vector<Complex>, 3>& b,
                          const std::array<std::vector<Complex>, 3>& jv, std::int64_t idx,
                          const std::array<Real, 3>& kvec, Real dt) {
    const Real k2 = kvec[0] * kvec[0] + kvec[1] * kvec[1] + kvec[2] * kvec[2];
    Complex E[3] = {e[0][idx], e[1][idx], e[2][idx]};
    Complex B[3] = {b[0][idx], b[1][idx], b[2][idx]};
    Complex J[3] = {jv[0][idx], jv[1][idx], jv[2][idx]};
    if (k2 == 0) {
      for (int cc = 0; cc < 3; ++cc) { e[cc][idx] = E[cc] - dt / eps0 * J[cc]; }
      return;
    }
    const Real k = std::sqrt(k2);
    const Real kh[3] = {kvec[0] / k, kvec[1] / k, kvec[2] / k};
    const Real C = std::cos(c * k * dt);
    const Real S = std::sin(c * k * dt);
    auto dot = [&](const Complex v[3]) { return v[0] * kh[0] + v[1] * kh[1] + v[2] * kh[2]; };
    const Complex EL = dot(E), JL = dot(J);
    Complex ET[3], JT[3];
    for (int cc = 0; cc < 3; ++cc) {
      ET[cc] = E[cc] - EL * kh[cc];
      JT[cc] = J[cc] - JL * kh[cc];
    }
    auto cross = [&](const Complex v[3], Complex out[3]) {
      out[0] = kh[1] * v[2] - kh[2] * v[1];
      out[1] = kh[2] * v[0] - kh[0] * v[2];
      out[2] = kh[0] * v[1] - kh[1] * v[0];
    };
    Complex kxB[3], kxE[3], kxJ[3];
    cross(B, kxB);
    cross(ET, kxE);
    cross(JT, kxJ);
    const Complex I(0, 1);
    for (int cc = 0; cc < 3; ++cc) {
      e[cc][idx] = C * ET[cc] + I * c * S * kxB[cc] - S / (eps0 * c * k) * JT[cc] +
                   (EL - dt / eps0 * JL) * kh[cc];
      b[cc][idx] = C * B[cc] - I * (S / c) * kxE[cc] + I * (1 - C) / (eps0 * c * c * k) * kxJ[cc];
    }
  }
};

// Copy between a FieldSet component array (valid region) and a dense array.
template <int DIM>
std::vector<Real> dense(const mrpic::MultiFab<DIM>& mf, int comp, std::array<int, 3> n) {
  const auto a = mf.const_array(0);
  std::vector<Real> out;
  for (int k = 0; k < n[2]; ++k) {
    for (int j = 0; j < n[1]; ++j) {
      for (int i = 0; i < n[0]; ++i) { out.push_back(a(i, j, k, comp)); }
    }
  }
  return out;
}

template <int DIM>
void fill(mrpic::MultiFab<DIM>& mf, int comp, std::array<int, 3> n,
          const std::vector<Real>& values) {
  auto a = mf.array(0);
  std::size_t at = 0;
  for (int k = 0; k < n[2]; ++k) {
    for (int j = 0; j < n[1]; ++j) {
      for (int i = 0; i < n[0]; ++i) { a(i, j, k, comp) = values[at++]; }
    }
  }
}

// Max-normalized distance between the solver's fields and the reference's.
template <int DIM>
Real max_rel_diff(const mrpic::MultiFab<DIM>& mf, const ReferencePsatd::Field& ref,
                  std::array<int, 3> n) {
  Real diff = 0, scale = 0;
  for (int comp = 0; comp < 3; ++comp) {
    const auto got = dense(mf, comp, n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      diff = std::max(diff, std::abs(got[i] - ref[comp][i]));
      scale = std::max(scale, std::abs(ref[comp][i]));
    }
  }
  return diff / scale;
}

// White-noise E, B, J (Nyquist content on every axis) advanced 20 steps by
// PsatdSolver and by the reference, with dt changed after step 10.
template <int DIM>
void expect_matches_reference(std::array<int, 3> n) {
  std::array<Real, 3> dx = {1e-6, 0.8e-6, 1.3e-6};
  mrpic::IntVect<DIM> hi;
  mrpic::RealVect<DIM> plo, phi;
  std::array<bool, DIM> periodic;
  for (int d = 0; d < DIM; ++d) {
    hi[d] = n[d] - 1;
    plo[d] = 0;
    phi[d] = n[d] * dx[d];
    periodic[d] = true;
  }
  const mrpic::Geometry<DIM> geom(mrpic::Box<DIM>(mrpic::IntVect<DIM>(0), hi), plo, phi,
                                  periodic);
  FieldSet<DIM> f(geom, mrpic::BoxArray<DIM>(geom.domain()));

  const Real dt0 = 0.7 * dx[0] / c;
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<Real> noise(-1, 1);
  ReferencePsatd::Field E, B, J;
  const std::int64_t npts = static_cast<std::int64_t>(n[0]) * n[1] * n[2];
  for (int comp = 0; comp < 3; ++comp) {
    for (std::int64_t i = 0; i < npts; ++i) {
      E[comp].push_back(noise(rng));
      B[comp].push_back(noise(rng) / c);
      J[comp].push_back(noise(rng) * eps0 / dt0);
    }
    fill(f.E(), comp, n, E[comp]);
    fill(f.B(), comp, n, B[comp]);
    fill(f.J(), comp, n, J[comp]);
  }

  const ReferencePsatd ref(n, dx, DIM);
  PsatdSolver<DIM> solver(geom);
  for (int s = 0; s < 20; ++s) {
    const Real dt = s < 10 ? dt0 : 1.9 * dt0;
    solver.advance(f, dt);
    ref.advance(E, B, J, dt);
  }
  EXPECT_LE(max_rel_diff(f.E(), E, n), 1e-12) << n[0] << "x" << n[1] << "x" << n[2];
  EXPECT_LE(max_rel_diff(f.B(), B, n), 1e-12) << n[0] << "x" << n[1] << "x" << n[2];
}

TEST(Psatd, MatchesFullComplexReference2D) {
  expect_matches_reference<2>({16, 8, 1});
  expect_matches_reference<2>({2, 8, 1});
  expect_matches_reference<2>({1, 8, 1});
}

TEST(Psatd, MatchesFullComplexReference3D) {
  expect_matches_reference<3>({8, 4, 4});
  expect_matches_reference<3>({2, 4, 4});
  expect_matches_reference<3>({1, 4, 4});
}

} // namespace
} // namespace mrpic::fields
