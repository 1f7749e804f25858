#pragma once

// Pseudo-Spectral Analytical Time-Domain (PSATD) Maxwell solver — the last
// capability row of paper Table I and a pillar of its outlook (Sec. VIII.B:
// "unique algorithms for control of the numerical Cherenkov instability
// using properties of the Pseudo-Spectral Analytical Time-Domain Maxwell
// solver").
//
// In Fourier space the source-free Maxwell equations decouple per mode and
// integrate EXACTLY over any dt:
//   E+_T = C E_T + i c S (khat x B),       C = cos(c k dt)
//   B+   = C B   - (i/c) S (khat x E_T),   S = sin(c k dt)
//   E+_L = E_L                             (longitudinal mode static)
// With a current J held constant across the step (the standard PSATD
// assumption), the particular solution adds
//   E+_T += -S/(eps0 c k) J_T
//   E+_L += -dt/eps0      J_L              (k = 0 likewise)
//   B+   += -(1 - C)/(eps0 c^2 k) i (k x J) / k
// There is no CFL limit and no numerical dispersion: vacuum waves advance
// at exactly c — which the tests verify to machine precision.
//
// Scope: fully periodic, single-box levels with power-of-two extents (the
// spectral transform is global). Yee staggering is handled spectrally: each
// component's samples are shifted to nodal positions by the phase factor
// exp(-i k.s dx/2) after the forward transform and shifted back before the
// inverse, so the solver composes exactly with the staggered
// gather/deposition pipeline (cfg.maxwell = MaxwellSolver::PSATD).
//
// Everything fixed by the grid and dt is computed once: the transform plan
// and the per-axis half-cell phase tables at construction, the per-mode
// update coefficients whenever dt changes. Each real field component is
// transformed real-to-complex on its own, so the spectra hold the
// (nx/2+1)*ny(*nz) modes with mx <= nx/2. A mode on a Nyquist plane
// (m_d = n_d/2) stands for both aliases k_d = +-pi/dx_d; there the
// shift-update-unshift operator is applied at the alias with every Nyquist
// component positive and at the alias with every one negative, and the two
// results are averaged. That is the real part of the full complex solve, so
// the fields stay real.

#include <array>
#include <vector>

#include "src/fields/fft.hpp"
#include "src/fields/field_set.hpp"

namespace mrpic::fields {

template <int DIM>
class PsatdSolver {
public:
  // Throws std::invalid_argument unless geom is periodic in every direction
  // with power-of-two extents.
  explicit PsatdSolver(const mrpic::Geometry<DIM>& geom);

  // Advance E, B by dt with the currents in f.J() (gathered at t^{n+1/2}).
  // Reads/writes the valid region of the single fab; call f.fill_boundary()
  // afterwards if ghost data is needed. Throws std::invalid_argument unless
  // f is one box covering the whole domain.
  void advance(FieldSet<DIM>& f, Real dt);

  // No CFL limit; any dt is stable. Exposed for symmetry with FDTDSolver.
  static constexpr bool unconditionally_stable() { return true; }

private:
  // Update coefficients of one mode for the current dt (the k = 0 mode
  // holds the limits: khat = 0, C = 1, S = 0, drive_E = dt/eps0).
  struct Mode {
    Real kh[3];   // k / |k| at the alias with Nyquist components positive
    Real C;       // cos(c k dt)
    Real cS;      // c sin(c k dt)
    Real S_c;     // sin(c k dt) / c
    Real drive_E; // S / (eps0 c k): current drive of E
    Real drive_B; // (1 - C) / (eps0 c^2 k): current drive of B
  };
  using Spectra = std::array<std::vector<Complex>, 3>;

  mrpic::Geometry<DIM> m_geom;
  std::array<int, 3> m_n{1, 1, 1};
  FftPlan m_plan;
  // Mode index of each axis's Nyquist plane, -1 where there is none.
  std::array<int, 3> m_nyquist{-1, -1, -1};
  // exp(-i k_d dx_d / 2) per mode index along axis d (x: mx <= nx/2).
  std::array<std::vector<Complex>, 3> m_phase;
  std::vector<Mode> m_modes; // one per half-spectrum mode, for m_dt
  Real m_dt = 0;
  Spectra m_E, m_B, m_J; // half spectra, 3 components each

  void build_modes(Real dt);
  void forward(const mrpic::MultiFab<DIM>& src, Spectra& dst) const;
  void inverse(Spectra& src, mrpic::MultiFab<DIM>& dst) const;
};

extern template class PsatdSolver<2>;
extern template class PsatdSolver<3>;

} // namespace mrpic::fields
