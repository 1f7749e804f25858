#pragma once

// insitu::reductions — the physics-side reduced diagnostics of the paper's
// deliverables (Figs. 6-7): beam moments and normalized RMS emittance of the
// accelerated electrons, energy-spectrum peak/FWHM (reusing diag::Spectrum /
// diag::BeamQuality), laser a0 and pulse-centroid tracking, a wakefield
// amplitude probe (max |Ex| behind the pulse) and per-component field
// energy. All of them are cheap single-pass reductions over the particle
// tiles / field fabs, designed to run in-situ at a cadence (src/insitu
// registry) instead of writing full particle or field dumps.

#include <array>
#include <cstdint>
#include <limits>

#include "src/amr/config.hpp"
#include "src/diag/spectrum.hpp"
#include "src/fields/field_set.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::insitu {

// --- beam moments / emittance ----------------------------------------------

// Weighted first/second moments of a particle population plus the
// transverse normalized RMS emittances. Transverse planes are indexed
// against the propagation axis (dim 0): plane y pairs position x[1] with
// proper velocity u[1]; plane z pairs x[2] with u[2] and is NaN in 2D
// (there is no x[2] coordinate to correlate against).
struct BeamMoments {
  std::int64_t count = 0;  // macroparticles included
  double weight = 0;       // sum of macro-weights (physical particles)
  double charge_C = 0;     // weight * species charge

  std::array<double, 3> mean_x{};  // <x_d> [m] (entries >= DIM are 0)
  std::array<double, 3> mean_u{};  // <u_c> [m/s], all 3 components
  std::array<double, 3> rms_x{};   // centered RMS sizes [m]
  std::array<double, 3> rms_u{};   // centered RMS proper velocities [m/s]

  // Normalized RMS emittance eps_n = sqrt(<dx^2><du^2> - <dx du>^2) / c
  // [m rad] for the transverse y plane and (3D only) the z plane.
  double emit_ny = std::numeric_limits<double>::quiet_NaN();
  double emit_nz = std::numeric_limits<double>::quiet_NaN();

  double mean_gamma = std::numeric_limits<double>::quiet_NaN();
  double mean_energy_J = std::numeric_limits<double>::quiet_NaN();
  double max_gamma = 1;
};

// Streaming accumulator so multi-level species (level-0 container + MR patch
// container) reduce into one set of moments without concatenating tiles.
template <int DIM>
class BeamMomentsAccumulator {
public:
  // Only particles with kinetic energy >= e_min_J contribute (0 = all);
  // the cut selects the accelerated beam out of the thermal bulk.
  explicit BeamMomentsAccumulator(double e_min_J = 0) : m_e_min(e_min_J) {}

  void add(const particles::ParticleContainer<DIM>& pc);
  BeamMoments finalize() const;

private:
  double m_e_min = 0;
  double m_mass = 0;    // of the last species added (moments are per-species)
  double m_charge = 0;
  std::int64_t m_count = 0;
  double m_w = 0;
  std::array<double, DIM> m_sx{}, m_sxx{};
  std::array<double, 3> m_su{}, m_suu{};
  std::array<double, DIM> m_sxu{};  // cross term x_d * u_d (same d)
  double m_sgamma = 0, m_senergy = 0, m_max_gamma = 1;
};

// --- spectrum --------------------------------------------------------------

// One reduced energy-spectrum result: the histogram plus the analyzed
// peak/FWHM/charge (diag::analyze_beam).
struct SpectrumSummary {
  diag::Spectrum spectrum;
  diag::BeamQuality beam;
  double weight_total = 0;  // sum of histogram counts (macro-weights)
};

// Histogram + analysis over one or more containers of the same species
// (level 0 + MR patch). charge_per_count is |q| of the species.
template <int DIM>
SpectrumSummary summarize_spectrum(
    const std::vector<const particles::ParticleContainer<DIM>*>& pcs, Real e_min,
    Real e_max, int nbins, Real charge_per_count);

// --- laser tracking --------------------------------------------------------

struct LaserSample {
  double peak_E_V_m = 0;   // max |E_pol| over the level-0 valid cells
  double a0 = 0;           // e E / (m_e omega c) at the probed wavelength
  double centroid_x_m = std::numeric_limits<double>::quiet_NaN();
  // Intensity-weighted <x> of E_pol^2 along the propagation axis (dim 0).
};

// Probe the laser pulse on the level-0 fields: peak field of the
// polarization component, its a0 at `wavelength`, and the pulse centroid.
template <int DIM>
LaserSample laser_probe(const fields::FieldSet<DIM>& f, Real wavelength,
                        int polarization_comp);

// --- wakefield -------------------------------------------------------------

// Max |Ex| over valid cells with x-center < x_behind: the accelerating
// wakefield amplitude behind the pulse (pass the laser centroid, or
// +infinity for the whole-domain max). Returns 0 when nothing qualifies.
template <int DIM>
Real wakefield_amplitude(const fields::FieldSet<DIM>& f, Real x_behind);

// --- field energy ----------------------------------------------------------

// Per-component electromagnetic energy of one level [J]:
// eps0/2 sum E_c^2 dV and 1/(2 mu0) sum B_c^2 dV.
struct FieldEnergyBreakdown {
  std::array<double, 3> E_J{};
  std::array<double, 3> B_J{};
  double total_J() const {
    return E_J[0] + E_J[1] + E_J[2] + B_J[0] + B_J[1] + B_J[2];
  }
};

template <int DIM>
FieldEnergyBreakdown field_energy_breakdown(const fields::FieldSet<DIM>& f);

// --- explicit instantiations ----------------------------------------------

extern template class BeamMomentsAccumulator<2>;
extern template class BeamMomentsAccumulator<3>;
extern template SpectrumSummary summarize_spectrum<2>(
    const std::vector<const particles::ParticleContainer<2>*>&, Real, Real, int, Real);
extern template SpectrumSummary summarize_spectrum<3>(
    const std::vector<const particles::ParticleContainer<3>*>&, Real, Real, int, Real);
extern template LaserSample laser_probe<2>(const fields::FieldSet<2>&, Real, int);
extern template LaserSample laser_probe<3>(const fields::FieldSet<3>&, Real, int);
extern template Real wakefield_amplitude<2>(const fields::FieldSet<2>&, Real);
extern template Real wakefield_amplitude<3>(const fields::FieldSet<3>&, Real);
extern template FieldEnergyBreakdown field_energy_breakdown<2>(const fields::FieldSet<2>&);
extern template FieldEnergyBreakdown field_energy_breakdown<3>(const fields::FieldSet<3>&);

} // namespace mrpic::insitu
