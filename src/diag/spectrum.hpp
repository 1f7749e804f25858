#pragma once

// Electron energy spectra and beam-quality metrics (paper Fig. 7b: peaked
// spectrum with < 10% energy spread above 100 MeV).

#include <vector>

#include "src/amr/config.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::diag {

struct Spectrum {
  Real e_min = 0, e_max = 0; // [J] histogram range
  std::vector<Real> counts;  // sum of weights per bin (dN, not dN/dE)

  Real bin_width() const { return (e_max - e_min) / counts.size(); }
  Real bin_center(std::size_t b) const { return e_min + (b + Real(0.5)) * bin_width(); }
};

// Histogram of kinetic energies weighted by macroparticle weight.
template <int DIM>
Spectrum energy_spectrum(const mrpic::particles::ParticleContainer<DIM>& pc, Real e_min,
                         Real e_max, int nbins);

struct BeamQuality {
  Real peak_energy = 0;   // [J] location of the spectral peak
  Real energy_spread = 0; // FWHM / peak energy (relative)
  Real charge = 0;        // [C] total charge in the analyzed range
};

// Peak location, relative FWHM spread and integrated charge of a spectrum
// (charge_per_count converts summed weights to Coulombs: |q| of the species).
// When no bin holds positive weight, peak_energy and energy_spread are NaN
// and charge is 0.
BeamQuality analyze_beam(const Spectrum& s, Real charge_per_count);

// Total |charge| of particles with kinetic energy above e_min [J] —
// the "beam charge in the simulation window" of paper Fig. 7a.
template <int DIM>
Real charge_above(const mrpic::particles::ParticleContainer<DIM>& pc, Real e_min);

extern template Spectrum energy_spectrum<2>(const mrpic::particles::ParticleContainer<2>&,
                                            Real, Real, int);
extern template Spectrum energy_spectrum<3>(const mrpic::particles::ParticleContainer<3>&,
                                            Real, Real, int);
extern template Real charge_above<2>(const mrpic::particles::ParticleContainer<2>&, Real);
extern template Real charge_above<3>(const mrpic::particles::ParticleContainer<3>&, Real);

} // namespace mrpic::diag
