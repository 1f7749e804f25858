#include "src/diag/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mrpic::diag {

namespace {

template <int DIM>
Real u2_of(const mrpic::particles::ParticleTile<DIM>& t, std::size_t i) {
  return t.u[0][i] * t.u[0][i] + t.u[1][i] * t.u[1][i] + t.u[2][i] * t.u[2][i];
}

} // namespace

template <int DIM>
Spectrum energy_spectrum(const mrpic::particles::ParticleContainer<DIM>& pc, Real e_min,
                         Real e_max, int nbins) {
  Spectrum s;
  s.e_min = e_min;
  s.e_max = e_max;
  s.counts.assign(nbins, Real(0));
  const Real mass = pc.species().mass;
  const Real inv_bw = nbins / (e_max - e_min);
  const Real u2_min = u2_below_energy(e_min, mass);
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    const auto& t = pc.tile(ti);
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Real u2 = u2_of<DIM>(t, i);
      if (u2 < u2_min) { continue; }
      const Real e = kinetic_energy(u2, mass);
      if (e < e_min || e >= e_max) { continue; }
      const int b = static_cast<int>((e - e_min) * inv_bw);
      s.counts[b] += t.w[i];
    }
  }
  return s;
}

BeamQuality analyze_beam(const Spectrum& s, Real charge_per_count) {
  BeamQuality q;
  const auto peak_it = std::max_element(s.counts.begin(), s.counts.end());
  if (peak_it == s.counts.end() || !(*peak_it > 0)) {
    // No particle in the window: there is no peak to locate.
    q.peak_energy = std::numeric_limits<Real>::quiet_NaN();
    q.energy_spread = std::numeric_limits<Real>::quiet_NaN();
    return q;
  }
  const std::size_t pk = static_cast<std::size_t>(peak_it - s.counts.begin());
  q.peak_energy = s.bin_center(pk);
  const Real half = *peak_it / 2;

  // FWHM: walk outward from the peak to the half-maximum crossings.
  std::size_t lo = pk;
  while (lo > 0 && s.counts[lo] > half) { --lo; }
  std::size_t hi = pk;
  while (hi + 1 < s.counts.size() && s.counts[hi] > half) { ++hi; }
  const Real fwhm = (hi - lo) * s.bin_width();
  q.energy_spread = q.peak_energy > 0 ? fwhm / q.peak_energy : Real(0);

  Real total = 0;
  for (Real v : s.counts) { total += v; }
  q.charge = total * charge_per_count;
  return q;
}

template <int DIM>
Real charge_above(const mrpic::particles::ParticleContainer<DIM>& pc, Real e_min) {
  const Real mass = pc.species().mass;
  Real w_sum = 0;
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    const auto& t = pc.tile(ti);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (kinetic_energy(u2_of<DIM>(t, i), mass) >= e_min) { w_sum += t.w[i]; }
    }
  }
  return w_sum * std::abs(pc.species().charge);
}

template Spectrum energy_spectrum<2>(const mrpic::particles::ParticleContainer<2>&, Real,
                                     Real, int);
template Spectrum energy_spectrum<3>(const mrpic::particles::ParticleContainer<3>&, Real,
                                     Real, int);
template Real charge_above<2>(const mrpic::particles::ParticleContainer<2>&, Real);
template Real charge_above<3>(const mrpic::particles::ParticleContainer<3>&, Real);

} // namespace mrpic::diag
