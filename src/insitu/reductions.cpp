#include "src/insitu/reductions.hpp"

#include <cmath>

#include "src/fields/yee.hpp"

namespace mrpic::insitu {

using mrpic::constants::c;

// --- beam moments ----------------------------------------------------------

template <int DIM>
void BeamMomentsAccumulator<DIM>::add(const particles::ParticleContainer<DIM>& pc) {
  m_mass = pc.species().mass;
  m_charge = pc.species().charge;
  const double u2_min = diag::u2_below_energy(m_e_min, m_mass);
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    const auto& t = pc.tile(ti);
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double u2 = double(t.u[0][i]) * t.u[0][i] + double(t.u[1][i]) * t.u[1][i] +
                        double(t.u[2][i]) * t.u[2][i];
      if (u2 < u2_min) { continue; }
      const double gamma = std::sqrt(1 + u2 / (double(c) * c));
      const double e = (gamma - 1) * m_mass * double(c) * c;
      if (e < m_e_min) { continue; }
      const double w = t.w[i];
      ++m_count;
      m_w += w;
      for (int d = 0; d < DIM; ++d) {
        const double x = t.x[d][i];
        m_sx[d] += w * x;
        m_sxx[d] += w * x * x;
      }
      for (int cu = 0; cu < 3; ++cu) {
        const double u = t.u[cu][i];
        m_su[cu] += w * u;
        m_suu[cu] += w * u * u;
      }
      for (int d = 0; d < DIM; ++d) { m_sxu[d] += w * double(t.x[d][i]) * t.u[d][i]; }
      m_sgamma += w * gamma;
      m_senergy += w * e;
      if (gamma > m_max_gamma) { m_max_gamma = gamma; }
    }
  }
}

template <int DIM>
BeamMoments BeamMomentsAccumulator<DIM>::finalize() const {
  BeamMoments m;
  m.count = m_count;
  m.weight = m_w;
  m.charge_C = m_w * m_charge;
  m.max_gamma = m_max_gamma;
  if (m_w <= 0) { return m; }

  const double inv_w = 1.0 / m_w;
  std::array<double, DIM> var_x{};
  std::array<double, 3> var_u{};
  for (int d = 0; d < DIM; ++d) {
    m.mean_x[d] = m_sx[d] * inv_w;
    // Clamp tiny negative round-off before the sqrt.
    var_x[d] = std::max(0.0, m_sxx[d] * inv_w - m.mean_x[d] * m.mean_x[d]);
    m.rms_x[d] = std::sqrt(var_x[d]);
  }
  for (int cu = 0; cu < 3; ++cu) {
    m.mean_u[cu] = m_su[cu] * inv_w;
    var_u[cu] = std::max(0.0, m_suu[cu] * inv_w - m.mean_u[cu] * m.mean_u[cu]);
    m.rms_u[cu] = std::sqrt(var_u[cu]);
  }

  // Normalized RMS emittance of transverse plane d (propagation along 0):
  // eps_n = sqrt(<dx^2><du^2> - <dx du>^2) / c.
  const auto emitt = [&](int d) {
    const double cov = m_sxu[d] * inv_w - m.mean_x[d] * m.mean_u[d];
    const double det = var_x[d] * var_u[d] - cov * cov;
    return std::sqrt(std::max(0.0, det)) / c;
  };
  m.emit_ny = emitt(1);
  if constexpr (DIM >= 3) { m.emit_nz = emitt(2); }

  m.mean_gamma = m_sgamma * inv_w;
  m.mean_energy_J = m_senergy * inv_w;
  return m;
}

// --- spectrum --------------------------------------------------------------

template <int DIM>
SpectrumSummary summarize_spectrum(
    const std::vector<const particles::ParticleContainer<DIM>*>& pcs, Real e_min,
    Real e_max, int nbins, Real charge_per_count) {
  SpectrumSummary s;
  s.spectrum.e_min = e_min;
  s.spectrum.e_max = e_max;
  s.spectrum.counts.assign(static_cast<std::size_t>(nbins), Real(0));
  for (const auto* pc : pcs) {
    if (pc == nullptr) { continue; }
    const auto part = diag::energy_spectrum<DIM>(*pc, e_min, e_max, nbins);
    for (std::size_t b = 0; b < part.counts.size(); ++b) {
      s.spectrum.counts[b] += part.counts[b];
    }
  }
  for (Real v : s.spectrum.counts) { s.weight_total += v; }
  s.beam = diag::analyze_beam(s.spectrum, charge_per_count);
  return s;
}

// --- laser probe -----------------------------------------------------------

template <int DIM>
LaserSample laser_probe(const fields::FieldSet<DIM>& f, Real wavelength,
                        int polarization_comp) {
  LaserSample out;
  const auto& E = f.E();
  const auto& geom = f.geom();
  double max_abs = 0;
  double sum_i = 0;     // sum E^2 (intensity proxy)
  double sum_ix = 0;    // sum E^2 * x
  // Cell order, a row's nonzero_span at a time: a +-0 cell would leave the
  // maximum and both sums as they are (they start at +0 and are never -0).
  for (int fi = 0; fi < E.num_fabs(); ++fi) {
    const auto& fab = E.fab(fi);
    const auto a4 = fab.const_array();
    const Box<DIM>& vb = E.valid_box(fi);
    const int i0 = vb.lo(0), nx = vb.length(0);
    fab.for_each_row(vb, [&](int j, int k) {
      const Real* row = a4.row(i0, j, k, polarization_comp, nx);
      const auto [lo, hi] = nonzero_span(row, nx);
      for (int n = lo; n < hi; ++n) {
        const double v = row[n];
        const double a = std::abs(v);
        if (a > max_abs) { max_abs = a; }
        const double x = geom.cell_center(i0 + n, 0);
        sum_i += v * v;
        sum_ix += v * v * x;
      }
    });
  }
  out.peak_E_V_m = max_abs;
  if (wavelength > 0) {
    using namespace mrpic::constants;
    const double omega = 2 * pi * c / wavelength;
    out.a0 = q_e * max_abs / (m_e * omega * c);
  }
  if (sum_i > 0) { out.centroid_x_m = sum_ix / sum_i; }
  return out;
}

// --- wakefield probe -------------------------------------------------------

template <int DIM>
Real wakefield_amplitude(const fields::FieldSet<DIM>& f, Real x_behind) {
  const auto& E = f.E();
  const auto& geom = f.geom();
  Real best = 0;
  // A row's nonzero_span at a time: a +-0 cell cannot raise the maximum,
  // and cell centres grow with i, so the first one at or past x_behind
  // ends the row.
  for (int fi = 0; fi < E.num_fabs(); ++fi) {
    const auto& fab = E.fab(fi);
    const auto a4 = fab.const_array();
    const Box<DIM>& vb = E.valid_box(fi);
    const int i0 = vb.lo(0), nx = vb.length(0);
    fab.for_each_row(vb, [&](int j, int k) {
      const Real* row = a4.row(i0, j, k, fields::X, nx);
      const auto [lo, hi] = nonzero_span(row, nx);
      for (int n = lo; n < hi && !(geom.cell_center(i0 + n, 0) >= x_behind); ++n) {
        const Real a = std::abs(row[n]);
        if (a > best) { best = a; }
      }
    });
  }
  return best;
}

// --- field energy ----------------------------------------------------------

template <int DIM>
FieldEnergyBreakdown field_energy_breakdown(const fields::FieldSet<DIM>& f) {
  using namespace mrpic::constants;
  FieldEnergyBreakdown b;
  Real dv = 1;
  for (int d = 0; d < DIM; ++d) { dv *= f.geom().cell_size(d); }
  for (int comp = 0; comp < 3; ++comp) {
    b.E_J[comp] = Real(0.5) * eps0 * f.E().sum_sq(comp) * dv;
    b.B_J[comp] = Real(0.5) / mu0 * f.B().sum_sq(comp) * dv;
  }
  return b;
}

// --- instantiations --------------------------------------------------------

template class BeamMomentsAccumulator<2>;
template class BeamMomentsAccumulator<3>;
template SpectrumSummary summarize_spectrum<2>(
    const std::vector<const particles::ParticleContainer<2>*>&, Real, Real, int, Real);
template SpectrumSummary summarize_spectrum<3>(
    const std::vector<const particles::ParticleContainer<3>*>&, Real, Real, int, Real);
template LaserSample laser_probe<2>(const fields::FieldSet<2>&, Real, int);
template LaserSample laser_probe<3>(const fields::FieldSet<3>&, Real, int);
template Real wakefield_amplitude<2>(const fields::FieldSet<2>&, Real);
template Real wakefield_amplitude<3>(const fields::FieldSet<3>&, Real);
template FieldEnergyBreakdown field_energy_breakdown<2>(const fields::FieldSet<2>&);
template FieldEnergyBreakdown field_energy_breakdown<3>(const fields::FieldSet<3>&);

} // namespace mrpic::insitu
