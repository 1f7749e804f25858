#include "src/fields/psatd.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/fields/yee.hpp"

namespace mrpic::fields {

using mrpic::constants::c;
using mrpic::constants::eps0;

namespace {

// Complex products in real arithmetic (see butterfly in fft.cpp).
inline Complex cmul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}
inline Complex cmul_conj(Complex a, Complex b) { // a * conj(b)
  return {a.real() * b.real() + a.imag() * b.imag(), a.imag() * b.real() - a.real() * b.imag()};
}
inline Complex times_i(Complex a) { return {-a.imag(), a.real()}; }

// exp(-i k.s dx/2) of each component of a field staggered as `stag`
// (e_stag3 or b_stag3), from the per-axis factors p[d] = exp(-i k_d dx_d/2).
inline void stagger_factors(const std::array<std::array<int, 3>, 3>& stag, const Complex p[3],
                            Complex out[3]) {
  for (int comp = 0; comp < 3; ++comp) {
    Complex s(1, 0);
    for (int d = 0; d < 3; ++d) {
      if (stag[comp][d] != 0) { s = cmul(s, p[d]); }
    }
    out[comp] = s;
  }
}

template <int DIM>
std::array<int, 3> checked_extents(const mrpic::Geometry<DIM>& geom) {
  std::array<int, 3> n{1, 1, 1};
  for (int d = 0; d < DIM; ++d) {
    n[d] = geom.domain().length(d);
    if (!geom.is_periodic(d)) {
      throw std::invalid_argument("PSATD requires a fully periodic domain; axis " +
                                  std::to_string(d) + " is not periodic");
    }
    if (!is_power_of_two(n[d])) {
      throw std::invalid_argument("PSATD extents must be powers of two; axis " +
                                  std::to_string(d) + " has " + std::to_string(n[d]));
    }
  }
  return n;
}

// Address of component comp at the low corner of box b.
template <int DIM, class T>
T* low_corner(const mrpic::Array4<T>& a, const mrpic::Box<DIM>& b, int comp) {
  if constexpr (DIM == 3) {
    return &a(b.lo(0), b.lo(1), b.lo(2), comp);
  } else {
    return &a(b.lo(0), b.lo(1), 0, comp);
  }
}

} // namespace

template <int DIM>
PsatdSolver<DIM>::PsatdSolver(const mrpic::Geometry<DIM>& geom)
    : m_geom(geom), m_n(checked_extents(geom)), m_plan(m_n[0], m_n[1], m_n[2]) {
  const auto dx = geom.dx();
  for (int d = 0; d < 3; ++d) {
    if (m_n[d] > 1) { m_nyquist[d] = m_n[d] / 2; }
    m_phase[d].assign(d == 0 ? m_plan.half_nx() : m_n[d], Complex(1, 0));
    if (d >= DIM) { continue; }
    for (int m = 0; m < static_cast<int>(m_phase[d].size()); ++m) {
      const Real ph = fft_wavenumber(m, m_n[d], dx[d]) * dx[d] / 2;
      m_phase[d][m] = Complex(std::cos(ph), -std::sin(ph));
    }
  }
  for (int comp = 0; comp < 3; ++comp) {
    m_E[comp].resize(m_plan.num_half_modes());
    m_B[comp].resize(m_plan.num_half_modes());
    m_J[comp].resize(m_plan.num_half_modes());
  }
}

template <int DIM>
void PsatdSolver<DIM>::build_modes(Real dt) {
  const auto dx = m_geom.dx();
  auto wavenumber = [&](int d, int m) {
    return d < DIM ? fft_wavenumber(m, m_n[d], dx[d]) : Real(0);
  };
  m_modes.resize(m_plan.num_half_modes());
  std::int64_t idx = 0;
  for (int mz = 0; mz < m_n[2]; ++mz) {
    for (int my = 0; my < m_n[1]; ++my) {
      for (int mx = 0; mx < m_plan.half_nx(); ++mx) {
        const Real kv[3] = {wavenumber(0, mx), wavenumber(1, my), wavenumber(2, mz)};
        const Real k = std::sqrt(kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2]);
        Mode& m = m_modes[idx++];
        if (k == 0) {
          // Mean mode: dE/dt = -J/eps0, B static.
          m = Mode{{0, 0, 0}, 1, 0, 0, dt / eps0, 0};
          continue;
        }
        const Real C = std::cos(c * k * dt);
        const Real S = std::sin(c * k * dt);
        m = Mode{{kv[0] / k, kv[1] / k, kv[2] / k},
                 C,
                 c * S,
                 S / c,
                 S / (eps0 * c * k),
                 (1 - C) / (eps0 * c * c * k)};
      }
    }
  }
  m_dt = dt;
}

template <int DIM>
void PsatdSolver<DIM>::forward(const mrpic::MultiFab<DIM>& src, Spectra& dst) const {
  const auto a = src.const_array(0);
  for (int comp = 0; comp < 3; ++comp) {
    m_plan.forward_real(low_corner<DIM>(a, m_geom.domain(), comp), a.jstride, a.kstride,
                        dst[comp].data());
  }
}

template <int DIM>
void PsatdSolver<DIM>::inverse(Spectra& src, mrpic::MultiFab<DIM>& dst) const {
  const auto a = dst.array(0);
  for (int comp = 0; comp < 3; ++comp) {
    m_plan.inverse_real(src[comp].data(), low_corner<DIM>(a, m_geom.domain(), comp),
                        a.jstride, a.kstride);
  }
}

template <int DIM>
void PsatdSolver<DIM>::advance(FieldSet<DIM>& f, Real dt) {
  if (f.box_array().size() != 1 || f.box_array()[0] != m_geom.domain()) {
    throw std::invalid_argument("PSATD requires a single-box level covering the domain; got " +
                                std::to_string(f.box_array().size()) + " boxes");
  }
  if (m_modes.empty() || dt != m_dt) { build_modes(dt); }
  forward(f.E(), m_E);
  forward(f.B(), m_B);
  forward(f.J(), m_J);

  // One alias of a mode: shift the staggered samples' coefficients to nodal
  // ones (p[d] = exp(-i k_d dx_d/2)), advance them exactly, shift back.
  const Real dt_eps0 = dt / eps0;
  const auto step_alias = [dt_eps0](const Mode& m, const Real kh[3], const Complex p[3],
                                    const Complex Ein[3], const Complex Bin[3],
                                    const Complex Jin[3], Complex Eout[3], Complex Bout[3]) {
    Complex sE[3], sB[3];
    stagger_factors(e_stag3, p, sE); // J is staggered like E
    stagger_factors(b_stag3, p, sB);
    Complex E[3], B[3], J[3];
    for (int cc = 0; cc < 3; ++cc) {
      E[cc] = cmul(Ein[cc], sE[cc]);
      B[cc] = cmul(Bin[cc], sB[cc]);
      J[cc] = cmul(Jin[cc], sE[cc]);
    }
    // Longitudinal parts; khat x E_T = khat x E and likewise for J.
    const Complex EL = kh[0] * E[0] + kh[1] * E[1] + kh[2] * E[2];
    const Complex JL = kh[0] * J[0] + kh[1] * J[1] + kh[2] * J[2];
    auto cross = [&](const Complex v[3], int cc) {
      const int a = (cc + 1) % 3, b = (cc + 2) % 3;
      return kh[a] * v[b] - kh[b] * v[a];
    };
    for (int cc = 0; cc < 3; ++cc) {
      // Homogeneous rotation + particular (constant-J) solution.
      const Complex ET = E[cc] - EL * kh[cc];
      const Complex JT = J[cc] - JL * kh[cc];
      const Complex Enew = m.C * ET + times_i(m.cS * cross(B, cc)) // transverse
                           - m.drive_E * JT                        // J drive
                           + (EL - dt_eps0 * JL) * kh[cc];         // longitudinal
      const Complex Bnew = m.C * B[cc] - times_i(m.S_c * cross(E, cc)) // rotation
                           + times_i(m.drive_B * cross(J, cc));
      Eout[cc] = cmul_conj(Enew, sE[cc]);
      Bout[cc] = cmul_conj(Bnew, sB[cc]);
    }
  };

  const int nxh = m_plan.half_nx();
  std::int64_t idx = 0;
  for (int mz = 0; mz < m_n[2]; ++mz) {
    for (int my = 0; my < m_n[1]; ++my) {
      const bool nyquist_row = my == m_nyquist[1] || mz == m_nyquist[2];
      for (int mx = 0; mx < nxh; ++mx, ++idx) {
        const Mode& m = m_modes[idx];
        const Complex p[3] = {m_phase[0][mx], m_phase[1][my], m_phase[2][mz]};
        const Complex Ein[3] = {m_E[0][idx], m_E[1][idx], m_E[2][idx]};
        const Complex Bin[3] = {m_B[0][idx], m_B[1][idx], m_B[2][idx]};
        const Complex Jin[3] = {m_J[0][idx], m_J[1][idx], m_J[2][idx]};
        Complex Eout[3], Bout[3];
        step_alias(m, m.kh, p, Ein, Bin, Jin, Eout, Bout);
        if (nyquist_row || mx == m_nyquist[0]) {
          // Average with the alias whose Nyquist components of k are negated.
          const bool nyq[3] = {mx == m_nyquist[0], my == m_nyquist[1], mz == m_nyquist[2]};
          Real kh[3];
          Complex pm[3], E2[3], B2[3];
          for (int d = 0; d < 3; ++d) {
            kh[d] = nyq[d] ? -m.kh[d] : m.kh[d];
            pm[d] = nyq[d] ? std::conj(p[d]) : p[d];
          }
          step_alias(m, kh, pm, Ein, Bin, Jin, E2, B2);
          for (int cc = 0; cc < 3; ++cc) {
            Eout[cc] = Real(0.5) * (Eout[cc] + E2[cc]);
            Bout[cc] = Real(0.5) * (Bout[cc] + B2[cc]);
          }
        }
        for (int cc = 0; cc < 3; ++cc) {
          m_E[cc][idx] = Eout[cc];
          m_B[cc][idx] = Bout[cc];
        }
      }
    }
  }

  inverse(m_E, f.E());
  inverse(m_B, f.B());
}

template class PsatdSolver<2>;
template class PsatdSolver<3>;

} // namespace mrpic::fields
