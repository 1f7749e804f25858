// insitu reductions: beam moments / normalized emittance against the
// closed form of a sampled Gaussian beam, and the spectrum summary against
// a synthetic two-population distribution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "src/insitu/reductions.hpp"

using namespace mrpic;
using mrpic::constants::c;
using mrpic::constants::m_e;
using mrpic::constants::q_e;

namespace {

particles::ParticleContainer<2> empty_container() {
  const mrpic::BoxArray<2> ba(Box2(IntVect2(0, 0), IntVect2(7, 7)));
  return particles::ParticleContainer<2>(particles::Species::electron(), ba);
}

// Portable deterministic standard normal: Box-Muller over raw mt19937
// draws (std::normal_distribution's stream is implementation-defined).
class NormalGen {
public:
  explicit NormalGen(std::uint32_t seed) : m_rng(seed) {}
  double operator()() {
    if (m_have_spare) {
      m_have_spare = false;
      return m_spare;
    }
    const double u1 = (m_rng() + 0.5) / 4294967296.0;
    const double u2 = (m_rng() + 0.5) / 4294967296.0;
    const double r = std::sqrt(-2.0 * std::log(u1));
    m_spare = r * std::sin(2.0 * constants::pi * u2);
    m_have_spare = true;
    return r * std::cos(2.0 * constants::pi * u2);
  }

private:
  std::mt19937 m_rng;
  bool m_have_spare = false;
  double m_spare = 0;
};

// Kinetic energy E -> proper velocity magnitude u = c sqrt(gamma^2 - 1).
double u_of_energy(double e_J) {
  const double gamma = 1.0 + e_J / (m_e * c * c);
  return c * std::sqrt(gamma * gamma - 1.0);
}

// n Gaussian draws normalized to exactly zero mean and unit RMS, so the
// sampled population hits the closed-form moments to round-off and the only
// statistical residue left is the (tiny) sampled cross-correlation.
std::vector<double> unit_gaussian_draws(int n, std::uint32_t seed) {
  NormalGen gauss(seed);
  std::vector<double> v(n);
  double mean = 0;
  for (auto& x : v) {
    x = gauss();
    mean += x;
  }
  mean /= n;
  double var = 0;
  for (auto& x : v) {
    x -= mean;
    var += x * x;
  }
  const double scale = 1.0 / std::sqrt(var / n);
  for (auto& x : v) { x *= scale; }
  return v;
}

} // namespace

TEST(InsituReductions, GaussianBeamMatchesClosedForm) {
  // Uncorrelated transverse Gaussian beam riding a longitudinal drift:
  //   y ~ N(y0, sig_y), u_y ~ N(0, sig_u), u_x = u0.
  // Closed form: eps_ny = sig_y * sig_u / c, rms_y = sig_y, rms_uy = sig_u.
  const int n = 200'000;
  const double y0 = 1e-5;
  const double sig_y = 2e-6;   // [m]
  const double sig_u = 3e7;    // [m/s]
  const double u0 = 5e9;       // drift, gamma ~ 16.7
  const double w = 1e6;

  auto pc = empty_container();
  auto& t = pc.tile(0);
  t.reserve(n);
  const auto dy = unit_gaussian_draws(n, 12345);
  const auto du = unit_gaussian_draws(n, 67890);
  for (int i = 0; i < n; ++i) {
    const double y = y0 + sig_y * dy[i];
    const double uy = sig_u * du[i];
    t.push_back({0.0, Real(y)}, {Real(u0), Real(uy), 0.0}, Real(w));
  }

  insitu::BeamMomentsAccumulator<2> acc;
  acc.add(pc);
  const auto m = acc.finalize();

  EXPECT_EQ(m.count, n);
  EXPECT_NEAR(m.weight, double(n) * w, 1e-6 * double(n) * w);
  EXPECT_NEAR(m.charge_C, -q_e * n * w, 1e-6 * q_e * n * w);

  EXPECT_NEAR(m.mean_x[1], y0, 1e-3 * y0);
  EXPECT_NEAR(m.rms_x[1], sig_y, 1e-3 * sig_y);
  EXPECT_NEAR(m.rms_u[1], sig_u, 1e-3 * sig_u);
  EXPECT_NEAR(m.mean_u[0], u0, 1e-6 * u0);

  const double eps_closed = sig_y * sig_u / c;
  EXPECT_NEAR(m.emit_ny, eps_closed, 1e-3 * eps_closed);
  // No x[2] coordinate in 2D: the z-plane emittance cannot be formed.
  EXPECT_TRUE(std::isnan(m.emit_nz));

  const double gamma0 = std::sqrt(1.0 + (u0 / c) * (u0 / c));
  EXPECT_NEAR(m.mean_gamma, gamma0, 1e-4 * gamma0);
  EXPECT_GE(m.max_gamma, gamma0);
}

TEST(InsituReductions, EnergyCutSelectsBeam) {
  // A cold bulk at rest plus a hot tail; the e_min cut must count only the
  // tail (and the uncut accumulator everything).
  auto pc = empty_container();
  auto& t = pc.tile(0);
  const double u_hot = u_of_energy(10e6 * q_e); // 10 MeV
  for (int i = 0; i < 100; ++i) { t.push_back({0.0, 0.0}, {0.0, 0.0, 0.0}, 1.0); }
  for (int i = 0; i < 25; ++i) {
    t.push_back({0.0, 0.0}, {Real(u_hot), 0.0, 0.0}, 2.0);
  }

  insitu::BeamMomentsAccumulator<2> all;
  all.add(pc);
  EXPECT_EQ(all.finalize().count, 125);

  insitu::BeamMomentsAccumulator<2> cut(1e6 * q_e); // 1 MeV threshold
  cut.add(pc);
  const auto m = cut.finalize();
  EXPECT_EQ(m.count, 25);
  EXPECT_NEAR(m.weight, 50.0, 1e-12);
  EXPECT_NEAR(m.mean_energy_J, 10e6 * q_e, 1e-6 * 10e6 * q_e);
}

TEST(InsituReductions, EnergyCutAtTheThresholdMatchesExactEnergies) {
  // Energies packed around the cut (relative offsets down to 1e-15) and at
  // the sqrt-free bound itself: the beam moments and the spectrum must keep
  // exactly the particles whose exact kinetic energy passes the cut.
  EXPECT_GT(diag::u2_below_energy(2e6 * q_e, m_e), 0.0);
  for (const double e_min : {2e6 * q_e, 1e-9 * q_e, 1e3 * q_e}) {
    auto pc = empty_container();
    auto& t = pc.tile(0);
    const double u2_bound = diag::u2_below_energy(e_min, m_e);
    std::vector<double> u2s = {0.0, u2_bound, std::nextafter(u2_bound, 0.0),
                               std::nextafter(u2_bound, 1e300)};
    for (const double rel : {1e-15, 1e-12, 1e-9, 1e-6}) {
      for (const double e : {e_min * (1 - rel), e_min, e_min * (1 + rel)}) {
        const double u = u_of_energy(e);
        u2s.push_back(u * u);
      }
    }
    std::int64_t want = 0;
    for (const double u2 : u2s) {
      t.push_back({0.0, 0.0}, {Real(std::sqrt(u2)), 0.0, 0.0}, 1.0);
      const double ux = t.u[0].back();
      if (diag::kinetic_energy(ux * ux, m_e) >= e_min) { ++want; }
    }
    insitu::BeamMomentsAccumulator<2> cut(e_min);
    cut.add(pc);
    EXPECT_EQ(cut.finalize().count, want) << e_min;
    const auto spec = diag::energy_spectrum<2>(pc, Real(e_min), Real(2 * e_min), 4);
    Real counted = 0;
    for (const Real w : spec.counts) { counted += w; }
    EXPECT_EQ(counted, Real(want)) << e_min;
  }
}

// The per-cell loops the row-walked probes replaced, kept as the reference
// they must match bit for bit.
namespace ref {

insitu::LaserSample laser_probe(const fields::FieldSet<2>& f, Real wavelength, int comp) {
  insitu::LaserSample out;
  const auto& E = f.E();
  double max_abs = 0, sum_i = 0, sum_ix = 0;
  for (int fi = 0; fi < E.num_fabs(); ++fi) {
    const auto& fab = E.fab(fi);
    fab.for_each_cell(E.valid_box(fi), [&](const IntVect2& p) {
      const double v = fab(p, comp);
      const double a = std::abs(v);
      if (a > max_abs) { max_abs = a; }
      const double x = f.geom().cell_center(p[0], 0);
      sum_i += v * v;
      sum_ix += v * v * x;
    });
  }
  out.peak_E_V_m = max_abs;
  const double omega = 2 * constants::pi * c / wavelength;
  out.a0 = q_e * max_abs / (m_e * omega * c);
  if (sum_i > 0) { out.centroid_x_m = sum_ix / sum_i; }
  return out;
}

Real wakefield_amplitude(const fields::FieldSet<2>& f, Real x_behind) {
  const auto& E = f.E();
  Real best = 0;
  for (int fi = 0; fi < E.num_fabs(); ++fi) {
    const auto& fab = E.fab(fi);
    fab.for_each_cell(E.valid_box(fi), [&](const IntVect2& p) {
      if (f.geom().cell_center(p[0], 0) >= x_behind) { return; }
      const Real a = std::abs(fab(p, fields::X));
      if (a > best) { best = a; }
    });
  }
  return best;
}

} // namespace ref

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(InsituReductions, FieldProbesMatchEveryCellLoops) {
  // Fields +-0 at both ends of most rows, in whole rows, and scattered
  // inside, with the pulse straddling two boxes; origin below zero so the
  // intensity-weighted x sum changes sign.
  const Geometry<2> geom(Box2(IntVect2(0, 0), IntVect2(63, 15)), RealVect2(-2e-6, 0),
                         RealVect2(4.4e-6, 1.6e-6), {false, false});
  fields::FieldSet<2> f(geom, BoxArray<2>::decompose(geom.domain(), 32));
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<Real> val(-1e12, 1e12);
  for (int m = 0; m < f.E().num_fabs(); ++m) {
    auto& fab = f.E().fab(m);
    fab.for_each_cell(f.E().grown_box(m), [&](const IntVect2& p) {
      for (int cc = 0; cc < 3; ++cc) {
        const bool zero = p[0] < 20 || p[0] > 45 || p[1] % 5 == 0 || rng() % 4 == 0;
        fab(p, cc) = zero ? (rng() % 2 ? 0.0 : -0.0) : val(rng);
      }
    });
  }
  for (const int comp : {0, 1, 2}) {
    const auto got = insitu::laser_probe<2>(f, 0.8e-6, comp);
    const auto want = ref::laser_probe(f, 0.8e-6, comp);
    EXPECT_TRUE(same_bits(got.peak_E_V_m, want.peak_E_V_m)) << comp;
    EXPECT_TRUE(same_bits(got.a0, want.a0)) << comp;
    EXPECT_TRUE(same_bits(got.centroid_x_m, want.centroid_x_m)) << comp;
  }
  for (const Real xb : {Real(-1e-5), Real(0), Real(1.234e-6), geom.cell_center(33, 0),
                        std::numeric_limits<Real>::infinity(),
                        std::numeric_limits<Real>::quiet_NaN()}) {
    EXPECT_TRUE(
        same_bits(insitu::wakefield_amplitude<2>(f, xb), ref::wakefield_amplitude(f, xb)))
        << xb;
  }
}

TEST(InsituReductions, ThreeDZPlaneEmittance) {
  // In 3D the z plane pairs x[2] with u[2]; an uncorrelated Gaussian in
  // that plane must reproduce the closed form just like the y plane.
  const mrpic::BoxArray<3> ba(Box3(IntVect3(0, 0, 0), IntVect3(7, 7, 7)));
  particles::ParticleContainer<3> pc(particles::Species::electron(), ba);
  auto& t = pc.tile(0);
  const int n = 100'000;
  const double sig_z = 1.5e-6, sig_u = 2e7;
  const auto dz = unit_gaussian_draws(n, 999);
  const auto du = unit_gaussian_draws(n, 555);
  for (int i = 0; i < n; ++i) {
    t.push_back({0.0, 0.0, Real(sig_z * dz[i])}, {1e9, 0.0, Real(sig_u * du[i])}, 1.0);
  }
  insitu::BeamMomentsAccumulator<3> acc;
  acc.add(pc);
  const auto m = acc.finalize();
  const double eps_closed = sig_z * sig_u / c;
  EXPECT_NEAR(m.emit_nz, eps_closed, 1e-3 * eps_closed);
}

TEST(InsituReductions, TwoPopulationSpectrumPeakAndFwhm) {
  // 300 weight-units at 10 MeV, 100 at 30 MeV, 1-MeV bins over 0..40 MeV:
  // the peak sits in the 10-MeV bin (center 10.5 MeV) and the half-max walk
  // crosses one empty bin on each side -> FWHM = 2 bins.
  const double mev = 1e6 * q_e;
  auto pc = empty_container();
  auto& t = pc.tile(0);
  const double u10 = u_of_energy(10.5 * mev);
  const double u30 = u_of_energy(30.5 * mev);
  for (int i = 0; i < 100; ++i) { t.push_back({0.0, 0.0}, {Real(u10), 0.0, 0.0}, 3.0); }
  for (int i = 0; i < 100; ++i) { t.push_back({0.0, 0.0}, {Real(u30), 0.0, 0.0}, 1.0); }

  const std::vector<const particles::ParticleContainer<2>*> pcs{&pc};
  const auto sum = insitu::summarize_spectrum<2>(pcs, 0, Real(40.0 * mev), 40, q_e);

  EXPECT_NEAR(sum.beam.peak_energy, 10.5 * mev, 1e-9 * mev);
  const double fwhm = 2.0 * mev;
  EXPECT_NEAR(sum.beam.energy_spread, fwhm / (10.5 * mev), 1e-12);
  EXPECT_NEAR(sum.beam.charge, 400.0 * q_e, 1e-9 * q_e);
  EXPECT_NEAR(sum.weight_total, 400.0, 1e-12);

  // The 30-MeV population fills its own bin.
  EXPECT_NEAR(sum.spectrum.counts[30], 100.0, 1e-12);
}

TEST(InsituReductions, SpectrumMergesLevelsLikeOneContainer) {
  // Splitting the same particles across two containers (level 0 + MR patch)
  // must give identical numbers to a single container.
  const double mev = 1e6 * q_e;
  const double u10 = u_of_energy(10.5 * mev);
  const double u20 = u_of_energy(20.5 * mev);

  auto whole = empty_container();
  auto part_a = empty_container();
  auto part_b = empty_container();
  for (int i = 0; i < 40; ++i) {
    whole.tile(0).push_back({0.0, 0.0}, {Real(u10), 0.0, 0.0}, 1.0);
    part_a.tile(0).push_back({0.0, 0.0}, {Real(u10), 0.0, 0.0}, 1.0);
  }
  for (int i = 0; i < 10; ++i) {
    whole.tile(0).push_back({0.0, 0.0}, {Real(u20), 0.0, 0.0}, 1.0);
    part_b.tile(0).push_back({0.0, 0.0}, {Real(u20), 0.0, 0.0}, 1.0);
  }

  const std::vector<const particles::ParticleContainer<2>*> one{&whole};
  const std::vector<const particles::ParticleContainer<2>*> two{&part_a, &part_b};
  const auto s1 = insitu::summarize_spectrum<2>(one, 0, Real(30.0 * mev), 30, q_e);
  const auto s2 = insitu::summarize_spectrum<2>(two, 0, Real(30.0 * mev), 30, q_e);

  EXPECT_EQ(s1.beam.peak_energy, s2.beam.peak_energy);
  EXPECT_EQ(s1.beam.charge, s2.beam.charge);
  EXPECT_EQ(s1.weight_total, s2.weight_total);
  ASSERT_EQ(s1.spectrum.counts.size(), s2.spectrum.counts.size());
  for (std::size_t b = 0; b < s1.spectrum.counts.size(); ++b) {
    EXPECT_EQ(s1.spectrum.counts[b], s2.spectrum.counts[b]) << "bin " << b;
  }
}
