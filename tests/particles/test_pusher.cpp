#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "src/amr/parallel_for.hpp"
#include "src/particles/pusher.hpp"

namespace mrpic::particles {
namespace {

using namespace mrpic::constants;

// The out-of-line rotations and push loop the inlined push replaced, kept
// as the reference it must match bit for bit.
namespace ref {

void boris_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                  const std::array<Real, 3>& B, Real charge, Real mass, Real dt) {
  const Real qmdt2 = charge * dt / (2 * mass);
  Real ux = u[0] + qmdt2 * E[0];
  Real uy = u[1] + qmdt2 * E[1];
  Real uz = u[2] + qmdt2 * E[2];
  const Real gm = std::sqrt(1 + (ux * ux + uy * uy + uz * uz) / (c * c));
  const Real tx = qmdt2 * B[0] / gm;
  const Real ty = qmdt2 * B[1] / gm;
  const Real tz = qmdt2 * B[2] / gm;
  const Real t2 = tx * tx + ty * ty + tz * tz;
  const Real sx = 2 * tx / (1 + t2);
  const Real sy = 2 * ty / (1 + t2);
  const Real sz = 2 * tz / (1 + t2);
  const Real upx = ux + uy * tz - uz * ty;
  const Real upy = uy + uz * tx - ux * tz;
  const Real upz = uz + ux * ty - uy * tx;
  ux += upy * sz - upz * sy;
  uy += upz * sx - upx * sz;
  uz += upx * sy - upy * sx;
  u[0] = ux + qmdt2 * E[0];
  u[1] = uy + qmdt2 * E[1];
  u[2] = uz + qmdt2 * E[2];
}

void vay_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                const std::array<Real, 3>& B, Real charge, Real mass, Real dt) {
  const Real qmdt2 = charge * dt / (2 * mass);
  const Real invc2 = Real(1) / (c * c);
  const Real g0 = std::sqrt(1 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) * invc2);
  const Real vx = u[0] / g0, vy = u[1] / g0, vz = u[2] / g0;
  const Real upx = u[0] + 2 * qmdt2 * E[0] + qmdt2 * (vy * B[2] - vz * B[1]);
  const Real upy = u[1] + 2 * qmdt2 * E[1] + qmdt2 * (vz * B[0] - vx * B[2]);
  const Real upz = u[2] + 2 * qmdt2 * E[2] + qmdt2 * (vx * B[1] - vy * B[0]);
  const Real taux = qmdt2 * B[0], tauy = qmdt2 * B[1], tauz = qmdt2 * B[2];
  const Real tau2 = taux * taux + tauy * tauy + tauz * tauz;
  const Real ust = (upx * taux + upy * tauy + upz * tauz) * invc2 * c;
  const Real gp2 = 1 + (upx * upx + upy * upy + upz * upz) * invc2;
  const Real sig = gp2 - tau2;
  const Real gnew = std::sqrt((sig + std::sqrt(sig * sig + 4 * (tau2 + ust * ust))) / 2);
  const Real tx = taux / gnew, ty = tauy / gnew, tz = tauz / gnew;
  const Real s = Real(1) / (1 + tx * tx + ty * ty + tz * tz);
  const Real ut = upx * tx + upy * ty + upz * tz;
  u[0] = s * (upx + ut * tx + upy * tz - upz * ty);
  u[1] = s * (upy + ut * ty + upz * tx - upx * tz);
  u[2] = s * (upz + ut * tz + upx * ty - upy * tx);
}

template <int DIM>
void push_particles(PusherKind kind, ParticleTile<DIM>& tile, const GatheredFields& f,
                    Real charge, Real mass, Real dt) {
  const std::size_t np = tile.size();
  mrpic::parallel_for(static_cast<std::int64_t>(np), [&](std::int64_t p) {
    std::array<Real, 3> u = {tile.u[0][p], tile.u[1][p], tile.u[2][p]};
    const std::array<Real, 3> E = {f.E[0][p], f.E[1][p], f.E[2][p]};
    const std::array<Real, 3> B = {f.B[0][p], f.B[1][p], f.B[2][p]};
    if (kind == PusherKind::Vay) {
      vay_rotate(u, E, B, charge, mass, dt);
    } else {
      boris_rotate(u, E, B, charge, mass, dt);
    }
    for (int cc = 0; cc < 3; ++cc) { tile.u[cc][p] = u[cc]; }
    const Real gamma = std::sqrt(1 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (c * c));
    const Real invg = 1 / gamma;
    for (int d = 0; d < DIM; ++d) { tile.x[d][p] += u[d] * invg * dt; }
  });
}

} // namespace ref

// Particles from rest to gamma ~ 300, in fields from weak to laser-strength
// (|E| up to 1e13 V/m, |B| up to 3e4 T).
template <int DIM>
void random_push_case(std::uint64_t seed, ParticleTile<DIM>& tile, GatheredFields& f) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> sym(-1.0, 1.0);
  std::uniform_real_distribution<Real> decade(-3.0, 2.5);
  const int np = 300;
  for (int p = 0; p < np; ++p) {
    std::array<Real, DIM> x;
    for (int d = 0; d < DIM; ++d) { x[d] = 1e-6 * sym(rng); }
    const Real umag = c * std::pow(10.0, decade(rng));
    tile.push_back(x, {umag * sym(rng), umag * sym(rng), umag * sym(rng)}, 1.0);
  }
  f.resize(np);
  for (int p = 0; p < np; ++p) {
    const Real emag = std::pow(10.0, 13 + decade(rng));
    for (int cc = 0; cc < 3; ++cc) {
      f.E[cc][p] = emag * sym(rng);
      f.B[cc][p] = emag / c * sym(rng);
    }
  }
}

// Appends particles at rest (u = +0) and next to rest, in zero and nearly
// zero fields: every combination of one u component set to -0 (or none)
// with zero fields (+0 and -0), one field component set to a small value,
// and one set to a NaN, each at a position of +0, -0 and a random value.
template <int DIM>
void add_at_rest_push_case(std::uint64_t seed, ParticleTile<DIM>& tile, GatheredFields& f) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> sym(-1.0, 1.0);
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  std::vector<std::array<Real, 6>> fields;
  fields.push_back({0, 0, 0, 0, 0, 0});
  fields.push_back({-0.0, 0, -0.0, 0, -0.0, -0.0});
  for (int cc = 0; cc < 6; ++cc) {
    for (const Real v : {1e-3, nan}) {
      std::array<Real, 6> one = {0, 0, 0, 0, 0, 0};
      one[cc] = v;
      fields.push_back(one);
    }
  }
  for (const auto& fv : fields) {
    for (int neg = -1; neg < 3; ++neg) {
      std::array<Real, 3> u = {0, 0, 0};
      if (neg >= 0) { u[neg] = -0.0; }
      for (const Real x0 : {0.0, -0.0, 1e-6 * sym(rng)}) {
        std::array<Real, DIM> x;
        x.fill(x0);
        tile.push_back(x, u, 1.0);
        const std::size_t p = f.size();
        f.resize(p + 1);
        for (int cc = 0; cc < 3; ++cc) {
          f.E[cc][p] = fv[cc];
          f.B[cc][p] = fv[3 + cc];
        }
      }
    }
  }
}

// Entries whose bit patterns differ, so a +0/-0 flip counts and a NaN
// matches itself.
std::size_t bit_mismatches(const std::vector<Real>& a, const std::vector<Real>& b) {
  if (a.size() != b.size()) { return std::max(a.size(), b.size()); }
  std::size_t bad = 0;
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (std::memcmp(&a[n], &b[n], sizeof(Real)) != 0) { ++bad; }
  }
  return bad;
}

template <int DIM>
void check_push_matches_out_of_line(PusherKind kind, std::uint64_t seed, Real charge) {
  ParticleTile<DIM> got;
  GatheredFields f;
  random_push_case<DIM>(seed, got, f);
  add_at_rest_push_case<DIM>(seed, got, f);
  ParticleTile<DIM> want = got;
  const Real dt = 2e-17;
  for (int s = 0; s < 3; ++s) {
    push_particles<DIM>(kind, got, f, charge, m_e, dt);
    ref::push_particles<DIM>(kind, want, f, charge, m_e, dt);
  }
  for (int cc = 0; cc < 3; ++cc) {
    EXPECT_EQ(bit_mismatches(got.u[cc], want.u[cc]), 0u) << "u" << cc << " charge " << charge;
  }
  for (int d = 0; d < DIM; ++d) {
    EXPECT_EQ(bit_mismatches(got.x[d], want.x[d]), 0u) << "x" << d << " charge " << charge;
  }
}

TEST(PushParticles, InlinedMatchesOutOfLine) {
  for (const Real charge : {-q_e, q_e}) {
    check_push_matches_out_of_line<2>(PusherKind::Boris, 41, charge);
    check_push_matches_out_of_line<3>(PusherKind::Boris, 42, charge);
    check_push_matches_out_of_line<2>(PusherKind::Vay, 43, charge);
    check_push_matches_out_of_line<3>(PusherKind::Vay, 44, charge);
  }
}

TEST(Boris, RotateMatchesOutOfLine) {
  ParticleTile<3> tile;
  GatheredFields f;
  random_push_case<3>(45, tile, f);
  for (std::size_t p = 0; p < tile.size(); ++p) {
    std::array<Real, 3> got = {tile.u[0][p], tile.u[1][p], tile.u[2][p]};
    std::array<Real, 3> want = got;
    const std::array<Real, 3> E = {f.E[0][p], f.E[1][p], f.E[2][p]};
    const std::array<Real, 3> B = {f.B[0][p], f.B[1][p], f.B[2][p]};
    boris_rotate(got, E, B, -q_e, m_e, 2e-17);
    ref::boris_rotate(want, E, B, -q_e, m_e, 2e-17);
    EXPECT_TRUE(got == want) << "particle " << p;
  }
}

TEST(Boris, PureElectricAcceleration) {
  // du/dt = qE/m exactly for B = 0 (u is proper velocity).
  std::array<Real, 3> u = {0, 0, 0};
  const std::array<Real, 3> E = {1e6, 0, 0};
  const std::array<Real, 3> B = {0, 0, 0};
  const Real dt = 1e-15;
  boris_rotate(u, E, B, -q_e, m_e, dt);
  EXPECT_NEAR(u[0], -q_e / m_e * E[0] * dt, std::abs(u[0]) * 1e-12);
  EXPECT_EQ(u[1], 0.0);
  EXPECT_EQ(u[2], 0.0);
}

TEST(Boris, MagneticFieldPreservesEnergy) {
  // Pure magnetic rotation must not change |u| (to round-off), for any dt.
  std::array<Real, 3> u = {1e7, 2e7, -5e6};
  const Real u0 = std::sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
  const std::array<Real, 3> E = {0, 0, 0};
  const std::array<Real, 3> B = {0.3, -0.1, 1.0};
  for (int s = 0; s < 1000; ++s) { boris_rotate(u, E, B, -q_e, m_e, 1e-13); }
  const Real u1 = std::sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
  EXPECT_NEAR(u1 / u0, 1.0, 1e-12);
}

TEST(Boris, GyroFrequency) {
  // Non-relativistic electron in Bz: angular frequency omega_c = |q|B/m.
  const Real B0 = 0.01; // weak field, v << c
  std::array<Real, 3> u = {1e5, 0, 0};
  const std::array<Real, 3> E = {0, 0, 0};
  const std::array<Real, 3> B = {0, 0, B0};
  const Real omega_c = q_e * B0 / m_e;
  const Real period = 2 * pi / omega_c;
  const int nsteps = 2000;
  const Real dt = period / nsteps;
  for (int s = 0; s < nsteps; ++s) { boris_rotate(u, E, B, -q_e, m_e, dt); }
  // After one period the velocity must return to its initial direction.
  EXPECT_NEAR(u[0], 1e5, 1e5 * 1e-3);
  EXPECT_NEAR(u[1], 0.0, 1e5 * 5e-3);
}

TEST(Boris, RelativisticGamma) {
  // Constant E accelerates: u grows linearly in time, v saturates at c.
  std::array<Real, 3> u = {0, 0, 0};
  const std::array<Real, 3> E = {0, 0, 1e14}; // extreme field
  const std::array<Real, 3> B = {0, 0, 0};
  const Real dt = 1e-16;
  for (int s = 0; s < 1000; ++s) { boris_rotate(u, E, B, -q_e, m_e, dt); }
  const Real expected_u = q_e / m_e * 1e14 * 1000 * dt; // |q|E t / m
  EXPECT_NEAR(std::abs(u[2]), expected_u, expected_u * 1e-9);
  const Real gamma = std::sqrt(1 + u[2] * u[2] / (c * c));
  EXPECT_GT(gamma, 5.0); // strongly relativistic
  EXPECT_LT(std::abs(u[2]) / gamma, c); // v < c always
}

TEST(Boris, ExBDriftVelocity) {
  // Crossed fields: drift velocity v = E x B / B^2 (independent of charge).
  // E along x, B along z -> v_drift = -E0/B0 along y.
  const Real E0 = 1e4, B0 = 0.1; // |v_drift| = 1e5 m/s << c
  std::array<Real, 3> u = {0, -E0 / B0, 0}; // start at the drift velocity
  const std::array<Real, 3> E = {E0, 0, 0};
  const std::array<Real, 3> B = {0, 0, B0};
  // At exactly the drift velocity the Lorentz force vanishes: u stays put.
  for (int s = 0; s < 200; ++s) { boris_rotate(u, E, B, -q_e, m_e, 1e-12); }
  EXPECT_NEAR(u[1], -E0 / B0, E0 / B0 * 0.02);
  EXPECT_NEAR(u[0], 0.0, E0 / B0 * 0.02);
}

TEST(PushParticles, PositionUpdateUsesRelativisticVelocity) {
  ParticleTile<2> tile;
  const Real uz = 10 * c; // gamma ~ 10
  tile.push_back({0.0, 0.0}, {uz, 0, 0}, 1.0);
  GatheredFields f;
  f.resize(1);
  const Real dt = 1e-15;
  push_particles<2>(PusherKind::Boris, tile, f, -q_e, m_e, dt);
  const Real gamma = std::sqrt(1 + uz * uz / (c * c));
  EXPECT_NEAR(tile.x[0][0], uz / gamma * dt, 1e-25);
  EXPECT_LT(tile.x[0][0], c * dt); // never superluminal
}

TEST(PushParticles, VayMatchesBorisWeakField) {
  // In weak fields both pushers converge to the same trajectory.
  ParticleTile<2> t_boris, t_vay;
  t_boris.push_back({0.0, 0.0}, {1e6, 2e6, 0}, 1.0);
  t_vay.push_back({0.0, 0.0}, {1e6, 2e6, 0}, 1.0);
  GatheredFields f;
  f.resize(1);
  f.E[0][0] = 1e3;
  f.B[2][0] = 1e-4;
  for (int s = 0; s < 100; ++s) {
    push_particles<2>(PusherKind::Boris, t_boris, f, -q_e, m_e, 1e-14);
    push_particles<2>(PusherKind::Vay, t_vay, f, -q_e, m_e, 1e-14);
  }
  for (int cc = 0; cc < 3; ++cc) {
    EXPECT_NEAR(t_vay.u[cc][0], t_boris.u[cc][0],
                std::max(std::abs(t_boris.u[cc][0]) * 1e-5, 1.0));
  }
}

TEST(PushParticles, ManyParticlesIndependent) {
  ParticleTile<3> tile;
  for (int i = 0; i < 10; ++i) {
    tile.push_back({1e-6 * i, 0.0, 0.0}, {0, 0, 0}, 1.0);
  }
  GatheredFields f;
  f.resize(10);
  for (int i = 0; i < 10; ++i) { f.E[0][i] = 1e6 * i; }
  push_particles<3>(PusherKind::Boris, tile, f, -q_e, m_e, 1e-15);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(tile.u[0][i], -q_e / m_e * 1e6 * i * 1e-15,
                std::abs(tile.u[0][i]) * 1e-12 + 1e-20);
  }
}

} // namespace
} // namespace mrpic::particles
