#include "src/particles/pusher.hpp"

#include <cmath>

#include "src/amr/parallel_for.hpp"

namespace mrpic::particles {

using mrpic::constants::c;

namespace {

// Boris rotation of u = (ux, uy, uz) in place by the fields (E, B), with
// qmdt2 = q dt / (2 m).
inline void boris_kick(Real qmdt2, Real& ux, Real& uy, Real& uz, Real Ex, Real Ey, Real Ez,
                       Real Bx, Real By, Real Bz) {
  // Half electric acceleration.
  ux += qmdt2 * Ex;
  uy += qmdt2 * Ey;
  uz += qmdt2 * Ez;
  // Magnetic rotation at the mid-step gamma.
  const Real gm = std::sqrt(1 + (ux * ux + uy * uy + uz * uz) / (c * c));
  const Real tx = qmdt2 * Bx / gm;
  const Real ty = qmdt2 * By / gm;
  const Real tz = qmdt2 * Bz / gm;
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
  // Second half electric acceleration.
  ux += qmdt2 * Ex;
  uy += qmdt2 * Ey;
  uz += qmdt2 * Ez;
}

// Vay (2008) pusher: volume-preserving alternative that avoids the spurious
// force of Boris for relativistic E x B drift. Provided as an option
// (WarpX offers several pushers); Boris is the production default.
inline void vay_kick(Real qmdt2, Real& ux, Real& uy, Real& uz, Real Ex, Real Ey, Real Ez,
                     Real Bx, Real By, Real Bz) {
  const Real invc2 = Real(1) / (c * c);
  // u' = u^n + q dt/m (E + v^n x B / 2)
  const Real g0 = std::sqrt(1 + (ux * ux + uy * uy + uz * uz) * invc2);
  const Real vx = ux / g0, vy = uy / g0, vz = uz / g0;
  const Real upx = ux + 2 * qmdt2 * Ex + qmdt2 * (vy * Bz - vz * By);
  const Real upy = uy + 2 * qmdt2 * Ey + qmdt2 * (vz * Bx - vx * Bz);
  const Real upz = uz + 2 * qmdt2 * Ez + qmdt2 * (vx * By - vy * Bx);
  const Real taux = qmdt2 * Bx, tauy = qmdt2 * By, tauz = qmdt2 * Bz;
  const Real tau2 = taux * taux + tauy * tauy + tauz * tauz;
  const Real ust = (upx * taux + upy * tauy + upz * tauz) * invc2 * c; // u*.tau/c
  const Real gp2 = 1 + (upx * upx + upy * upy + upz * upz) * invc2;
  const Real sig = gp2 - tau2;
  const Real gnew = std::sqrt((sig + std::sqrt(sig * sig + 4 * (tau2 + ust * ust))) / 2);
  const Real tx = taux / gnew, ty = tauy / gnew, tz = tauz / gnew;
  const Real s = Real(1) / (1 + tx * tx + ty * ty + tz * tz);
  const Real ut = upx * tx + upy * ty + upz * tz;
  ux = s * (upx + ut * tx + upy * tz - upz * ty);
  uy = s * (upy + ut * ty + upz * tx - upx * tz);
  uz = s * (upz + ut * tz + upx * ty - upy * tx);
}

template <PusherKind KIND, int DIM>
void push_impl(ParticleTile<DIM>& tile, const GatheredFields& f, Real qmdt2, Real dt) {
  const std::size_t np = tile.size();
  mrpic::parallel_for(static_cast<std::int64_t>(np), [&](std::int64_t p) {
    Real u[3] = {tile.u[0][p], tile.u[1][p], tile.u[2][p]};
    if constexpr (KIND == PusherKind::Vay) {
      vay_kick(qmdt2, u[0], u[1], u[2], f.E[0][p], f.E[1][p], f.E[2][p], f.B[0][p],
               f.B[1][p], f.B[2][p]);
    } else {
      boris_kick(qmdt2, u[0], u[1], u[2], f.E[0][p], f.E[1][p], f.E[2][p], f.B[0][p],
                 f.B[1][p], f.B[2][p]);
    }
    for (int cc = 0; cc < 3; ++cc) { tile.u[cc][p] = u[cc]; }
    const Real gamma = std::sqrt(1 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / (c * c));
    const Real invg = 1 / gamma;
    for (int d = 0; d < DIM; ++d) { tile.x[d][p] += u[d] * invg * dt; }
  });
}

} // namespace

void boris_rotate(std::array<Real, 3>& u, const std::array<Real, 3>& E,
                  const std::array<Real, 3>& B, Real charge, Real mass, Real dt) {
  boris_kick(charge * dt / (2 * mass), u[0], u[1], u[2], E[0], E[1], E[2], B[0], B[1], B[2]);
}

template <int DIM>
void push_particles(PusherKind kind, ParticleTile<DIM>& tile, const GatheredFields& f,
                    Real charge, Real mass, Real dt) {
  const Real qmdt2 = charge * dt / (2 * mass);
  if (kind == PusherKind::Vay) {
    push_impl<PusherKind::Vay>(tile, f, qmdt2, dt);
  } else {
    push_impl<PusherKind::Boris>(tile, f, qmdt2, dt);
  }
}

std::int64_t push_flops_per_particle() {
  // Boris: 2 half-kicks (12), gamma (9 + sqrt~4), t,s (12), two cross
  // products (18), position update (~8).
  return 63;
}

template void push_particles<2>(PusherKind, ParticleTile<2>&, const GatheredFields&, Real,
                                Real, Real);
template void push_particles<3>(PusherKind, ParticleTile<3>&, const GatheredFields&, Real,
                                Real, Real);

} // namespace mrpic::particles
