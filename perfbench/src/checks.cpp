#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using namespace mrpic::constants;

namespace {

template <typename F>
void for_each_valid(const MF& mf, F&& f) {
  for (int m = 0; m < mf.num_fabs(); ++m) {
    const auto a = mf.const_array(m);
    const auto& vb = mf.valid_box(m);
    for (int j = vb.lo(1); j <= vb.hi(1); ++j) {
      for (int i = vb.lo(0); i <= vb.hi(0); ++i) { f(a, i, j); }
    }
  }
}

double sum_sq_valid(const MF& mf, int comp) {
  double s = 0;
  for_each_valid(mf, [&](const auto& a, int i, int j) {
    const double v = a(i, j, 0, comp);
    s += v * v;
  });
  return s;
}

// Cubic B-spline weights of a particle at grid coordinate xi on the nodes
// floor(xi)-1 .. floor(xi)+2; returns the first node.
int cubic_weights(double xi, double w[4]) {
  const double f = std::floor(xi);
  const double d = xi - f;
  const double e = 1 - d;
  w[0] = e * e * e / 6;
  w[1] = (4 - 6 * d * d + 3 * d * d * d) / 6;
  w[2] = (4 - 6 * e * e + 3 * e * e * e) / 6;
  w[3] = d * d * d / 6;
  return static_cast<int>(f) - 1;
}

int wrap(int i, int n) { return ((i % n) + n) % n; }

std::vector<double> deposit_rho(const Cloud& cl, const mrpic::Geometry<2>& geom) {
  const int nx = geom.domain().length(0);
  const int ny = geom.domain().length(1);
  const double dx = geom.cell_size(0);
  const double dy = geom.cell_size(1);
  std::vector<double> rho(static_cast<std::size_t>(nx) * ny, 0.0);
  for (std::size_t p = 0; p < cl.qw.size(); ++p) {
    double wx[4], wy[4];
    const int i0 = cubic_weights((cl.x[p] - geom.prob_lo()[0]) / dx, wx);
    const int j0 = cubic_weights((cl.y[p] - geom.prob_lo()[1]) / dy, wy);
    for (int b = 0; b < 4; ++b) {
      const std::size_t row = static_cast<std::size_t>(wrap(j0 + b, ny)) * nx;
      for (int a = 0; a < 4; ++a) { rho[row + wrap(i0 + a, nx)] += cl.qw[p] * wx[a] * wy[b]; }
    }
  }
  for (double& r : rho) { r /= dx * dy; }
  return rho;
}

std::int64_t nonfinite(const MF& mf) {
  std::int64_t n = 0;
  for (int m = 0; m < mf.num_fabs(); ++m) {
    const auto& fab = mf.fab(m);
    n += std::count_if(fab.data(), fab.data() + fab.size(),
                       [](double v) { return !std::isfinite(v); });
  }
  return n;
}

std::int64_t nonfinite(const std::vector<double>& v) {
  return std::count_if(v.begin(), v.end(), [](double x) { return !std::isfinite(x); });
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::int64_t differing(const MF& a, const MF& b) {
  if (a.num_fabs() != b.num_fabs()) { return 1; }
  std::int64_t n = 0;
  for (int m = 0; m < a.num_fabs(); ++m) {
    const auto& fa = a.fab(m);
    const auto& fb = b.fab(m);
    if (fa.size() != fb.size() ||
        std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) != 0) {
      ++n;
    }
  }
  return n;
}

std::int64_t differing(const PC& a, const PC& b) {
  if (a.num_tiles() != b.num_tiles()) { return 1; }
  std::int64_t n = 0;
  for (int t = 0; t < a.num_tiles(); ++t) {
    const auto& ta = a.tile(t);
    const auto& tb = b.tile(t);
    for (int d = 0; d < 2; ++d) { n += same_bits(ta.x[d], tb.x[d]) ? 0 : 1; }
    for (int c = 0; c < 3; ++c) { n += same_bits(ta.u[c], tb.u[c]) ? 0 : 1; }
    n += same_bits(ta.w, tb.w) ? 0 : 1;
  }
  return n;
}

} // namespace

std::vector<const PC*> containers(const Sim& sim) {
  std::vector<const PC*> pcs;
  for (int s = 0; s < sim.num_species(); ++s) {
    pcs.push_back(&sim.species_level0(s));
    pcs.push_back(&sim.species_patch(s));
  }
  return pcs;
}

double field_energy(const MF& E, const MF& B, const mrpic::Geometry<2>& geom) {
  double e2 = 0, b2 = 0;
  for (int c = 0; c < 3; ++c) {
    e2 += sum_sq_valid(E, c);
    b2 += sum_sq_valid(B, c);
  }
  return (0.5 * eps0 * e2 + 0.5 / mu0 * b2) * geom.cell_size(0) * geom.cell_size(1);
}

double kinetic_energy(const std::vector<const PC*>& pcs) {
  double s = 0;
  for (const PC* pc : pcs) {
    const double mc2 = pc->species().mass * c * c;
    for (int t = 0; t < pc->num_tiles(); ++t) {
      const auto& tile = pc->tile(t);
      for (std::size_t p = 0; p < tile.size(); ++p) {
        const double u2 = (tile.u[0][p] * tile.u[0][p] + tile.u[1][p] * tile.u[1][p] +
                           tile.u[2][p] * tile.u[2][p]) /
                          (c * c);
        // gamma - 1 without the cancellation of sqrt(1 + u2) - 1 at low energy.
        s += tile.w[p] * mc2 * u2 / (std::sqrt(1 + u2) + 1);
      }
    }
  }
  return s;
}

Totals totals(const std::vector<const PC*>& pcs) {
  Totals t;
  for (const PC* pc : pcs) {
    double w = 0;
    for (int i = 0; i < pc->num_tiles(); ++i) {
      t.count += static_cast<std::int64_t>(pc->tile(i).size());
      for (const double wi : pc->tile(i).w) { w += wi; }
    }
    t.charge += w * pc->species().charge;
  }
  return t;
}

double max_abs_valid(const MF& mf, int comp) {
  double m = 0;
  for_each_valid(mf, [&](const auto& a, int i, int j) {
    m = std::max(m, std::abs(a(i, j, 0, comp)));
  });
  return m;
}

Cloud level0_cloud(const Sim& sim) {
  Cloud cl;
  for (int s = 0; s < sim.num_species(); ++s) {
    const auto& pc = sim.species_level0(s);
    for (int t = 0; t < pc.num_tiles(); ++t) {
      const auto& tile = pc.tile(t);
      cl.x.insert(cl.x.end(), tile.x[0].begin(), tile.x[0].end());
      cl.y.insert(cl.y.end(), tile.x[1].begin(), tile.x[1].end());
      for (const double w : tile.w) { cl.qw.push_back(w * pc.species().charge); }
    }
  }
  return cl;
}

double continuity_residual(const Cloud& before, const Cloud& after, const MF& J,
                           const mrpic::Geometry<2>& geom, double dt) {
  const int nx = geom.domain().length(0);
  const int ny = geom.domain().length(1);
  const int ilo = geom.domain().lo(0);
  const int jlo = geom.domain().lo(1);
  const auto rho0 = deposit_rho(before, geom);
  const auto rho1 = deposit_rho(after, geom);

  // Jx sits at (i + 1/2, j) and Jy at (i, j + 1/2); gather both onto dense
  // periodic arrays indexed like the nodes.
  std::vector<double> jx(rho0.size()), jy(rho0.size());
  for_each_valid(J, [&](const auto& a, int i, int j) {
    const std::size_t k = static_cast<std::size_t>(j - jlo) * nx + (i - ilo);
    jx[k] = a(i, j, 0, 0);
    jy[k] = a(i, j, 0, 1);
  });

  double worst = 0, rho_max = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) * nx + i;
      const std::size_t kx = static_cast<std::size_t>(j) * nx + wrap(i - 1, nx);
      const std::size_t ky = static_cast<std::size_t>(wrap(j - 1, ny)) * nx + i;
      const double div =
          (jx[k] - jx[kx]) / geom.cell_size(0) + (jy[k] - jy[ky]) / geom.cell_size(1);
      worst = std::max(worst, std::abs((rho1[k] - rho0[k]) / dt + div));
      rho_max = std::max(rho_max, std::abs(rho1[k]));
    }
  }
  return worst / (rho_max / dt);
}

std::int64_t count_nonfinite(Sim& sim) {
  std::int64_t n = nonfinite(sim.fields().E()) + nonfinite(sim.fields().B()) +
                   nonfinite(sim.fields().J());
  if (auto* pml = sim.domain_pml()) { n += nonfinite(pml->split_fab()); }
  if (auto* patch = sim.patch()) {
    for (auto* level : {&patch->fine(), &patch->coarse()}) {
      n += nonfinite(level->E()) + nonfinite(level->B()) + nonfinite(level->J());
    }
    n += nonfinite(patch->aux_E()) + nonfinite(patch->aux_B());
    n += nonfinite(patch->fine_pml().split_fab()) + nonfinite(patch->coarse_pml().split_fab());
  }
  for (const PC* pc : containers(sim)) {
    for (int t = 0; t < pc->num_tiles(); ++t) {
      const auto& tile = pc->tile(t);
      for (const auto& v : tile.x) { n += nonfinite(v); }
      for (const auto& v : tile.u) { n += nonfinite(v); }
      n += nonfinite(tile.w);
    }
  }
  return n;
}

std::int64_t count_differing_arrays(const Sim& a, const Sim& b) {
  std::int64_t n = differing(a.fields().E(), b.fields().E()) +
                   differing(a.fields().B(), b.fields().B());
  if (a.patch() != nullptr && b.patch() != nullptr) {
    n += differing(a.patch()->fine().E(), b.patch()->fine().E()) +
         differing(a.patch()->fine().B(), b.patch()->fine().B());
  } else if ((a.patch() == nullptr) != (b.patch() == nullptr)) {
    ++n;
  }
  const auto pa = containers(a);
  const auto pb = containers(b);
  if (pa.size() != pb.size()) { return n + 1; }
  for (std::size_t i = 0; i < pa.size(); ++i) { n += differing(*pa[i], *pb[i]); }
  return n;
}

} // namespace perfbench
