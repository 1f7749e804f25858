#pragma once

// Physics checks of a workload's result, computed by the benchmark's own
// code from the raw state the program exposes (field arrays and particle
// arrays), never from the program's own diagnostics. Each check reduces to
// one number compared with a bound; every check also runs once on a
// deliberately broken copy of the state, where it must fail.

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"

namespace perfbench {

using Sim = mrpic::core::Simulation<2>;
using MF = mrpic::MultiFab<2>;
using PC = mrpic::particles::ParticleContainer<2>;

struct Check {
  std::string name;
  double value = 0; // the measured quantity
  double bound = 0; // it passes when value <= bound
  // A self-test runs the check on a broken copy and passes when it fails.
  bool self_test = false;

  bool pass() const {
    const bool within = value <= bound; // false for NaN
    return self_test ? !within : within;
  }
};

// Every particle container of the simulation: each species on level 0 and
// in the MR patch.
std::vector<const PC*> containers(const Sim& sim);

// Sum of eps0/2 E^2 + B^2/(2 mu0) over the valid cells of one level, times
// the cell area [J per unit length]; staggered components are independent
// samples.
double field_energy(const MF& E, const MF& B, const mrpic::Geometry<2>& geom);

// Sum of w m c^2 (gamma - 1) over every macroparticle [J per unit length].
double kinetic_energy(const std::vector<const PC*>& pcs);

struct Totals {
  std::int64_t count = 0; // macroparticles
  double charge = 0;      // sum of q w [C per unit length]
};
Totals totals(const std::vector<const PC*>& pcs);

// Largest |component comp| over the valid cells.
double max_abs_valid(const MF& mf, int comp);

// Level-0 macroparticle positions and charges, for the charge deposit.
struct Cloud {
  std::vector<double> x, y, qw;
};
Cloud level0_cloud(const Sim& sim);

// max |(rho1 - rho0)/dt + div J| / (max |rho1| / dt) over the nodes of a
// fully periodic level 0. rho is deposited on the nodes with the order-3
// B-spline from the two clouds; div J is the Yee divergence of J.
double continuity_residual(const Cloud& before, const Cloud& after, const MF& J,
                           const mrpic::Geometry<2>& geom, double dt);

// Number of non-finite values in every field array (level 0, MR patch fine,
// coarse and auxiliary grids, PML split fields) and every particle array.
std::int64_t count_nonfinite(Sim& sim);

// Number of arrays that differ bit for bit between a and b: E and B on
// level 0 and on the MR patch fine level, and every particle array.
std::int64_t count_differing_arrays(const Sim& a, const Sim& b);

} // namespace perfbench
