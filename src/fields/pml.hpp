#pragma once

// Berenger split-field Perfectly Matched Layer (Berenger 1994).
//
// A PML is a ring of boxes of width `npml` cells surrounding an interior
// region (the simulation domain, or a mesh-refinement patch — the paper's MR
// algorithm terminates both the fine and the auxiliary coarse patch with
// PMLs, Sec. V.B). Each of the six field components is split into two
// sub-components, one per transverse curl term; each sub-component is damped
// by a polynomial-graded conductivity profile in the direction of its
// spatial derivative. Exponential time stepping keeps the damped update
// unconditionally stable in sigma.
//
// Coupling with the interior grid each step:
//   exchange_from_interior()  interior valid E,B -> PML ghost cells
//   evolve_b/evolve_e()       damped split-field FDTD inside the ring
//   copy_to_interior()        PML totals -> interior ghost cells outside the
//                             interior valid region

#include <array>
#include <limits>
#include <vector>

#include "src/amr/multifab.hpp"
#include "src/fields/field_set.hpp"

namespace mrpic::fields {

// Split-component layout of the PML fab.
enum PmlComp : int {
  EXY = 0, EXZ, EYZ, EYX, EZX, EZY, // E splits
  BXY, BXZ, BYZ, BYX, BZX, BZY,     // B splits
  NUM_PML_COMP
};

struct PmlConfig {
  int npml = 12;            // layer width in cells
  Real grade_order = 3;     // polynomial grading exponent m
  Real reflection = 1e-8;   // theoretical normal-incidence reflection R0
};

template <int DIM>
class Pml {
public:
  using IV = mrpic::IntVect<DIM>;

  Pml() = default;

  // Build a PML ring around `inner` (a cell box in the index space of
  // `geom`). absorb[d] selects which directions get a layer (periodic
  // directions must pass false).
  Pml(const mrpic::Geometry<DIM>& geom, const mrpic::Box<DIM>& inner,
      const std::array<bool, DIM>& absorb, PmlConfig cfg = {},
      int ngrow = mrpic::default_num_ghost);

  bool empty() const { return m_fab.empty(); }
  const mrpic::BoxArray<DIM>& box_array() const { return m_fab.box_array(); }
  mrpic::MultiFab<DIM>& split_fab() { return m_fab; }
  const mrpic::MultiFab<DIM>& split_fab() const { return m_fab; }
  const mrpic::Box<DIM>& inner_box() const { return m_inner; }
  const PmlConfig& config() const { return m_cfg; }

  // Fill PML ghost cells from interior valid data. The full interior value
  // goes into the first split component of each pair, zero into the second
  // (the partition is immaterial where sigma == 0).
  void exchange_from_interior(const FieldSet<DIM>& f);

  // Exchange ghost data among the ring boxes themselves.
  void fill_boundary();

  // Damped split-field updates on the ring's valid cells. The damping
  // coefficients are tabulated per direction and rebuilt only when `dt`
  // differs from the one they were last built for.
  void evolve_b(Real dt);
  void evolve_e(Real dt);

  // Write PML total fields into interior ghost cells that lie in the ring.
  void copy_to_interior(FieldSet<DIM>& f) const;

  // Conductivity profile along direction d at staggered index position
  // `pos` (in units of cells, i.e. index + 0.5*stag), in 1/s.
  Real sigma(int d, Real pos) const;

  // Scroll the stored split-field data with a moving window (see
  // MultiFab::shift_data).
  void shift_data(int d, int ncells) { m_fab.shift_data(d, ncells, Real(0)); }

  // Largest |split value| over the ring (diagnostic: absorption quality).
  Real max_abs() const;

private:
  // Exponential-time-stepping pair for dF/dt = -sigma F + T:
  //   F <- d1 F + d2 T,  d1 = exp(-sigma dt), d2 = (1 - d1)/sigma (dt if s==0).
  struct Damp {
    Real d1, d2;
  };
  static Damp damping(Real sigma, Real dt);
  // Damp per direction and index over the ring's index range (ghosts
  // included), at positions index + offset, for one dt. Derived state, never
  // checkpointed: the moving window scrolls the ring's data, never its
  // indices, so only dt can invalidate a table.
  struct DampTable {
    Real dt = std::numeric_limits<Real>::quiet_NaN(); // NaN: never built
    std::array<int, DIM> lo{};
    std::array<std::vector<Damp>, DIM> w;
    const Damp& at(int d, int index) const { return w[d][index - lo[d]]; }
  };
  // Rebuild t from sigma() when it was built for another dt; return it.
  const DampTable& damping_table(DampTable& t, Real dt, Real offset) const;

  mrpic::Geometry<DIM> m_geom;      // geometry of the interior level
  mrpic::Box<DIM> m_inner;          // interior region the ring surrounds
  std::array<bool, DIM> m_absorb{};
  PmlConfig m_cfg;
  std::array<Real, DIM> m_sigma_max{};
  mrpic::MultiFab<DIM> m_fab;       // NUM_PML_COMP split components
  DampTable m_damp_b;               // half-integer positions (B splits)
  DampTable m_damp_e;               // integer positions (E splits)
};

extern template class Pml<2>;
extern template class Pml<3>;

} // namespace mrpic::fields
