#pragma once

// MRPatch<DIM>: one electromagnetic mesh-refinement level, implementing the
// algorithm of Vay et al. (2004, 2012) as described in paper Sec. V.B:
//
//  * a fine grid f collocated with the refinement region (refined by an
//    integer ratio), terminated by a PML;
//  * an auxiliary coarse grid c over the same region at the parent
//    resolution, also PML-terminated;
//  * both grids see ONLY the currents of particles inside the region (the
//    fine current is restricted onto c and added to the parent grid);
//  * particles inside the region (outside a transition zone at its edge)
//    gather from the auxiliary solution
//        F(a) = F(f) + I[ F(s) - F(c) ]
//    where F(s) is the parent solution on the region and I is linear
//    interpolation, so external waves enter at parent resolution while
//    internal sources are resolved at fine resolution;
//  * particles in the transition zone gather from the parent only, which
//    mitigates spurious forces at the patch boundary;
//  * the patch can follow a moving window and be removed dynamically, the
//    key mechanism behind the paper's 1.5-4x time-to-solution savings
//    (Fig. 6).
//
// The patch region is held as a single fab per grid (physics-scale builds);
// distributed chopping of MR patches is modeled by src/perf.

#include <array>
#include <memory>
#include <optional>

#include "src/fields/fdtd.hpp"
#include "src/fields/field_set.hpp"
#include "src/fields/pml.hpp"

namespace mrpic::mr {

template <int DIM>
class MRPatch {
public:
  using IV = mrpic::IntVect<DIM>;

  struct Config {
    mrpic::Box<DIM> region;     // refinement region in parent index space
    int ratio = 2;              // integer refinement ratio
    int transition_cells = 2;   // parent cells at the region edge where
                                // particles gather from the parent only
    fields::PmlConfig pml{};
  };

  MRPatch(const mrpic::Geometry<DIM>& parent_geom, const Config& cfg);

  bool active() const { return m_active; }
  // Drop the refined level (fields under the region are already represented
  // on the parent through the restricted currents) and free its fine,
  // coarse, PML and aux storage, and with it the "mr.patch.*" ledger charge.
  void remove();

  const Config& config() const { return m_cfg; }
  const mrpic::Box<DIM>& region() const { return m_cfg.region; }
  mrpic::Box<DIM> fine_region() const { return m_cfg.region.refined(m_cfg.ratio); }

  fields::FieldSet<DIM>& fine() { return m_fine; }
  fields::FieldSet<DIM>& coarse() { return m_coarse; }
  const fields::FieldSet<DIM>& fine() const { return m_fine; }
  const fields::FieldSet<DIM>& coarse() const { return m_coarse; }
  fields::Pml<DIM>& fine_pml() { return m_fine_pml; }
  fields::Pml<DIM>& coarse_pml() { return m_coarse_pml; }

  // Gathering source for particles in the patch interior: the auxiliary
  // fields on the fine index space (valid after build_aux).
  const mrpic::MultiFab<DIM>& aux_E() const { return m_auxE; }
  const mrpic::MultiFab<DIM>& aux_B() const { return m_auxB; }

  // True if the physical position lies inside the patch region / inside the
  // interior (region minus transition zone), given the parent geometry.
  bool in_region(const mrpic::Geometry<DIM>& pg, const std::array<Real, DIM>& x) const;
  bool in_interior(const mrpic::Geometry<DIM>& pg, const std::array<Real, DIM>& x) const;

  // Restrict the fine current onto the coarse companion and add it to the
  // parent current (call after fine-J sum_boundary, before the E update).
  void sync_currents(mrpic::MultiFab<DIM>& parent_J);

  // Maxwell sub-steps on both patch grids, with PML coupling.
  void evolve_b(Real dt);
  void evolve_e(Real dt);

  // Rebuild the auxiliary gather fields from the current parent solution.
  void build_aux(const fields::FieldSet<DIM>& parent);

  // Scroll the patch with a moving window that shifted the parent by
  // `parent_cells` cells along `dir` (fine data shifts by ratio x as much).
  void shift_window(int dir, int parent_cells);

  // Number of cells the patch adds to the simulation (fine + companion),
  // for cost accounting.
  std::int64_t extra_cells() const {
    if (!m_active) { return 0; }
    return fine_region().num_cells() + m_cfg.region.num_cells();
  }

private:
  void exchange(fields::FieldSet<DIM>& f, fields::Pml<DIM>& pml);

  Config m_cfg;
  bool m_active = true;
  mrpic::Geometry<DIM> m_parent_geom_init;
  fields::FieldSet<DIM> m_fine;    // fine grid f (fine index space)
  fields::FieldSet<DIM> m_coarse;  // auxiliary coarse grid c (parent space)
  fields::Pml<DIM> m_fine_pml;
  fields::Pml<DIM> m_coarse_pml;
  mrpic::MultiFab<DIM> m_auxE, m_auxB; // gather fields on the fine space
  fields::FDTDSolver<DIM> m_solver;
};

extern template class MRPatch<2>;
extern template class MRPatch<3>;

} // namespace mrpic::mr
