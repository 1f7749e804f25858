#include "src/mr/mr_patch.hpp"

#include "src/fields/yee.hpp"
#include "src/mr/interpolation.hpp"

namespace mrpic::mr {

template <int DIM>
MRPatch<DIM>::MRPatch(const mrpic::Geometry<DIM>& parent_geom, const Config& cfg)
    : m_cfg(cfg), m_parent_geom_init(parent_geom) {
  const mrpic::Geometry<DIM> fine_geom = parent_geom.refined(cfg.ratio);
  const mrpic::BoxArray<DIM> fine_ba(fine_region());
  const mrpic::BoxArray<DIM> coarse_ba(cfg.region);

  // Every allocation of the patch surcharge lands under "mr.patch.*" in the
  // memory ledger — the byte side of the paper's MR affordability argument
  // (the savings factor compares these accounts against the uniform-fine
  // equivalent, obs::measure_mr_savings).
  mrpic::obs::ScopedMemTag t_mr("mr.patch");
  {
    mrpic::obs::ScopedMemTag t("fine");
    m_fine = fields::FieldSet<DIM>(fine_geom, fine_ba);
  }
  {
    mrpic::obs::ScopedMemTag t("coarse");
    m_coarse = fields::FieldSet<DIM>(parent_geom, coarse_ba);
  }

  std::array<bool, DIM> absorb;
  absorb.fill(true);
  {
    mrpic::obs::ScopedMemTag t("pml");
    m_fine_pml = fields::Pml<DIM>(fine_geom, fine_region(), absorb, cfg.pml);
    m_coarse_pml = fields::Pml<DIM>(parent_geom, cfg.region, absorb, cfg.pml);
  }
  {
    mrpic::obs::ScopedMemTag t("aux");
    m_auxE = mrpic::MultiFab<DIM>(fine_ba, 3, 2);
    m_auxB = mrpic::MultiFab<DIM>(fine_ba, 3, 2);
  }
}

template <int DIM>
void MRPatch<DIM>::remove() {
  m_active = false;
  m_fine = fields::FieldSet<DIM>();
  m_coarse = fields::FieldSet<DIM>();
  m_fine_pml = fields::Pml<DIM>();
  m_coarse_pml = fields::Pml<DIM>();
  m_auxE = mrpic::MultiFab<DIM>();
  m_auxB = mrpic::MultiFab<DIM>();
}

template <int DIM>
bool MRPatch<DIM>::in_region(const mrpic::Geometry<DIM>& pg,
                             const std::array<Real, DIM>& x) const {
  if (!m_active) { return false; }
  IV cell;
  for (int d = 0; d < DIM; ++d) { cell[d] = pg.cell_index(x[d], d); }
  return m_cfg.region.contains(cell);
}

template <int DIM>
bool MRPatch<DIM>::in_interior(const mrpic::Geometry<DIM>& pg,
                               const std::array<Real, DIM>& x) const {
  if (!m_active) { return false; }
  IV cell;
  for (int d = 0; d < DIM; ++d) { cell[d] = pg.cell_index(x[d], d); }
  return m_cfg.region.grown(-m_cfg.transition_cells).contains(cell);
}

template <int DIM>
void MRPatch<DIM>::sync_currents(mrpic::MultiFab<DIM>& parent_J) {
  if (!m_active) { return; }
  // Fine current -> coarse companion (restriction at Yee-staggered
  // locations), then companion -> parent (accumulation on the overlap).
  for (int comp = 0; comp < 3; ++comp) {
    restrict_to_coarse<DIM>(m_fine.J().fab(0), m_coarse.J().fab(0), m_cfg.region, comp,
                            comp, fields::j_stag<DIM>(comp), m_cfg.ratio, false);
  }
  parent_J.parallel_copy(m_coarse.J(), 0, 0, 3, 0, 0, /*add=*/true);
}

template <int DIM>
void MRPatch<DIM>::exchange(fields::FieldSet<DIM>& f, fields::Pml<DIM>& pml) {
  f.fill_boundary();
  pml.exchange_from_interior(f);
  pml.fill_boundary();
  pml.copy_to_interior(f);
}

template <int DIM>
void MRPatch<DIM>::evolve_b(Real dt) {
  if (!m_active) { return; }
  exchange(m_fine, m_fine_pml);
  m_solver.evolve_b(m_fine, dt);
  m_fine_pml.evolve_b(dt);
  exchange(m_coarse, m_coarse_pml);
  m_solver.evolve_b(m_coarse, dt);
  m_coarse_pml.evolve_b(dt);
}

template <int DIM>
void MRPatch<DIM>::evolve_e(Real dt) {
  if (!m_active) { return; }
  exchange(m_fine, m_fine_pml);
  m_solver.evolve_e(m_fine, dt);
  m_fine_pml.evolve_e(dt);
  exchange(m_coarse, m_coarse_pml);
  m_solver.evolve_e(m_coarse, dt);
  m_coarse_pml.evolve_e(dt);
}

template <int DIM>
void MRPatch<DIM>::build_aux(const fields::FieldSet<DIM>& parent) {
  if (!m_active) { return; }
  // Scratch on the companion's box array: parent solution minus companion
  // solution, i.e. the external-source field at parent resolution.
  const int ng = m_coarse.E().num_ghost();
  mrpic::MultiFab<DIM> diffE(m_coarse.E().box_array(), 3, ng);
  mrpic::MultiFab<DIM> diffB(m_coarse.E().box_array(), 3, ng);
  diffE.parallel_copy(parent.E(), 0, 0, 3, 0, 2, false);
  diffB.parallel_copy(parent.B(), 0, 0, 3, 0, 2, false);
  diffE.lin_comb(1, -1, m_coarse.E(), 0, 0, 3);
  diffB.lin_comb(1, -1, m_coarse.B(), 0, 0, 3);

  // aux = I[diff] + fine, over the fine region grown by the aux ghosts.
  const mrpic::Box<DIM> aux_region = fine_region().grown(2);
  for (int comp = 0; comp < 3; ++comp) {
    interp_to_fine<DIM>(diffE.fab(0), m_auxE.fab(0), aux_region, comp, comp,
                        fields::e_stag<DIM>(comp), m_cfg.ratio, false);
    interp_to_fine<DIM>(diffB.fab(0), m_auxB.fab(0), aux_region, comp, comp,
                        fields::b_stag<DIM>(comp), m_cfg.ratio, false);
    m_auxE.fab(0).add_from(m_fine.E().fab(0), aux_region, comp, comp, 1);
    m_auxB.fab(0).add_from(m_fine.B().fab(0), aux_region, comp, comp, 1);
  }
}

template <int DIM>
void MRPatch<DIM>::shift_window(int dir, int parent_cells) {
  if (!m_active || parent_cells == 0) { return; }
  const int fine_cells = parent_cells * m_cfg.ratio;
  m_fine.E().shift_data(dir, fine_cells);
  m_fine.B().shift_data(dir, fine_cells);
  m_fine.J().shift_data(dir, fine_cells);
  m_fine.geom().shift_physical(dir, fine_cells);
  m_fine_pml.shift_data(dir, fine_cells);
  m_auxE.shift_data(dir, fine_cells);
  m_auxB.shift_data(dir, fine_cells);

  m_coarse.E().shift_data(dir, parent_cells);
  m_coarse.B().shift_data(dir, parent_cells);
  m_coarse.J().shift_data(dir, parent_cells);
  m_coarse.geom().shift_physical(dir, parent_cells);
  m_coarse_pml.shift_data(dir, parent_cells);
}

template class MRPatch<2>;
template class MRPatch<3>;

} // namespace mrpic::mr
