#pragma once

// Particle sorting: periodic counting-sort of a tile's particles by cell
// (paper Sec. V.A.1: "grid tiling and particle sorting are used to improve
// data locality"). bench_kernels measures what the sort buys the gather and
// deposit kernels.

#include "src/amr/box.hpp"
#include "src/amr/geometry.hpp"
#include "src/particles/particle_container.hpp"

namespace mrpic::particles {

// Sort particles of `tile` in cell-major (Fortran) order of the cells of
// `valid` (particles in ghost regions sort to the nearest clamped cell).
template <int DIM>
void sort_tile_by_cell(ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                       const mrpic::Box<DIM>& valid);

// True if the tile is sorted by cell index (test/diagnostic helper).
template <int DIM>
bool is_sorted_by_cell(const ParticleTile<DIM>& tile, const mrpic::Geometry<DIM>& geom,
                       const mrpic::Box<DIM>& valid);

extern template void sort_tile_by_cell<2>(ParticleTile<2>&, const mrpic::Geometry<2>&,
                                          const mrpic::Box<2>&);
extern template void sort_tile_by_cell<3>(ParticleTile<3>&, const mrpic::Geometry<3>&,
                                          const mrpic::Box<3>&);
extern template bool is_sorted_by_cell<2>(const ParticleTile<2>&, const mrpic::Geometry<2>&,
                                          const mrpic::Box<2>&);
extern template bool is_sorted_by_cell<3>(const ParticleTile<3>&, const mrpic::Geometry<3>&,
                                          const mrpic::Box<3>&);

} // namespace mrpic::particles
