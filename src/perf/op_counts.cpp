#include "src/perf/op_counts.hpp"

#include "src/fields/fdtd.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"

namespace mrpic::perf {

OpCounts pic_flops_per_particle_3d(int shape_order) {
  // Gather + push + deposition, expressed mostly as fused operations to
  // mirror the FFMA-heavy SASS mix the paper reports.
  const std::int64_t g = particles::gather_flops_per_particle(shape_order, 3);
  const std::int64_t p = particles::push_flops_per_particle();
  const std::int64_t d = particles::deposit_flops_per_particle(shape_order, 3);
  OpCounts ops;
  ops.fma = (g + d) / 2; // interpolation weight products are FMA-dominant
  ops.add = p / 2;
  ops.mul = p - p / 2 + (g + d) - 2 * ops.fma;
  ops.sqrt = 2; // one gamma in the push, one in the deposition amplitude
  ops.div = 2;
  return ops;
}

OpCounts pic_flops_per_cell_3d() {
  const std::int64_t f = fields::FDTDSolver<3>::flops_per_cell();
  OpCounts ops;
  ops.fma = f / 3;
  ops.add = f - 2 * ops.fma;
  return ops;
}

} // namespace mrpic::perf
