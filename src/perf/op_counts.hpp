#pragma once

// Source-level FLOP accounting: the substitute for Nsight Compute / ROCm
// profiler / fipp counters (paper Sec. VI.B). The production PIC stages'
// algorithmic operation counts per element, per operation class (FMA
// counted as two operations, as in the paper's SASS methodology).

#include <cstdint>

namespace mrpic::perf {

struct OpCounts {
  std::int64_t add = 0;
  std::int64_t mul = 0;
  std::int64_t fma = 0; // counted as 2 flops
  std::int64_t div = 0;
  std::int64_t sqrt = 0;

  std::int64_t flops() const { return add + mul + 2 * fma + div + sqrt; }
};

// Canonical per-element operation counts of the production PIC stages
// (order-3 shapes, 3D unless noted). Used by the Table III bench.
OpCounts pic_flops_per_particle_3d(int shape_order);
OpCounts pic_flops_per_cell_3d();

} // namespace mrpic::perf
