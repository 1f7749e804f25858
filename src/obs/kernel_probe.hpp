#pragma once

// obs::KernelProbe — kernel-grain observability for the PIC cycle's three
// hot kernels (paper Fig. 3: gather -> push -> deposit), one level below
// the rank-grain attribution of PR 4. Each sampled invocation (one kernel,
// one species, one tile) records wall time, particles processed, modeled
// bytes moved, and its placement on a perf::Machine roofline (arithmetic
// intensity, achieved bandwidth, attainment) — per *invocation*, so a
// single slow tile is visible, not just the stage aggregate. Alongside the
// timings, sampled cell-key locality metrics (obs/locality.hpp) predict the
// payoff of the planned cell-binned sort.
//
// Cost model (analytic, cold-cache, Real = 8 B; P = (order+1)^dim stencil
// points, Q = (order+2)^dim Esirkepov support):
//   gather:  read x (8*dim), stream 6 field components over P stencil cells
//            (48*P), write 6 gathered values (48)        -> 8*dim + 48*P + 48
//   push:    read 6 gathered (48), read+write u (2*24), read+write x
//            (2*8*dim)                                    -> 96 + 16*dim
//   deposit: read x_old + x_new (16*dim), read w (8), read-modify-write 3
//            current components over Q cells (48*Q)       -> 16*dim + 8 + 48*Q
// This is deliberately a per-particle cold-cache model — distinct from the
// calibrated per-step aggregate in analysis::pic_kernel_bytes — so the
// intensity of a closed-form kernel is exact (tested to 1e-9) and the gap
// between modeled and achieved bandwidth *is* the locality headroom.
//
// Thread safety: record()/sample_locality()/snapshots are mutex-guarded
// (kernel launches may come from concurrent drivers); the probe times its
// own critical sections into self_time_s() so bench_observers can hold the
// probe to <= 1% of step time.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/locality.hpp"
#include "src/perf/machine.hpp"

namespace mrpic::obs {

class MetricsRegistry;

enum class KernelKind { Gather = 0, Push = 1, Deposit = 2 };
inline constexpr int kNumKernelKinds = 3;

const char* kernel_kind_name(KernelKind k);

// Analytic flops per particle (wraps the particles:: kernel counts).
double kernel_flops_per_particle(KernelKind k, int shape_order, int dim);
// Analytic cold-cache bytes per particle (model in the header comment).
double kernel_bytes_per_particle(KernelKind k, int shape_order, int dim);

struct KernelObsConfig {
  // Sample every Nth step (0 disables sampling entirely). Sampling whole
  // steps rather than thinning within a step keeps per-step kernel
  // aggregates internally consistent.
  int sample_interval = 5;
  // Particles of the cell-key locality sample per tile (contiguous prefix).
  // 1024 keeps the stride-sort cost inside the <= 1% probe-overhead budget
  // (gated on the lwfa_mr step in bench_observers); the statistics are
  // already stable at this sample size.
  std::size_t locality_sample = 1024;
  // Stored per-invocation records are bounded; excess is counted as
  // dropped (aggregates keep accumulating regardless).
  std::size_t max_invocations = 8192;
  // Roofline machine (perf::machine_by_name).
  std::string machine = "Summit";
};

// One sampled kernel launch with its roofline placement.
struct KernelInvocation {
  KernelKind kind = KernelKind::Gather;
  std::int64_t step = -1;
  std::string species;
  int tile = -1;              // tile/box index (-1 = MR patch tile)
  std::int64_t particles = 0;
  double time_s = 0;
  double flops = 0;           // particles * flops/particle
  double bytes = 0;           // particles * bytes/particle (cold-cache model)
  double intensity = 0;       // flops / bytes
  double gbyte_s = 0;         // achieved bandwidth, bytes / time
  double roof_tflops = 0;     // machine roof at this intensity
  double attained_tflops = 0;
  double attainment = 0;      // attained / roof
  bool memory_bound = false;
};

// Running totals per kernel kind.
struct KernelAggregate {
  std::int64_t invocations = 0;
  std::int64_t particles = 0;
  double time_s = 0;
  double flops = 0;
  double bytes = 0;
  double intensity() const { return bytes > 0 ? flops / bytes : 0; }
  double gbyte_s() const { return time_s > 0 ? bytes / time_s / 1e9 : 0; }
  double attained_tflops() const { return time_s > 0 ? flops / time_s / 1e12 : 0; }
};

class KernelProbe {
public:
  explicit KernelProbe(KernelObsConfig cfg = {});

  const KernelObsConfig& config() const { return m_cfg; }
  const perf::Machine& machine() const { return *m_machine; }

  // True when `step` is a sampled step (callers skip all probe work
  // otherwise, so the off-cadence overhead is one modulo per step).
  bool due(std::int64_t step) const {
    return m_cfg.sample_interval > 0 && step % m_cfg.sample_interval == 0;
  }

  // Record one kernel launch (time measured by the caller around the bare
  // kernel call; the probe's own bookkeeping accrues to self_time_s).
  void record(KernelKind kind, std::int64_t step, const std::string& species,
              int tile, std::int64_t particles, double time_s, int shape_order,
              int dim);

  // Sample one tile's cell-key locality (at most config().locality_sample
  // particles) and merge it into the running aggregate.
  template <int DIM>
  void sample_locality(const particles::ParticleTile<DIM>& tile,
                       const Geometry<DIM>& geom, const Box<DIM>& valid);

  // --- snapshots ---------------------------------------------------------
  std::vector<KernelInvocation> invocations() const;
  std::vector<KernelAggregate> aggregates() const;  // indexed by KernelKind
  KernelAggregate aggregate(KernelKind k) const;
  TileLocality locality() const;
  std::int64_t locality_tiles() const;
  std::int64_t dropped_invocations() const;
  // Seconds spent inside the probe itself (bookkeeping + locality hashing),
  // the numerator of the <= 1% overhead gate.
  double self_time_s() const;

  // Publish kernel_* gauges (per-kind time/bandwidth/intensity/attainment
  // plus locality and probe-cost gauges) into a metrics registry.
  void publish(MetricsRegistry& metrics) const;

  void clear();

private:
  KernelObsConfig m_cfg;
  const perf::Machine* m_machine;
  mutable std::mutex m_mu;
  std::vector<KernelInvocation> m_invocations;
  KernelAggregate m_agg[kNumKernelKinds];
  TileLocality m_locality;
  std::int64_t m_locality_tiles = 0;
  std::int64_t m_dropped = 0;
  double m_self_s = 0;
};

extern template void KernelProbe::sample_locality<2>(const particles::ParticleTile<2>&,
                                                     const Geometry<2>&, const Box<2>&);
extern template void KernelProbe::sample_locality<3>(const particles::ParticleTile<3>&,
                                                     const Geometry<3>&, const Box<3>&);

} // namespace mrpic::obs
