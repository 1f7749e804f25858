// Table III reproduction: sustained Flop/s per device and at system scale,
// DP and mixed-precision modes, with % of vendor peak and % of HPCG.
//
// Method (mirrors Sec. VI.B with source-level counters substituting for
// Nsight/ROCm-profiler/fipp): algorithmic FLOP counts per particle and per
// cell for the order-3 PIC stages are combined with the memory-bound
// step-time model (calibrated on Table IV, see machine.hpp) to obtain
// achieved Flop/s per device; system-scale numbers multiply by devices and
// the weak-scaling efficiency of the largest run, exactly as the paper
// scales its measured few-node counts.

#include <cstdio>

#include "src/perf/machine.hpp"
#include "src/perf/op_counts.hpp"
#include "src/perf/scaling_model.hpp"

using namespace mrpic;

int main() {
  // Uniform-plasma FOM workload: 1 particle per cell.
  const double cells_per_device = 1.6e8 / 4; // typical GPU fill (Table IV scale)
  const double parts_per_device = cells_per_device;

  const auto ops_pp = perf::pic_flops_per_particle_3d(3);
  const auto ops_pc = perf::pic_flops_per_cell_3d();
  const double flops_per_device_step = static_cast<double>(ops_pp.flops()) * parts_per_device +
                                       static_cast<double>(ops_pc.flops()) * cells_per_device;

  std::printf("Table III: sustained Flop/s (order-3 PIC, uniform plasma, 1 ppc)\n");
  std::printf("algorithmic counts: %lld flops/particle/step, %lld flops/cell/step\n\n",
              static_cast<long long>(ops_pp.flops()), static_cast<long long>(ops_pc.flops()));
  std::printf("%-11s %-5s %16s %10s %16s %10s\n", "Machine", "Mode", "TFlop/s/device",
              "% peak", "system PFlop/s", "% HPCG");
  std::printf("%.*s\n", 74,
              "--------------------------------------------------------------------------");

  perf::StepTimeModel st;
  for (const auto& m : perf::catalogue()) {
    const auto weak = perf::WeakScalingModel::for_machine(m);
    const double eff = weak.efficiency(m.weak.nodes_full);
    for (bool mp : {false, true}) {
      const double t_dev = st.node_seconds(m, cells_per_device, parts_per_device, mp) /
                           m.devices_per_node * m.devices_per_node; // per device directly
      const double t = st.node_seconds(m, cells_per_device * m.devices_per_node,
                                       parts_per_device * m.devices_per_node, mp);
      (void)t_dev;
      const double dev_flops = flops_per_device_step / t; // Flop/s per device
      // Mixed precision: most arithmetic runs in SP, the numerically
      // sensitive particle ops stay DP (Sec. VI): report the split.
      const double sp_share = mp ? 0.75 : 0.0;
      const double dp_flops = dev_flops * (1.0 - sp_share);
      const double sp_flops = dev_flops * sp_share;
      const double system_pflops =
          dev_flops * m.devices_per_node * m.weak.nodes_full * eff / 1e15;
      char hpcg[32];
      if (m.hpcg_pflops > 0) {
        std::snprintf(hpcg, sizeof(hpcg), "%.0f%%", 100 * system_pflops / m.hpcg_pflops);
      } else {
        std::snprintf(hpcg, sizeof(hpcg), "n/a");
      }
      if (!mp) {
        std::printf("%-11s %-5s %13.2f DP %9.1f%% %16.2f %10s\n", m.name.c_str(), "DP",
                    dp_flops / 1e12, 100 * dp_flops / (m.dp_tflops_device * 1e12),
                    system_pflops, hpcg);
      } else {
        std::printf("%-11s %-5s %13.2f SP %9.1f%%\n", "", "MP", sp_flops / 1e12,
                    100 * sp_flops / (m.sp_tflops_device * 1e12));
        std::printf("%-11s %-5s %13.2f DP %9.1f%%\n", "", "", dp_flops / 1e12,
                    100 * dp_flops / (m.dp_tflops_device * 1e12));
      }
    }
    std::printf("\n");
  }

  std::printf("paper (Table III): Frontier DP 1.58 (3.3%%) -> 43.45 PF;  Fugaku DP 0.037\n");
  std::printf("(1.1%%) -> 5.31 PF (34.7%% HPCG);  Summit DP 0.62 (8.3%%) -> 11.79 PF (435%%\n");
  std::printf("HPCG);  Perlmutter DP 1.26 (12.9%%) -> 3.38 PF (223%% HPCG). The shape to\n");
  std::printf("match: single-digit %% of peak (memory-bound PIC), Summit/Perlmutter HPCG\n");
  std::printf("ratios in the hundreds of %%, Fugaku far below its HPCG.\n");
  return 0;
}
