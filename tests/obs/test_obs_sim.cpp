// End-to-end wiring of the observability layer through Simulation<DIM>:
// hierarchical regions under "step", per-step metrics records, StepReport
// publication, and the acceptance check that a profiling-enabled run emits
// a trace JSON a Chrome/Perfetto loader can parse.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/core/simulation.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/trace.hpp"
#include "src/perf/machine.hpp"

namespace mrpic::core {
namespace {

SimulationConfig<2> small_config(int n = 32) {
  SimulationConfig<2> cfg;
  cfg.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1));
  cfg.prob_lo = mrpic::RealVect2(0, 0);
  cfg.prob_hi = mrpic::RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = mrpic::IntVect2(16);
  cfg.shape_order = 2;
  return cfg;
}

// Simulation is pinned in place (the profiler/metrics members own mutexes),
// so populate an existing instance instead of returning one by value.
void add_electrons(Simulation<2>& sim) {
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e23);
  inj.ppc = mrpic::IntVect2(1, 1);
  sim.add_species(particles::Species::electron(), inj);
}

TEST(ObsSim, ProfilerNestsStagesUnderStep) {
  Simulation<2> sim(small_config());
  add_electrons(sim);
  sim.init();
  sim.run(3);
  EXPECT_EQ(sim.profiler().stats("step").count, 3);
  EXPECT_EQ(sim.profiler().stats("step/particles").count, 3);
  EXPECT_EQ(sim.profiler().stats("step/field_solve").count, 3);
  // Stages nest strictly inside the step.
  const auto step = sim.profiler().stats("step");
  const auto particles = sim.profiler().stats("step/particles");
  EXPECT_GE(step.inclusive_s, particles.inclusive_s);
  // Flat per-name totals answer the same questions without paths.
  const auto flat = sim.profiler().flat_totals();
  EXPECT_EQ(flat.at("step").count, 3);
  EXPECT_EQ(flat.at("particles").count, 3);

  // The kernel-headroom rows are the profiler's kernel totals: one launch
  // per tile and step (four 16^2 boxes, 256 electrons each), at the
  // analytic per-particle flops and bytes.
  const auto pushed = sim.metrics().counter_value("particles_pushed");
  EXPECT_EQ(pushed, 3 * 1024);
  const auto k = obs::summarize_kernels(sim.profiler(), pushed, 2, 2,
                                        perf::machine_by_name("Summit"));
  ASSERT_EQ(k.kernels.size(), std::size_t(obs::analysis::kNumKernelKinds));
  for (int i = 0; i < obs::analysis::kNumKernelKinds; ++i) {
    const auto kind = static_cast<obs::analysis::KernelKind>(i);
    const auto& row = k.kernels[std::size_t(i)];
    const std::string name = obs::analysis::kernel_kind_name(kind);
    EXPECT_EQ(row.kernel, name);
    EXPECT_EQ(row.invocations, 12) << name;
    EXPECT_EQ(row.particles, 3072) << name;
    EXPECT_EQ(row.time_s, sim.profiler().stats("step/particles/" + name).inclusive_s)
        << name;
    EXPECT_DOUBLE_EQ(row.flops, 3072 * obs::analysis::kernel_flops_per_particle(kind, 2, 2));
    EXPECT_DOUBLE_EQ(row.bytes, 3072 * obs::analysis::kernel_bytes_per_particle(kind, 2, 2));
  }
}

TEST(ObsSim, StepReportAndMetricsPipeline) {
  Simulation<2> sim(small_config());
  add_electrons(sim);
  sim.init();
  const auto n = sim.total_particles();

  int callbacks = 0;
  std::int64_t last_step = -1;
  sim.set_step_callback([&](const obs::StepReport& r) {
    ++callbacks;
    last_step = r.step;
  });
  sim.run(4);

  EXPECT_EQ(callbacks, 4);
  EXPECT_EQ(last_step, 3);

  const auto& rep = sim.last_step_report();
  EXPECT_EQ(rep.step, 3);
  EXPECT_EQ(rep.particles_pushed, n);
  EXPECT_EQ(rep.cells_advanced, 32 * 32);
  EXPECT_GT(rep.wall_s, 0.0);
  EXPECT_GT(rep.region("particles"), 0.0);
  EXPECT_GE(rep.wall_s, rep.region("particles"));
  EXPECT_NEAR(rep.time, sim.time(), 1e-20);

  // One metrics record per step with the same counters.
  ASSERT_EQ(sim.metrics().history().size(), 4u);
  const auto& rec = sim.metrics().history().back();
  EXPECT_EQ(rec.step, 3);
  EXPECT_EQ(rec.counters.at("particles_pushed"), n);
  EXPECT_EQ(rec.counters.at("cells_advanced"), 32 * 32);
  EXPECT_GT(rec.gauges.at("step_wall_s"), 0.0);

  // And the whole history serializes/parses as JSONL.
  const std::string path = "test_obs_sim_metrics.jsonl";
  ASSERT_TRUE(sim.metrics().write_jsonl(path));
  const auto back = obs::MetricsRegistry::read_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back.back(), rec);
}

TEST(ObsSim, TracedRunEmitsLoadableChromeTrace) {
  Simulation<2> sim(small_config());
  add_electrons(sim);
  sim.profiler().set_tracing(true);
  sim.init();
  sim.run(2);

  const std::string path = "test_obs_sim_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(sim.profiler(), path));
  std::ifstream is(path);
  std::string all((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  is.close();
  std::remove(path.c_str());

  // Re-parse: structurally what chrome://tracing / Perfetto loads.
  const auto doc = obs::json::parse(all);
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc["traceEvents"].is_array());
  const auto& events = doc["traceEvents"].as_array();
  // Metadata + >= (step + a few stages) x 2 steps.
  EXPECT_GT(events.size(), 8u);
  bool saw_step_region = false;
  for (const auto& ev : events) {
    if (ev["ph"].as_string() != "X") { continue; }
    ASSERT_TRUE(ev["args"].is_object());
    EXPECT_GE(ev["args"]["step"].as_int(), 0);
    EXPECT_LT(ev["args"]["step"].as_int(), 2);
    if (ev["name"].as_string() == "step") { saw_step_region = true; }
  }
  EXPECT_TRUE(saw_step_region);
}

TEST(ObsSim, DynamicLbPublishesImbalanceGauge) {
  auto cfg = small_config();
  cfg.dynamic_lb = true;
  cfg.lb_interval = 2;
  cfg.nranks = 4;
  Simulation<2> sim(cfg);
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::slab<2>(1e24, 0.0, 0.8e-6); // imbalanced on purpose
  inj.ppc = mrpic::IntVect2(2, 2);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(6);
  // record_costs ran at least once, so the gauge is present and sensible.
  EXPECT_GE(sim.metrics().gauge_value("lb_cost_imbalance"), 1.0);
  if (sim.load_balancer().num_rebalances() > 0) {
    EXPECT_EQ(sim.metrics().counter_value("lb_rebalances"),
              sim.load_balancer().num_rebalances());
  }
}

} // namespace
} // namespace mrpic::core
