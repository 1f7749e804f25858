// MemorySmoke: end-to-end memory observability through Simulation<DIM>.
// Acceptance gates from the memory-observability milestone:
//  - a memory-obs run publishes mem_* gauges every probe step, its fields/
//    particles/mr accounts hold the exact bytes of the layout, and the
//    process-global ledger conserves to the byte (charged - released ==
//    current, checked with EXPECT_EQ, not a tolerance),
//  - the ledger-measured MR memory-savings factor is > 1 and agrees with
//    the analytic structural model within 10%; a removed patch frees its
//    bytes,
//  - with cluster obs on, the per-rank resident-bytes lanes sum exactly to
//    the ledger total (the model distributes every byte) and export as
//    memory_heatmap.csv, feeding predict_first_oom,
//  - a health BoundRule on mem_total_bytes fires checkpoint-now -> abort
//    before a simulated OOM surcharge would hit a real allocator,
//  - high-water marks carry across Simulation incarnations (the resil
//    crash -> shrink -> replay contract) unless reset_high_water() is
//    called for per-incarnation peaks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>

#include "src/core/simulation.hpp"
#include "src/obs/memory.hpp"

namespace mrpic::core {
namespace {

SimulationConfig<2> periodic_config(int n = 32) {
  SimulationConfig<2> cfg;
  cfg.domain = mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(n - 1, n - 1));
  cfg.prob_lo = mrpic::RealVect2(0, 0);
  cfg.prob_hi = mrpic::RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = mrpic::IntVect2(n / 2);
  cfg.shape_order = 2;
  return cfg;
}

void add_thermal_electrons(Simulation<2>& sim, double density = 5e23) {
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(density);
  inj.ppc = mrpic::IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);
}

void add_quarter_patch(Simulation<2>& sim, int n) {
  mr::MRPatch<2>::Config pcfg;
  pcfg.region = mrpic::Box2(mrpic::IntVect2(n / 4, n / 4),
                            mrpic::IntVect2(n / 2 - 1, n / 2 - 1));
  pcfg.ratio = 2;
  pcfg.transition_cells = 2;
  pcfg.pml.npml = 4;
  sim.enable_mr_patch(pcfg);
}

TEST(MemorySmoke, GaugesPublishedAndLedgerConservedExactly) {
  // Every account is an exact function of the layout (capacity-exact field
  // fabs, size-based particle accounts), so each layout pins its bytes:
  // grid n^2, species count, quarter MR patch on/off.
  struct Layout {
    int n, species;
    bool mr;
    std::int64_t fields, particles, mr_bytes, total, high_water;
  };
  const Layout layouts[] = {
      {16, 1, false, 73728, 49152, 0, 122880, 122880},
      {32, 1, false, 165888, 196608, 0, 362496, 362496},
      {32, 2, false, 165888, 393216, 0, 559104, 559104},
      {32, 1, true, 165888, 196608, 374016, 736512, 748800},
      {32, 2, true, 165888, 393216, 374016, 933120, 945408},
  };
  for (const auto& lay : layouts) {
    SCOPED_TRACE("n=" + std::to_string(lay.n) + " species=" + std::to_string(lay.species) +
                 " mr=" + std::to_string(lay.mr));
    obs::memory_ledger().reset_high_water(); // per-layout peak
    Simulation<2> sim(periodic_config(lay.n));
    add_thermal_electrons(sim);
    if (lay.species > 1) {
      plasma::InjectorConfig<2> inj;
      inj.density = plasma::uniform<2>(5e23);
      inj.ppc = mrpic::IntVect2(2, 2);
      inj.temperature_ev = 50.0;
      sim.add_species(particles::Species::proton("ions"), inj);
    }
    if (lay.mr) { add_quarter_patch(sim, lay.n); }
    sim.enable_memory_obs();
    sim.init();
    sim.run(5);

    // The probe ran inside its own profiler region every step.
    EXPECT_EQ(sim.profiler().stats("step/memory").count, 5);

    // mem_* gauges are live in the registry and in the per-step records.
    const auto& reg = sim.metrics();
    EXPECT_GT(reg.gauge_value("mem_total_bytes"), 0.0);
    EXPECT_GT(reg.gauge_value("mem_fields_bytes"), 0.0);
    EXPECT_GT(reg.gauge_value("mem_particles_bytes"), 0.0);
    EXPECT_GT(reg.gauge_value("mem_total_high_water_bytes"), 0.0);
    EXPECT_GT(reg.gauge_value("mem_alloc_count"), 0.0);
    ASSERT_EQ(reg.history().size(), 5u);
    EXPECT_GT(reg.history().back().gauges.at("mem_total_bytes"), 0.0);

    // The ledger itself: fields and particles both live in tagged accounts,
    // each to the byte, and the conservation invariant holds exactly.
    const auto& ledger = obs::memory_ledger();
    EXPECT_GT(ledger.current_prefix("fields.level0"), 0);
    EXPECT_GT(ledger.current_prefix("particles.electrons"), 0);
    EXPECT_EQ(ledger.current_prefix("fields"), lay.fields);
    EXPECT_EQ(ledger.current_prefix("particles"), lay.particles);
    EXPECT_EQ(ledger.current_prefix("mr"), lay.mr_bytes);
    EXPECT_EQ(ledger.total_current(), lay.total);
    EXPECT_EQ(ledger.total_high_water(), lay.high_water);
    EXPECT_EQ(ledger.total_charged() - ledger.total_released(),
              ledger.total_current());
    // The published gauge is the ledger total of the probe instant.
    EXPECT_DOUBLE_EQ(reg.gauge_value("mem_total_bytes"),
                     static_cast<double>(ledger.total_current()));
  }
}

TEST(MemorySmoke, ProbeCadenceFollowsInterval) {
  Simulation<2> sim(periodic_config());
  add_thermal_electrons(sim);
  MemoryObsConfig mcfg;
  mcfg.interval = 3;
  sim.enable_memory_obs(mcfg);
  sim.init();
  sim.run(7);
  // Steps are 0-based: probes at steps 0, 3 and 6.
  EXPECT_EQ(sim.profiler().stats("step/memory").count, 3);
  // A sparse cadence still leaves the accounts at the layout's exact bytes.
  EXPECT_EQ(obs::memory_ledger().current_prefix("particles"), 196608);
  EXPECT_EQ(obs::memory_ledger().total_current(), 362496);
}

TEST(MemorySmoke, MeasuredMrSavingsAgreesWithAnalyticModel) {
  const int n = 32;
  Simulation<2> sim(periodic_config(n));
  add_thermal_electrons(sim);
  add_quarter_patch(sim, n);
  sim.enable_memory_obs();
  sim.init();
  sim.run(3);

  // Only this Simulation is alive, so the ledger's fields/mr/particles
  // prefixes describe exactly this run and the measured factor is the real
  // Fig. 6 affordability number.
  const auto measured = sim.measured_mr_savings();
  const auto analytic = obs::analytic_mr_savings(sim.mr_savings_inputs());
  EXPECT_GT(measured.factor, 1.0);
  EXPECT_GT(analytic.factor, 1.0);
  ASSERT_GT(analytic.actual_bytes, 0.0);
  // The 10% gate: any gap is instrumentation the ledger failed to cover (or
  // double-counted), not model disagreement.
  EXPECT_NEAR(measured.factor / analytic.factor, 1.0, 0.10)
      << "measured " << measured.factor << "x vs analytic " << analytic.factor
      << "x";
  EXPECT_GT(obs::memory_ledger().current_prefix("mr"), 0);
}

TEST(MemorySmoke, RemovedPatchFreesItsStorage) {
  const int n = 32;
  Simulation<2> sim(periodic_config(n));
  add_thermal_electrons(sim);
  add_quarter_patch(sim, n);
  sim.enable_memory_obs();
  sim.init();
  sim.run(2);
  ASSERT_GT(obs::memory_ledger().current_prefix("mr"), 0);
  const auto n0 = sim.total_particles();

  // remove() releases the fine, coarse, PML and aux fabs and their ledger
  // charge; the savings count the patch only while it is active.
  sim.patch()->remove();
  EXPECT_EQ(obs::memory_ledger().current_prefix("mr"), 0);
  EXPECT_DOUBLE_EQ(sim.measured_mr_savings().factor, 1.0);
  EXPECT_DOUBLE_EQ(obs::analytic_mr_savings(sim.mr_savings_inputs()).factor, 1.0);

  // The next step runs on level 0 alone.
  sim.run(1);
  EXPECT_EQ(sim.step_count(), 3);
  EXPECT_EQ(sim.species_patch(0).total_particles(), 0);
  EXPECT_EQ(sim.total_particles(), n0);
  EXPECT_EQ(obs::memory_ledger().current_prefix("mr"), 0);
}

TEST(MemorySmoke, RankResidentLanesSumToLedgerTotal) {
  const int n = 32;
  auto cfg = periodic_config(n);
  cfg.nranks = 4;
  Simulation<2> sim(cfg);
  add_thermal_electrons(sim);
  add_quarter_patch(sim, n);
  sim.enable_cluster_obs();
  sim.enable_memory_obs();
  sim.init();
  sim.run(4);

  // Every byte in the ledger is attributed to some rank: the model assigns
  // fields/particles to their owning ranks, the MR surcharge to the patch's
  // host rank, and spreads the unattributed remainder, so the lanes sum to
  // the ledger total exactly.
  const auto& lanes = sim.last_rank_resident_bytes();
  ASSERT_EQ(lanes.size(), 4u);
  const std::int64_t sum = std::accumulate(lanes.begin(), lanes.end(),
                                           std::int64_t(0));
  EXPECT_EQ(sum, obs::memory_ledger().total_current());
  for (const auto b : lanes) { EXPECT_GT(b, 0); }

  // The recorder carries the lane per step and exports the heatmap.
  ASSERT_FALSE(sim.rank_recorder().steps().empty());
  EXPECT_EQ(sim.rank_recorder().steps().back().ranks.at(0).resident_bytes,
            lanes[0]);
  const std::string path = "test_memory_heatmap_tmp.csv";
  ASSERT_TRUE(sim.rank_recorder().write_memory_heatmap_csv(path));
  std::ifstream is(path);
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header,
            "step,rank,boxes,resident_bytes,step_total_bytes,step_max_bytes,"
            "mem_imbalance");
  int rows = 0;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) { ++rows; }
  }
  is.close();
  std::remove(path.c_str());
  EXPECT_EQ(rows, 4 * 4); // 4 recorded steps x 4 ranks

  // The OOM prediction runs off the same lanes: a budget below the peak
  // names the first offending (step, rank), a roomy one reports headroom.
  const auto peak = *std::max_element(lanes.begin(), lanes.end());
  const auto oom =
      obs::predict_first_oom(sim.rank_recorder(), 0.5 * static_cast<double>(peak));
  EXPECT_TRUE(oom.predicted);
  EXPECT_GE(oom.peak_bytes, peak);
  const auto fits =
      obs::predict_first_oom(sim.rank_recorder(), 1e12);
  EXPECT_FALSE(fits.predicted);
  EXPECT_GT(fits.headroom, 1.0);
}

TEST(MemorySmoke, BudgetBoundRuleFiresCheckpointThenAbort) {
  // OOM guard-rail drill: a runaway allocation (simulated as a pure ledger
  // surcharge — no real memory is touched) pushes mem_total_bytes over the
  // budget rule; the watchdog must checkpoint-now and abort the run while
  // the "allocation" is still only a ledger number.
  Simulation<2> sim(periodic_config());
  add_thermal_electrons(sim);
  sim.enable_memory_obs();

  health::MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  // 1 GiB budget: orders of magnitude above the real 32^2 footprint, far
  // below the simulated surcharge.
  hcfg.watchdog.bounds.push_back({"mem_total_bytes", 0.0, 1.0 * (1 << 30),
                                  health::Severity::Critical,
                                  {/*checkpoint=*/true, /*abort=*/true}});
  sim.enable_health(hcfg);

  resil::CheckpointPolicyConfig pcfg;
  pcfg.mode = resil::CheckpointMode::Periodic;
  pcfg.interval_steps = 1000000; // only the health action can trigger a write
  int writes = 0;
  sim.set_checkpoint_policy(resil::CheckpointPolicy(pcfg),
                            [&](Simulation<2>&) {
                              ++writes;
                              return true;
                            });

  std::optional<obs::MemCharge> surcharge;
  sim.set_step_callback([&](const obs::StepReport& r) {
    if (r.step == 2 && !surcharge) {
      surcharge.emplace("memtest.oom_surcharge");
      surcharge->update(std::int64_t(4) << 30); // 4 GiB, ledger-only
    }
  });

  sim.init();
  bool aborted = false;
  try {
    sim.run(10);
  } catch (const health::AbortError& e) {
    aborted = true;
    EXPECT_EQ(e.alert().severity, health::Severity::Critical);
    EXPECT_EQ(e.alert().quantity, "mem_total_bytes");
    EXPECT_GT(e.alert().value, 1.0 * (1 << 30));
  }
  ASSERT_TRUE(aborted);
  // Surcharged at the end of step 2, observed by step 3's memory probe and
  // killed by the same step's health evaluation: exactly four steps ran.
  EXPECT_EQ(sim.step_count(), 4);
  EXPECT_EQ(writes, 1); // checkpoint-now fired despite the huge interval
  surcharge.reset();
  EXPECT_EQ(obs::memory_ledger().current("memtest.oom_surcharge"), 0);
}

TEST(MemorySmoke, HighWaterCarriesAcrossIncarnationsUnlessReset) {
  auto& ledger = obs::memory_ledger();
  std::int64_t campaign_peak = 0;
  {
    // Incarnation 1: the "pre-crash" run, deliberately the larger one.
    Simulation<2> big(periodic_config(32));
    add_thermal_electrons(big);
    big.enable_memory_obs();
    big.init();
    big.run(2);
    campaign_peak = ledger.total_high_water();
    EXPECT_GE(campaign_peak, ledger.total_current());
  }
  // The incarnation died; its bytes drained but the mark survives — this is
  // the documented default, so a resil crash -> shrink -> replay campaign
  // reports the worst footprint it ever had.
  EXPECT_EQ(ledger.total_high_water(), campaign_peak);

  {
    // Incarnation 2: the post-shrink replay on a smaller footprint. It never
    // exceeds the old peak, so carry-over keeps the campaign mark.
    Simulation<2> small(periodic_config(16));
    add_thermal_electrons(small);
    small.enable_memory_obs();
    small.init();
    small.run(2);
    EXPECT_EQ(ledger.total_high_water(), campaign_peak);
    EXPECT_LT(ledger.total_current(), campaign_peak);

    // Opt-in per-incarnation peaks: reset restarts the marks from the live
    // occupancy of *this* incarnation.
    ledger.reset_high_water();
    EXPECT_EQ(ledger.total_high_water(), ledger.total_current());
    EXPECT_LT(ledger.total_high_water(), campaign_peak);
    EXPECT_EQ(ledger.total_charged() - ledger.total_released(),
              ledger.total_current());
  }
}

} // namespace
} // namespace mrpic::core
