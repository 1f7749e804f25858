// Campaign-telemetry acceptance gates (ISSUE 10).
//
// CampaignSmoke.*: three heterogeneous runs through the real scenario
// driver — two completed quickstart runs with different flag sets and one
// health-watchdog-aborted run — land in one campaign directory; every
// run.json validates, the heartbeat and timeline artifacts exist, and the
// aggregator joins the lot into a report whose counts, manifests-valid
// verdict and failed-run triage are all checked.
//
// EventTimeline.*: one simulation wired to a single obs::EventLog must
// produce a timeline holding all four producer categories — lifecycle
// (init), health (watchdog alert), resil (automatic checkpoint), rebalance
// (load-balancer remap) — with seq strictly increasing and wall_s
// nondecreasing in disk order (the ordering contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include <unistd.h>

#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/health/monitor.hpp"
#include "src/obs/campaign.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/json.hpp"
#include "src/obs/run_manifest.hpp"
#include "src/plasma/plasma_injector.hpp"
#include "src/resil/checkpoint_policy.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/driver.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic {
namespace {

// The aggregate campaign_smoke ctest and the gtest-discovered CampaignSmoke.*
// and EventTimeline.* tests run this same code concurrently in one working
// directory; a per-pid tag keeps their artifact files from clobbering each
// other.
std::string unique_tag(const std::string& base) {
  return base + "_" + std::to_string(static_cast<long>(::getpid()));
}

TEST(CampaignSmoke, ThreeHeterogeneousRunsAggregateEndToEnd) {
  const std::string camp = unique_tag("test_campaign_smoke");
  std::filesystem::remove_all(camp);

  auto& reg = scenario::ScenarioRegistry::instance();
  const scenario::ScenarioSpec quickstart = reg.make("quickstart");

  // Run 1: plain quickstart, a handful of steps.
  {
    scenario::RunOptions opt;
    opt.steps = 8;
    opt.run_id = "smoke-plain";
    EXPECT_EQ(scenario::run_scenario(quickstart, opt, diag::OutputDir(camp + "/run_plain")),
              0);
  }
  // Run 2: the full observability flag set at a non-default heartbeat cadence.
  {
    scenario::RunOptions opt;
    opt.steps = 8;
    opt.health = true;
    opt.insitu = true;
    opt.heartbeat = 2;
    opt.run_id = "smoke-obs";
    EXPECT_EQ(scenario::run_scenario(quickstart, opt, diag::OutputDir(camp + "/run_obs")),
              0);
  }
  // Run 3: a health bound rule that cannot hold (num_particles <= 0) fires
  // Critical+abort on the first probe; the driver must exit nonzero and the
  // manifest must say "aborted".
  {
    scenario::ScenarioSpec doomed = quickstart;
    doomed.name = "quickstart_doomed";
    doomed.output_prefix = "doomed";
    doomed.health.log_to_stderr = false;
    doomed.health.watchdog.bounds.push_back({"num_particles", 0.0, 0.0,
                                             health::Severity::Critical,
                                             {/*checkpoint=*/false, /*abort=*/true}});
    scenario::RunOptions opt;
    opt.steps = 8;
    opt.health = true;
    opt.run_id = "smoke-aborted";
    EXPECT_EQ(scenario::run_scenario(doomed, opt, diag::OutputDir(camp + "/run_aborted")),
              1);
  }

  // Every run directory carries the telemetry trio.
  for (const char* run : {"run_plain", "run_obs", "run_aborted"}) {
    const std::string dir = camp + "/" + run;
    EXPECT_TRUE(std::filesystem::exists(dir + "/run.json")) << run;
    EXPECT_TRUE(std::filesystem::exists(dir + "/progress.json")) << run;
  }

  // Aggregate: all three manifests validate, statuses and scenarios join,
  // the aborted run surfaces in the triage with its watchdog reason.
  const obs::CampaignReport rep = obs::scan_campaign(camp);
  EXPECT_EQ(rep.runs_total(), 3);
  EXPECT_EQ(rep.runs_valid(), 3);
  EXPECT_EQ(rep.runs_with_status(obs::kRunStatusCompleted), 2);
  EXPECT_EQ(rep.runs_with_status(obs::kRunStatusAborted), 1);
  EXPECT_EQ(rep.scenarios.size(), 2u);  // quickstart + quickstart_doomed

  std::set<std::string> run_ids;
  for (const auto& r : rep.runs) {
    run_ids.insert(r.manifest.run_id);
    EXPECT_TRUE(r.manifest_ok) << r.dir;
    EXPECT_TRUE(r.events_monotone) << r.dir;
    EXPECT_GT(r.num_events, 0) << r.dir;
    EXPECT_GT(r.metrics_records, 0) << r.dir;
    EXPECT_FALSE(r.manifest.spec_digest.empty()) << r.dir;
  }
  EXPECT_EQ(run_ids,
            (std::set<std::string>{"smoke-plain", "smoke-obs", "smoke-aborted"}));

  const obs::RunSummary* aborted = nullptr;
  for (const auto& r : rep.runs) {
    if (r.manifest.status == obs::kRunStatusAborted) { aborted = &r; }
  }
  ASSERT_NE(aborted, nullptr);
  EXPECT_EQ(aborted->manifest.run_id, "smoke-aborted");
  EXPECT_EQ(aborted->manifest.exit_code, 1);
  EXPECT_FALSE(aborted->manifest.reason.empty());
  EXPECT_GT(aborted->num_critical, 0);
  // The completed runs' spec digests agree (same spec), the doomed one's
  // differs (different name -> different workload identity).
  EXPECT_EQ(rep.runs[1].manifest.spec_digest, rep.runs[2].manifest.spec_digest)
      << "both quickstart runs";
  EXPECT_NE(aborted->manifest.spec_digest, rep.runs[1].manifest.spec_digest);

  // The rendered report carries the CI-grepped section and the triage.
  std::ostringstream md;
  obs::write_campaign_markdown(rep, md);
  EXPECT_NE(md.str().find("## Campaign"), std::string::npos);
  EXPECT_NE(md.str().find("smoke-aborted"), std::string::npos);

  std::filesystem::remove_all(camp);
}

TEST(CampaignSmoke, ManifestRecordsFlagsAndArtifactInventory) {
  const std::string dir = unique_tag("test_campaign_manifest_run");
  std::filesystem::remove_all(dir);
  auto& reg = scenario::ScenarioRegistry::instance();

  scenario::RunOptions opt;
  opt.steps = 6;
  opt.insitu = true;
  opt.run_id = "inventory-probe";
  ASSERT_EQ(scenario::run_scenario(reg.make("quickstart"), opt, diag::OutputDir(dir)), 0);

  const obs::RunManifest m = obs::read_manifest(dir + "/run.json");
  EXPECT_EQ(m.run_id, "inventory-probe");
  EXPECT_EQ(m.status, obs::kRunStatusCompleted);
  EXPECT_EQ(m.steps_done, 6);
  EXPECT_GT(m.num_events, 0);
  // Normalized flags are recorded for reproducibility.
  EXPECT_NE(std::find(m.flags.begin(), m.flags.end(), "--steps 6"), m.flags.end());
  EXPECT_NE(std::find(m.flags.begin(), m.flags.end(), "--insitu"), m.flags.end());
  // Written artifacts stat to positive sizes; the inventory names the trio.
  std::set<std::string> names;
  for (const auto& a : m.artifacts) {
    names.insert(a.name);
    if (a.name == "events" || a.name == "metrics" || a.name == "insitu") {
      EXPECT_GT(a.bytes, 0) << a.name;
    }
  }
  EXPECT_TRUE(names.count("events"));
  EXPECT_TRUE(names.count("progress"));
  EXPECT_TRUE(names.count("metrics"));
  EXPECT_TRUE(names.count("insitu"));
  std::filesystem::remove_all(dir);
}

TEST(EventTimeline, AllProducerCategoriesArriveInOrder) {
  const std::string path = unique_tag("test_event_timeline") + ".jsonl";
  std::remove(path.c_str());

  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(31, 31));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(32e-7, 32e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = IntVect2(16);
  cfg.shape_order = 2;
  core::Simulation<2> sim(cfg);
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(1e24);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);

  obs::EventLogConfig ecfg;
  ecfg.path = path;
  obs::EventLog elog(ecfg);
  sim.enable_event_log(&elog);
  elog.publish("lifecycle", "run_start", obs::EventSeverity::Info, -1);

  // Health: a Warn bound that always trips (num_particles >= 1e18 required).
  health::MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.watchdog.bounds.push_back(
      {"num_particles", 1e18, std::numeric_limits<double>::infinity(),
       health::Severity::Warn,
       {/*checkpoint=*/false, /*abort=*/false}});
  sim.enable_health(hcfg);

  // Resil: periodic automatic checkpoints every 2 steps.
  resil::CheckpointPolicyConfig ccfg;
  ccfg.mode = resil::CheckpointMode::Periodic;
  ccfg.interval_steps = 2;
  sim.set_checkpoint_policy(resil::CheckpointPolicy(ccfg),
                            [](core::Simulation<2>&) { return true; });

  sim.init();  // publishes lifecycle/init
  sim.run(5);

  // Rebalance: a remap snapshot through the same recorder seam the load
  // balancer uses (count_rebalance -> RankRecorder::add_rebalance).
  obs::RebalanceRecord rb;
  rb.step = sim.step_count();
  rb.rank_cost_before = {3.0, 1.0};
  rb.rank_cost_after = {2.0, 2.0};
  rb.imbalance_before = 1.5;
  rb.imbalance_after = 1.0;
  sim.rank_recorder().add_rebalance(rb);

  elog.publish("lifecycle", "run_end", obs::EventSeverity::Info, sim.step_count());

  std::size_t skipped = 0;
  const auto events = obs::EventLog::read_events_jsonl(path, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_GE(events.size(), 5u);

  // The ordering contract: seq strictly increasing AND wall_s nondecreasing
  // in disk order.
  std::set<std::string> categories;
  for (std::size_t i = 0; i < events.size(); ++i) {
    categories.insert(events[i].category);
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
      EXPECT_GE(events[i].wall_s, events[i - 1].wall_s);
    }
  }
  EXPECT_TRUE(categories.count("lifecycle"));
  EXPECT_TRUE(categories.count("health"));
  EXPECT_TRUE(categories.count("resil"));
  EXPECT_TRUE(categories.count("rebalance"));

  // Spot-check each producer's payload made it through the funnel.
  bool saw_init = false, saw_alert = false, saw_ckpt = false, saw_remap = false;
  for (const auto& ev : events) {
    if (ev.category == "lifecycle" && ev.kind == "init") { saw_init = true; }
    if (ev.category == "health" && ev.kind == "alert") {
      saw_alert = true;
      EXPECT_EQ(ev.severity, obs::EventSeverity::Warn);
    }
    if (ev.category == "resil" && ev.kind == "checkpoint") { saw_ckpt = true; }
    if (ev.category == "rebalance" && ev.kind == "remap") {
      saw_remap = true;
      EXPECT_DOUBLE_EQ(ev.value("imbalance_before"), 1.5);
      EXPECT_DOUBLE_EQ(ev.value("imbalance_after"), 1.0);
    }
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_alert);
  EXPECT_TRUE(saw_ckpt);
  EXPECT_TRUE(saw_remap);
  std::remove(path.c_str());
}

} // namespace
} // namespace mrpic
