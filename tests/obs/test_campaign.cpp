#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/insitu/registry.hpp"
#include "src/obs/campaign.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/run_manifest.hpp"

namespace mrpic::obs {
namespace {

// One synthetic run directory through the production writers, as the
// scenario driver lays it out: run.json + events JSONL + metrics JSONL.
void make_run(const std::string& dir, const std::string& scenario,
              const std::string& status, const std::vector<double>& step_wall_s,
              bool critical) {
  std::filesystem::create_directories(dir);
  const std::string pfx = dir + "/" + scenario;

  EventLogConfig ecfg;
  ecfg.path = pfx + "_events.jsonl";
  EventLog elog(ecfg);
  elog.publish("lifecycle", "run_start", EventSeverity::Info, -1, scenario);
  if (critical) {
    elog.publish("health", "alert", EventSeverity::Critical, 3, "blown up");
    elog.publish("lifecycle", "abort", EventSeverity::Critical, 3, "blown up");
  } else {
    elog.publish("lifecycle", "run_end", EventSeverity::Info,
                 std::int64_t(step_wall_s.size()), status);
  }

  MetricsRegistry reg;
  for (std::size_t i = 0; i < step_wall_s.size(); ++i) {
    reg.begin_step(std::int64_t(i));
    reg.gauge("step_wall_s").set(step_wall_s[i]);
    reg.gauge("health_energy_drift_rate").set(3e-9);
    reg.end_step();
  }
  reg.write_jsonl(pfx + "_metrics.jsonl");

  {
    insitu::Registry ireg;
    ireg.open_series(pfx + "_insitu.jsonl");
    ireg.add("beam", 1,
             [](insitu::Record& r) { r.set("emit_ny_m_rad", 2.5e-7); });
    ireg.collect(std::int64_t(step_wall_s.size()), 1e-15, /*force=*/true);
  }

  RunManifest m;
  m.run_id = std::filesystem::path(dir).filename().string();
  m.scenario = scenario;
  m.status = status;
  m.exit_code = status == kRunStatusCompleted ? 0 : 1;
  m.reason = critical ? "blown up" : "";
  m.start_unix = 1754600000;
  m.end_unix = 1754600010;
  m.steps_done = std::int64_t(step_wall_s.size());
  m.sim_time_s = 1e-15;
  m.num_events = elog.num_events();
  fill_build_info(m);
  m.artifacts.push_back({"events", scenario + "_events.jsonl", -1});
  m.artifacts.push_back({"metrics", scenario + "_metrics.jsonl", -1});
  m.artifacts.push_back({"insitu", scenario + "_insitu.jsonl", -1});
  ASSERT_TRUE(write_manifest_atomic(m, dir + "/run.json"));
}

TEST(Campaign, PercentileNearestRank) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_DOUBLE_EQ(percentile({3.0}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 99), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1), 1.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) { hundred.push_back(i); }
  EXPECT_DOUBLE_EQ(percentile(hundred, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 100), 100.0);
}

TEST(Campaign, SummarizeJoinsRunArtifacts) {
  const std::string dir = "test_campaign_one/run_a";
  std::filesystem::remove_all("test_campaign_one");
  make_run(dir, "lwfa", kRunStatusCompleted, {0.001, 0.002, 0.003, 0.004}, false);

  const RunSummary rs = summarize_run_dir(dir);
  EXPECT_TRUE(rs.manifest_found);
  EXPECT_TRUE(rs.manifest_ok) << (rs.errors.empty() ? "" : rs.errors.front());
  EXPECT_EQ(rs.manifest.scenario, "lwfa");
  EXPECT_EQ(rs.metrics_records, 4);
  EXPECT_DOUBLE_EQ(rs.step_p50_s, 0.002);
  EXPECT_DOUBLE_EQ(rs.step_p99_s, 0.004);
  EXPECT_DOUBLE_EQ(rs.energy_drift_rate, 3e-9);
  EXPECT_DOUBLE_EQ(rs.emit_ny_m_rad, 2.5e-7);
  EXPECT_TRUE(std::isnan(rs.peak_energy_J));  // no spectrum diag in the run
  EXPECT_EQ(rs.num_events, 2);
  EXPECT_EQ(rs.num_critical, 0);
  EXPECT_TRUE(rs.events_monotone);
  std::filesystem::remove_all("test_campaign_one");
}

TEST(Campaign, MissingAndInvalidManifestsAreReportedNotFatal) {
  std::filesystem::remove_all("test_campaign_bad");
  std::filesystem::create_directories("test_campaign_bad/empty_run");
  const RunSummary missing = summarize_run_dir("test_campaign_bad/empty_run");
  EXPECT_FALSE(missing.manifest_found);
  EXPECT_FALSE(missing.manifest_ok);
  EXPECT_FALSE(missing.errors.empty());

  std::filesystem::create_directories("test_campaign_bad/corrupt_run");
  { std::ofstream("test_campaign_bad/corrupt_run/run.json") << "{{{not json"; }
  const RunSummary corrupt = summarize_run_dir("test_campaign_bad/corrupt_run");
  EXPECT_TRUE(corrupt.manifest_found);
  EXPECT_FALSE(corrupt.manifest_ok);

  std::filesystem::create_directories("test_campaign_bad/foreign_run");
  {
    std::ofstream("test_campaign_bad/foreign_run/run.json")
        << "{\"schema\": \"mrpic.metrics.v1\"}";
  }
  EXPECT_FALSE(summarize_run_dir("test_campaign_bad/foreign_run").manifest_ok);
  std::filesystem::remove_all("test_campaign_bad");
}

TEST(Campaign, OutOfOrderTimelineIsFlagged) {
  const std::string dir = "test_campaign_order/run_x";
  std::filesystem::remove_all("test_campaign_order");
  make_run(dir, "demo", kRunStatusCompleted, {0.001}, false);

  // Append an event whose seq runs backwards: the join must flag it.
  Event bad;
  bad.seq = 0;
  bad.step = 9;
  bad.wall_s = 99.0;
  bad.category = "resil";
  bad.kind = "crash";
  {
    std::ofstream os(dir + "/demo_events.jsonl", std::ios::app);
    os << EventLog::event_line(bad) << '\n';
  }
  const RunSummary rs = summarize_run_dir(dir);
  EXPECT_TRUE(rs.manifest_ok);
  EXPECT_FALSE(rs.events_monotone);
  std::filesystem::remove_all("test_campaign_order");
}

TEST(Campaign, TornInsituSeriesKeepsBeamSummary) {
  const std::string camp = "test_campaign_torn";
  std::filesystem::remove_all(camp);
  make_run(camp + "/run_killed", "lwfa", kRunStatusCompleted, {0.001, 0.002}, false);
  {
    // A spectrum record, then the torn line a killed run leaves behind.
    std::ofstream os(camp + "/run_killed/lwfa_insitu.jsonl", std::ios::app);
    os << R"({"diag":"spectrum","step":2,"time":1e-15,"values":{"peak_energy_J":3.2e-12}})"
       << '\n';
    os << R"({"diag":"beam","step":3,"time":2e-15,"val)";
  }
  const CampaignReport rep = scan_campaign(camp);
  ASSERT_EQ(rep.runs.size(), 1u);
  const RunSummary& rs = rep.runs[0];
  EXPECT_DOUBLE_EQ(rs.peak_energy_J, 3.2e-12);
  EXPECT_DOUBLE_EQ(rs.emit_ny_m_rad, 2.5e-7);
  for (const auto& e : rs.errors) { EXPECT_EQ(e.rfind("insitu:", 0), std::string::npos) << e; }
  std::filesystem::remove_all(camp);
}

TEST(Campaign, ScanAggregatesAndRenders) {
  const std::string camp = "test_campaign_scan";
  std::filesystem::remove_all(camp);
  make_run(camp + "/run_lwfa_1", "lwfa", kRunStatusCompleted,
           {0.001, 0.002, 0.003, 0.004}, false);
  make_run(camp + "/run_lwfa_2", "lwfa", kRunStatusCompleted,
           {0.002, 0.004, 0.006, 0.008}, false);
  make_run(camp + "/run_target_1", "target", kRunStatusAborted, {0.01, 0.02},
           true);
  // A stray non-run directory must be ignored, not break the scan.
  std::filesystem::create_directories(camp + "/not_a_run");

  const CampaignReport rep = scan_campaign(camp);
  EXPECT_EQ(rep.runs_total(), 3);
  EXPECT_EQ(rep.runs_valid(), 3);
  EXPECT_EQ(rep.runs_with_status(kRunStatusCompleted), 2);
  EXPECT_EQ(rep.runs_with_status(kRunStatusAborted), 1);
  EXPECT_EQ(rep.runs_with_status(kRunStatusFailed), 0);

  ASSERT_EQ(rep.scenarios.size(), 2u);
  const ScenarioStats& lwfa = rep.scenarios[0];
  EXPECT_EQ(lwfa.scenario, "lwfa");
  EXPECT_EQ(lwfa.runs, 2);
  EXPECT_EQ(lwfa.completed, 2);
  EXPECT_EQ(lwfa.step_samples, 8);
  // Pooled samples: {1,2,2,3,4,4,6,8} ms -> nearest-rank p50 = 3 ms.
  EXPECT_DOUBLE_EQ(lwfa.step_p50_s, 0.003);
  EXPECT_DOUBLE_EQ(lwfa.step_p99_s, 0.008);
  EXPECT_EQ(rep.scenarios[1].scenario, "target");
  EXPECT_EQ(rep.scenarios[1].aborted, 1);

  // The aborted run carries its critical events into the triage.
  const RunSummary* aborted = nullptr;
  for (const auto& r : rep.runs) {
    if (r.manifest.status == kRunStatusAborted) { aborted = &r; }
  }
  ASSERT_NE(aborted, nullptr);
  EXPECT_EQ(aborted->num_critical, 2);
  EXPECT_FALSE(aborted->triage.empty());

  std::ostringstream md;
  write_campaign_markdown(rep, md);
  const std::string text = md.str();
  EXPECT_NE(text.find("## Campaign"), std::string::npos);
  EXPECT_NE(text.find("## Runs"), std::string::npos);
  EXPECT_NE(text.find("## Failed-run triage"), std::string::npos);
  EXPECT_NE(text.find("blown up"), std::string::npos);

  std::ostringstream js;
  write_campaign_json(rep, js);
  const auto doc = json::parse(js.str());
  EXPECT_EQ(doc["schema"].as_string(), kCampaignSchema);
  EXPECT_EQ(doc["runs"].as_array().size(), 3u);
  EXPECT_EQ(doc["scenarios"].as_array().size(), 2u);

  EXPECT_THROW(scan_campaign("no_such_campaign_dir"), std::runtime_error);
  std::filesystem::remove_all(camp);
}

} // namespace
} // namespace mrpic::obs
