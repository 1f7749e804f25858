// The mrpic_run driver's perf report: one report per run, opening with the
// profiler's measured time, with the observers' costs as rows of that table
// and the kernel roofline on every run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/run_manifest.hpp"
#include "src/scenario/driver.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic {
namespace {

std::string unique_dir(const std::string& base) {
  return base + "_" + std::to_string(static_cast<long>(::getpid()));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// The health, insitu and memory probes cost what their profiler regions
// measured: each is a row in `step` equal to the profiler's flat total.
TEST(DriverReport, ObserverRowsEqualProfilerTotals) {
  const std::string dir = unique_dir("test_driver_report_observers");
  std::filesystem::remove_all(dir);
  const auto spec = scenario::ScenarioRegistry::instance().make("quickstart");
  scenario::RunOptions opt;
  opt.steps = 6;
  opt.health = opt.insitu = opt.memory = true;
  const diag::OutputDir out(dir);
  {
    scenario::RunTelemetry tel(spec, opt, out);
    auto sim = scenario::build_observed_simulation(spec, opt, out, tel);
    sim->run(opt.steps);

    const auto t = obs::time_breakdown(sim->profiler());
    const auto flat = sim->profiler().flat_totals();
    for (const char* probe : {"health", "insitu", "memory"}) {
      bool found = false;
      for (const auto& r : t.regions) {
        if (r.region != probe) { continue; }
        found = true;
        EXPECT_EQ(r.parent, "step") << probe;
        EXPECT_EQ(r.seconds, flat.at(probe).inclusive_s) << probe;
        EXPECT_EQ(r.count, flat.at(probe).count) << probe;
        EXPECT_GT(r.seconds, 0.0) << probe;
      }
      EXPECT_TRUE(found) << probe;
      EXPECT_EQ(t.seconds(probe), flat.at(probe).inclusive_s) << probe;
    }
  }
  std::filesystem::remove_all(dir);
}

// Every driver report opens with "## Where the time went" and holds
// "## Kernel headroom" as its only roofline; the recorder dump is gone.
TEST(DriverReport, OpensWithMeasuredTimeAndOneRoofline) {
  const std::string dir = unique_dir("test_driver_report_files");
  std::filesystem::remove_all(dir);
  scenario::RunOptions opt;
  opt.steps = 6;
  opt.run_id = "report-probe";
  ASSERT_EQ(scenario::run_scenario(scenario::ScenarioRegistry::instance().make("quickstart"),
                                   opt, diag::OutputDir(dir)),
            0);

  const std::string md = read_file(dir + "/quickstart_perf_report.md");
  EXPECT_EQ(md.find("## "), md.find("## Where the time went"));
  EXPECT_NE(md.find("## Kernel headroom"), std::string::npos);
  EXPECT_NE(md.find("| gather | particles |"), std::string::npos);
  EXPECT_NE(md.find("Modelled, not measured"), std::string::npos);
  EXPECT_EQ(md.find("## Roofline attribution"), std::string::npos);

  const auto doc = obs::json::parse(read_file(dir + "/quickstart_perf_report.json"));
  EXPECT_FALSE(doc.has("roofline"));
  EXPECT_FALSE(doc.has("machine"));
  EXPECT_TRUE(doc.has("kernel_headroom"));
  ASSERT_TRUE(doc["time"].is_object());
  EXPECT_EQ(doc["time"]["steps"].as_int(), 6);
  const auto& regions = doc["time"]["regions"].as_array();
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(regions.front()["region"].as_string(), "step");
  EXPECT_DOUBLE_EQ(regions.front()["ms_per_step"].as_number(),
                   doc["time"]["step_s"].as_number() / 6 * 1e3);
  double in_step = 0;
  for (const auto& r : regions) {
    if (r["parent"].as_string() == "step") { in_step += r["seconds"].as_number(); }
  }
  EXPECT_NEAR(in_step, doc["time"]["step_s"].as_number(), 1e-12);

  EXPECT_FALSE(std::filesystem::exists(dir + "/quickstart_ranks.json"));
  const obs::RunManifest m = obs::read_manifest(dir + "/run.json");
  for (const auto& a : m.artifacts) { EXPECT_NE(a.name, "ranks"); }
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mrpic
