#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/obs/bench_diff.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/profiler.hpp"

namespace mrpic::obs {
namespace {

// Two ranks, `steps` steps, one inter-rank message per step, plus a
// rebalance and a fault event.
RankRecorder make_recorder(std::int64_t steps = 2) {
  RankRecorder rec(2);
  for (std::int64_t s = 0; s < steps; ++s) {
    RankStepBreakdown bd;
    bd.step = s;
    bd.ranks.resize(2);
    for (int r = 0; r < 2; ++r) {
      bd.ranks[r].rank = r;
      bd.ranks[r].compute_s = r == 0 ? 3e-3 : 1e-3;
      bd.ranks[r].comm_s = 0.5e-3;
      bd.ranks[r].bytes_sent = r == 0 ? 1024 : 0;
      bd.ranks[r].bytes_recv = r == 0 ? 0 : 1024;
      bd.ranks[r].messages = 1;
      bd.ranks[r].boxes = 2;
    }
    // Retry time is part of comm_s by construction (SimCluster charges the
    // protocol overhead into the rank's halo time), so rank 1 is the
    // comm-critical rank and the resil term is attributed to it.
    bd.ranks[1].retry_s = 1e-5;
    bd.ranks[1].comm_s += 1e-5;
    bd.ranks[1].retries = 1;
    HaloMessage msg;
    msg.src_rank = 0;
    msg.dst_rank = 1;
    msg.src_box = 0;
    msg.dst_box = 2;
    msg.bytes = 1024;
    msg.latency_s = 2e-6;
    msg.transfer_s = 1e-7;
    msg.attempts = 2;
    msg.retry_s = 1e-5;
    rec.set_step(s);
    rec.add_step(bd, {msg});
  }
  RebalanceRecord rb;
  rb.step = 1;
  rb.rank_cost_before = {4.0, 1.0};
  rb.rank_cost_after = {2.5, 2.5};
  rb.imbalance_before = 1.6;
  rb.imbalance_after = 1.0;
  rec.add_rebalance(rb);
  FaultEvent ev;
  ev.step = 1;
  ev.kind = "slowdown";
  ev.rank = 1;
  ev.time_s = 1e-4;
  ev.detail = "rank 1 of 2";
  rec.add_fault_event(ev);
  return rec;
}

TEST(PerfReport, BuildExtractsPathsAndOverheads) {
  PerfReportOptions opt;
  opt.title = "unit";
  opt.latency_s = 2e-6;
  const auto report = build_perf_report(make_recorder(), opt);
  EXPECT_EQ(report.nranks, 2);
  ASSERT_EQ(report.paths.size(), 2u);
  ASSERT_EQ(report.step_overhead.size(), 2u);
  EXPECT_EQ(report.summary.steps, 2);
  for (const auto& t : report.step_overhead) {
    EXPECT_NEAR(t.invariant_gap(), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(t.residual, 0.0);
    EXPECT_GT(t.resil, 0.0); // the injected retry shows up
  }
  // Worst-step order is by descending makespan.
  const auto order = report.worst_steps();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_GE(report.paths[std::size_t(order[0])].makespan_s,
            report.paths[std::size_t(order[1])].makespan_s);
}

TEST(PerfReport, JsonValidatesAgainstAttributionSchema) {
  const auto report = build_perf_report(make_recorder());
  std::ostringstream os;
  write_json(report, os);
  const auto doc = json::parse(os.str());
  EXPECT_EQ(doc["bench"].as_string(), "attribution");
  const auto errors = benchdiff::validate_schema(doc);
  for (const auto& e : errors) { ADD_FAILURE() << e; }
  // Loss records carry the invariant gap for the regression gate.
  ASSERT_TRUE(doc["loss"].is_array());
  for (const auto& rec : doc["loss"].as_array()) {
    EXPECT_LT(std::abs(rec["invariant_gap"].as_number()), 1e-9);
  }
  ASSERT_TRUE(doc["critical_path"].is_array());
  EXPECT_TRUE(doc["critical_path"].as_array()[0]["rank_chain"].is_array());
  EXPECT_TRUE(doc["stragglers"].is_array());
}

TEST(PerfReport, MarkdownNamesChainAndComposition) {
  PerfReportOptions opt;
  opt.title = "md unit";
  const auto report = build_perf_report(make_recorder(), opt);
  std::ostringstream os;
  write_markdown(report, os);
  const std::string md = os.str();
  EXPECT_NE(md.find("# md unit"), std::string::npos);
  EXPECT_NE(md.find("Critical-path composition"), std::string::npos);
  EXPECT_NE(md.find("Straggler ranks"), std::string::npos);
  EXPECT_NE(md.find("0 -> 1"), std::string::npos); // the rank chain
  // The top-k table carries each step's overhead split, plus the median.
  EXPECT_NE(md.find("| efficiency | imbalance | rank chain |"), std::string::npos);
  EXPECT_NE(md.find(" (p50) |"), std::string::npos);
  EXPECT_EQ(md.find("Per-step parallel overhead"), std::string::npos);
  // A recorder-only report carries no measured section and says the rest
  // is modelled.
  EXPECT_NE(md.find("Modelled, not measured"), std::string::npos);
  EXPECT_EQ(md.find("## Where the time went"), std::string::npos);
  EXPECT_EQ(md.find("## Kernel headroom"), std::string::npos);
}

// The Markdown lists the worst steps and the median, never every step, so
// its size does not grow with the step count; the JSON keeps every step.
TEST(PerfReport, MarkdownStaysBoundedAt2000Steps) {
  Profiler prof;
  for (int i = 0; i < 2000; ++i) {
    auto step = prof.scope("step");
    auto particles = prof.scope("particles");
    for (const char* kernel : {"gather", "push", "deposit"}) { auto t = prof.scope(kernel); }
  }
  auto report = build_perf_report(make_recorder(2000));
  report.time = time_breakdown(prof);
  report.kernel = summarize_kernels(prof, 2000, 2, 2, perf::machine_by_name("Summit"));
  std::ostringstream md;
  write_markdown(report, md);
  EXPECT_LE(md.str().size(), 20u * 1024u);
  EXPECT_NE(md.str().find("## Where the time went"), std::string::npos);
  EXPECT_NE(md.str().find("## Kernel headroom"), std::string::npos);

  std::ostringstream js;
  write_json(report, js);
  const auto doc = json::parse(js.str());
  EXPECT_EQ(doc["critical_path"].as_array().size(), 2000u);
  EXPECT_EQ(doc["loss"].as_array().size(), 2000u);
}

// "## Where the time went" walks the profiler's tree: step, its regions
// (each followed by its own sub-regions), the step's unattributed time,
// then the other roots. The rows in `step` sum to `step`.
TEST(PerfReport, TimeBreakdownFollowsProfilerTree) {
  Profiler prof;
  for (int i = 0; i < 3; ++i) {
    auto step = prof.scope("step");
    {
      auto particles = prof.scope("particles");
      for (const char* kernel : {"gather", "push", "deposit"}) { auto t = prof.scope(kernel); }
    }
    auto fields = prof.scope("field_solve");
    auto fdtd = prof.scope("fdtd");
  }
  { auto ckpt = prof.scope("checkpoint"); }

  const auto t = time_breakdown(prof);
  const auto step = prof.stats("step");
  EXPECT_EQ(t.steps, 3);
  EXPECT_EQ(t.step_s, step.inclusive_s);
  ASSERT_EQ(t.regions.size(), 9u);
  EXPECT_EQ(t.regions.front().region, "step");
  EXPECT_EQ(t.regions.front().parent, "");
  EXPECT_DOUBLE_EQ(t.regions.front().ms_per_step, step.mean_s() * 1e3);
  EXPECT_DOUBLE_EQ(t.regions.front().share, 1.0);
  EXPECT_EQ(t.regions[7].region, "step (unattributed)");
  EXPECT_EQ(t.regions[7].parent, "step");
  EXPECT_EQ(t.regions[7].count, 0);
  EXPECT_EQ(t.regions[8].region, "checkpoint");
  EXPECT_EQ(t.regions[8].parent, "");
  EXPECT_EQ(t.regions[8].count, 1);

  double in_step = 0;
  for (const auto& r : t.regions) {
    if (r.parent == "step") { in_step += r.seconds; }
    if (r.region == "gather" || r.region == "push" || r.region == "deposit") {
      EXPECT_EQ(r.parent, "particles") << r.region;
      EXPECT_EQ(r.count, 3) << r.region;
      EXPECT_EQ(r.seconds, prof.stats("step/particles/" + r.region).inclusive_s) << r.region;
    }
    if (r.region == "fdtd") { EXPECT_EQ(r.parent, "field_solve"); }
    EXPECT_DOUBLE_EQ(r.ms_per_step, r.seconds / 3 * 1e3) << r.region;
    EXPECT_DOUBLE_EQ(r.share, r.seconds / t.step_s) << r.region;
  }
  EXPECT_NEAR(in_step, t.step_s, 1e-12);
  // A sub-region follows its parent.
  for (std::size_t i = 1; i < t.regions.size(); ++i) {
    if (t.regions[i].parent == "particles") {
      EXPECT_TRUE(t.regions[i - 1].region == "particles" ||
                  t.regions[i - 1].parent == "particles");
    }
  }
  EXPECT_EQ(t.seconds("checkpoint"), prof.stats("checkpoint").inclusive_s);
  EXPECT_EQ(t.seconds("not_a_region"), 0.0);

  // The report opens with the table; the JSON twin carries every row.
  auto report = build_perf_report(make_recorder());
  report.time = t;
  report.kernel = summarize_kernels(prof, 300, 2, 2, perf::machine_by_name("Summit"));
  std::ostringstream md;
  write_markdown(report, md);
  const std::string text = md.str();
  EXPECT_EQ(text.find("## "), text.find("## Where the time went"));
  EXPECT_NE(text.find("| gather | particles |"), std::string::npos);
  EXPECT_NE(text.find("| step (unattributed) | step |"), std::string::npos);
  EXPECT_LT(text.find("## Kernel headroom"), text.find("## Critical-path composition"));
  EXPECT_NE(text.find("measured "), std::string::npos);
  EXPECT_EQ(text.find("Roofline attribution"), std::string::npos);

  std::ostringstream js;
  write_json(report, js);
  const auto doc = json::parse(js.str());
  EXPECT_TRUE(benchdiff::validate_schema(doc).empty());
  ASSERT_TRUE(doc["time"].is_object());
  EXPECT_EQ(doc["time"]["steps"].as_int(), 3);
  const auto& regions = doc["time"]["regions"].as_array();
  ASSERT_EQ(regions.size(), t.regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(regions[i]["region"].as_string(), t.regions[i].region);
    EXPECT_EQ(regions[i]["parent"].as_string(), t.regions[i].parent);
    EXPECT_EQ(regions[i]["count"].as_int(), t.regions[i].count);
    EXPECT_DOUBLE_EQ(regions[i]["seconds"].as_number(), t.regions[i].seconds);
    EXPECT_DOUBLE_EQ(regions[i]["ms_per_step"].as_number(), t.regions[i].ms_per_step);
    EXPECT_DOUBLE_EQ(regions[i]["share"].as_number(), t.regions[i].share);
  }
  EXPECT_TRUE(doc["kernel_headroom"].is_object());
  EXPECT_FALSE(doc.has("roofline"));
  EXPECT_FALSE(doc.has("machine"));

  // Without a profiler's regions the report carries neither measured key.
  std::ostringstream bare;
  write_json(build_perf_report(make_recorder()), bare);
  const auto bare_doc = json::parse(bare.str());
  EXPECT_FALSE(bare_doc.has("time"));
  EXPECT_FALSE(bare_doc.has("kernel_headroom"));
}

TEST(PerfReport, ScalingLossesReplaceStepOverheadInJson) {
  auto report = build_perf_report(make_recorder());
  analysis::LossTerms t;
  t.nodes = 64;
  t.total_s = 2.0;
  t.ideal_s = 1.0;
  t.efficiency = 0.5;
  t.loss = 0.5;
  t.imbalance = 0.5;
  report.scaling_losses.push_back(t);
  std::ostringstream os;
  write_json(report, os);
  const auto doc = json::parse(os.str());
  ASSERT_EQ(doc["loss"].as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(doc["loss"].as_array()[0]["nodes"].as_number(), 64.0);
  EXPECT_TRUE(benchdiff::validate_schema(doc).empty());
}

} // namespace
} // namespace mrpic::obs
