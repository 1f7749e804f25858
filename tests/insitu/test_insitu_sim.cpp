// Acceptance gate for the in-situ observability pipeline end to end: a
// Simulation with enable_insitu must collect reduced diagnostics inside the
// "insitu" profiler region, publish insitu_* gauges, keep the JSONL series
// schema-valid and the streaming manifest consistent with the frame files,
// and a replay after a checkpoint restore into the same Simulation must
// leave a canonicalizable series — the crash -> rollback -> replay contract
// of resilient_lwfa.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "src/core/simulation.hpp"
#include "src/insitu/registry.hpp"
#include "src/io/checkpoint.hpp"
#include "src/obs/perf_report.hpp"

using namespace mrpic;

namespace {

// The aggregate insitu_smoke ctest and the gtest-discovered InsituSmoke.*
// tests run this same code concurrently in one working directory; a per-pid
// tag keeps their artifact files from clobbering each other.
std::string unique_tag(const std::string& base) {
  return base + "_" + std::to_string(static_cast<long>(::getpid()));
}

core::SimulationConfig<2> plasma_config(int n) {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(n - 1, n - 1));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = IntVect2(n / 2);
  cfg.shape_order = 2;
  return cfg;
}

insitu::InsituConfig smoke_config(const std::string& tag) {
  insitu::InsituConfig icfg;
  icfg.moments_interval = 2;
  icfg.spectrum_interval = 4;
  icfg.laser_interval = 2;
  icfg.wakefield_interval = 2;
  icfg.field_energy_interval = 2;
  icfg.beam_species = 0;
  icfg.spectrum_e_min_J = 0;
  icfg.spectrum_e_max_J = 1.602e-16; // 1 keV, covers the 50 eV plasma
  icfg.spectrum_bins = 32;
  icfg.laser_wavelength = 0.8e-6;
  icfg.series_path = tag + "_series.jsonl";
  icfg.stream_interval = 5;
  icfg.stream_downsample = 2;
  icfg.stream_components = {0, 1};
  icfg.phase_space.ax = diag::Axis::Energy;
  icfg.phase_space.ay = diag::Axis::Ux;
  icfg.phase_space.a_max = 1.602e-16;
  icfg.phase_space.b_min = -1e7;
  icfg.phase_space.b_max = 1e7;
  icfg.phase_space.na = 16;
  icfg.phase_space.nb = 16;
  icfg.stream.basename = tag + "_stream";
  return icfg;
}

void run_plasma(core::Simulation<2>& sim, int steps) {
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(steps);
}

void cleanup(const std::string& tag) {
  std::remove((tag + "_series.jsonl").c_str());
  std::remove((tag + "_ckpt.bin").c_str());
  for (int i = 0; i < 8; ++i) {
    char path[256];
    std::snprintf(path, sizeof(path), "%s_stream.%03d.bin", tag.c_str(), i);
    std::remove(path);
  }
  std::remove((tag + "_stream.manifest.json").c_str());
}

} // namespace

TEST(InsituSmoke, PipelineEndToEnd) {
  const std::string tag = unique_tag("insitu_sim_smoke");
  cleanup(tag);
  core::Simulation<2> sim(plasma_config(16));
  sim.enable_insitu(smoke_config(tag));
  ASSERT_TRUE(sim.insitu_enabled());
  run_plasma(sim, 20);

  // Reduced diagnostics ran inside their own profiler region.
  const auto& reg = *sim.insitu();
  EXPECT_GT(reg.num_records(), 0);
  const auto totals = sim.profiler().flat_totals();
  ASSERT_TRUE(totals.count("insitu"));
  ASSERT_TRUE(totals.count("step"));
  EXPECT_GT(totals.at("insitu").count, 0);
  EXPECT_LT(totals.at("insitu").inclusive_s, totals.at("step").inclusive_s);

  // Gauges carry the latest record (the whole plasma is the "beam" here).
  const auto* beam = reg.last("beam");
  ASSERT_NE(beam, nullptr);
  EXPECT_GT(beam->value("count"), 0);
  EXPECT_TRUE(std::isfinite(beam->value("emit_ny_m_rad")));
  EXPECT_DOUBLE_EQ(sim.metrics().gauge_value("insitu_beam_count"),
                   beam->value("count"));
  EXPECT_GT(sim.metrics().gauge_value("insitu_field_energy_level0_total_J"), 0.0);

  // Durable series: schema-valid JSONL with one object per record.
  EXPECT_TRUE(insitu::Registry::validate_series(reg.series_path()).empty());
  EXPECT_EQ(static_cast<std::int64_t>(
                insitu::Registry::read_series_jsonl(reg.series_path()).size()),
            reg.num_records());

  // Streaming exporter: manifest schema-valid and consistent with the
  // complete frames actually on disk.
  const auto* sw = sim.insitu_stream();
  ASSERT_NE(sw, nullptr);
  EXPECT_GT(sw->frames_written(), 0);
  EXPECT_EQ(sw->frames_written() % 3, 0); // Ex + Ey + phase space per trigger
  std::vector<std::string> errors;
  const auto man = insitu::read_manifest(sw->manifest_path(), &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(man.total_frames, sw->frames_written());
  std::int64_t on_disk = 0;
  for (const auto& mf : man.files) {
    bool truncated = true;
    on_disk += static_cast<std::int64_t>(insitu::read_frames(mf.file, &truncated).size());
    EXPECT_FALSE(truncated) << mf.file;
  }
  EXPECT_EQ(on_disk, man.total_frames);

  // Final force-collect (end-of-run records regardless of cadence) feeds
  // the driver's printed beam summary.
  const auto before = reg.num_records();
  sim.insitu()->collect(sim.step_count(), sim.time(), /*force=*/true);
  EXPECT_EQ(reg.num_records(), before + reg.size());
  const auto* spectrum = reg.last("spectrum");
  ASSERT_NE(spectrum, nullptr);
  EXPECT_EQ(spectrum->step, sim.step_count());
  EXPECT_TRUE(std::isfinite(spectrum->value("peak_energy_J")));
  const auto* final_beam = reg.last("beam");
  ASSERT_NE(final_beam, nullptr);
  EXPECT_EQ(final_beam->step, sim.step_count());
  EXPECT_GT(final_beam->value("count"), 0);

  // The perf-report section summarizes the same registry + stream counters;
  // the diagnostics' cost is the "insitu" row of the report's time table.
  const auto section = obs::summarize_insitu(reg, sw);
  EXPECT_TRUE(section.enabled);
  EXPECT_EQ(section.records, reg.num_records());
  const double insitu_s = obs::time_breakdown(sim.profiler()).seconds("insitu");
  EXPECT_GT(insitu_s, 0.0);
  EXPECT_EQ(insitu_s, sim.profiler().flat_totals().at("insitu").inclusive_s);
  EXPECT_TRUE(std::isfinite(section.emit_ny));
  EXPECT_EQ(section.stream_frames, sw->frames_written());

  obs::PerfReport report;
  report.title = "insitu smoke";
  report.beam = section;
  std::ostringstream md;
  obs::write_markdown(report, md);
  EXPECT_NE(md.str().find("## Beam physics"), std::string::npos);
  cleanup(tag);

  // Record, frame and byte counts follow the cadences exactly. 100 steps of
  // a 32^2 plasma: the four reduced diagnostics at `reduced`, the spectrum at
  // `spectrum`, the exporter (Ex, Ey 4x downsampled + a 32x32 phase space)
  // at `stream` — every step, the driver defaults, defaults plus streaming,
  // sparse, off.
  struct Cadence {
    int reduced, spectrum, stream;
    std::int64_t records, frames, bytes;
  };
  const Cadence sweep[] = {{1, 1, 0, 500, 0, 0},
                           {10, 50, 0, 42, 0, 0},
                           {10, 50, 20, 42, 15, 24460},
                           {50, 0, 0, 8, 0, 0},
                           {0, 0, 0, 0, 0, 0}};
  for (const auto& c : sweep) {
    SCOPED_TRACE("reduced " + std::to_string(c.reduced) + " spectrum " +
                 std::to_string(c.spectrum) + " stream " + std::to_string(c.stream));
    auto ccfg = smoke_config(tag);
    ccfg.moments_interval = ccfg.laser_interval = ccfg.wakefield_interval =
        ccfg.field_energy_interval = c.reduced;
    ccfg.spectrum_interval = c.spectrum;
    ccfg.stream_interval = c.stream;
    ccfg.stream_downsample = 4;
    ccfg.phase_space.na = ccfg.phase_space.nb = 32;
    core::Simulation<2> csim(plasma_config(32));
    csim.enable_insitu(ccfg);
    run_plasma(csim, 100);
    EXPECT_EQ(csim.insitu()->num_records(), c.records);
    const auto* csw = csim.insitu_stream();
    EXPECT_EQ(csw ? static_cast<std::int64_t>(csw->frames_written()) : 0, c.frames);
    EXPECT_EQ(csw ? static_cast<std::int64_t>(csw->bytes_written()) : 0, c.bytes);
    EXPECT_TRUE(insitu::Registry::validate_series(ccfg.series_path).empty());
    cleanup(tag);
  }
}

TEST(InsituSmoke, ReplayAppendKeepsSeriesCanonicalizable) {
  const std::string tag = unique_tag("insitu_sim_replay");
  cleanup(tag);
  auto icfg = smoke_config(tag);
  icfg.stream_interval = 0; // series continuity is the subject here

  // The resil rollback: restore a checkpoint into the same Simulation and
  // replay the lost steps; its open series keeps appending.
  const std::string ckpt = tag + "_ckpt.bin";
  core::Simulation<2> sim(plasma_config(16));
  sim.enable_insitu(icfg);
  run_plasma(sim, 4);
  ASSERT_TRUE(io::write_checkpoint<2>(ckpt, sim));
  sim.run(8);
  const auto first_pass = sim.insitu()->history();
  ASSERT_TRUE(io::read_checkpoint<2>(ckpt, sim));
  ASSERT_EQ(sim.step_count(), 4);
  sim.run(8);

  const std::string path = tag + "_series.jsonl";
  EXPECT_TRUE(insitu::Registry::validate_series(path).empty());
  const auto raw = insitu::Registry::read_series_jsonl(path);
  EXPECT_EQ(static_cast<std::int64_t>(raw.size()), sim.insitu()->num_records());
  EXPECT_GT(raw.size(), first_pass.size());
  const auto canon = insitu::Registry::canonicalize(raw);
  EXPECT_EQ(canon.size(), first_pass.size()); // the replayed overlap collapsed
  // The restore is bit-exact, so the replay reproduces the first pass.
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    const auto& r = first_pass[i];
    const auto it = std::find_if(canon.begin(), canon.end(), [&](const insitu::Record& c) {
      return c.diag == r.diag && c.step == r.step;
    });
    ASSERT_NE(it, canon.end()) << r.diag << " step " << r.step;
    for (const auto& [key, v] : r.values) {
      if (std::isnan(v)) {
        EXPECT_TRUE(std::isnan(it->value(key))) << r.diag << "." << key;
      } else {
        EXPECT_EQ(it->value(key), v) << r.diag << "." << key << " step " << r.step;
      }
    }
  }
  std::int64_t last_step = -1;
  for (const auto& r : canon) {
    if (r.diag != "beam") { continue; }
    EXPECT_GT(r.step, last_step);
    last_step = r.step;
  }
  EXPECT_GE(last_step, 0);
  cleanup(tag);
}
