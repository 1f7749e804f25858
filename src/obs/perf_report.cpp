#include "src/obs/perf_report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <ostream>

#include <cmath>

#include "src/health/monitor.hpp"
#include "src/insitu/registry.hpp"
#include "src/obs/json.hpp"
#include "src/obs/profiler.hpp"

namespace mrpic::obs {

namespace {

std::string fmt_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return std::string(buf) + " us";
}

std::string fmt_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
  return buf;
}

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

// Chain rendering for the Markdown table: long chains (dense halo graphs
// route the path through many ranks) show head ... tail plus the hop count;
// the JSON keeps the full chain.
std::string chain_string(const std::vector<int>& ranks) {
  constexpr std::size_t kHead = 6, kTail = 3;
  std::string s;
  auto append = [&s](int r) {
    if (!s.empty()) { s += " -> "; }
    s += std::to_string(r);
  };
  if (ranks.size() <= kHead + kTail + 1) {
    for (int r : ranks) { append(r); }
  } else {
    for (std::size_t i = 0; i < kHead; ++i) { append(ranks[i]); }
    s += " -> ...";
    for (std::size_t i = ranks.size() - kTail; i < ranks.size(); ++i) { append(ranks[i]); }
    s += " (" + std::to_string(ranks.size()) + " hops)";
  }
  return s.empty() ? "-" : s;
}

int path_final_rank(const analysis::CriticalPath& p) {
  return p.rank_chain.empty() ? -1 : p.rank_chain.back();
}

void write_loss_json(json::Writer& w, const analysis::LossTerms& t) {
  w.begin_object()
      .field("nodes", t.nodes)
      .field("total_s", t.total_s)
      .field("ideal_s", t.ideal_s)
      .field("efficiency", t.efficiency)
      .field("loss", t.loss)
      .field("imbalance", t.imbalance)
      .field("comm", t.comm)
      .field("latency", t.latency)
      .field("resil", t.resil)
      .field("residual", t.residual)
      .field("lambda", t.lambda)
      .field("invariant_gap", t.invariant_gap())
      .field("compute_critical_rank", t.compute_critical_rank)
      .field("comm_critical_rank", t.comm_critical_rank)
      .end_object();
}

} // namespace

std::vector<int> PerfReport::worst_steps() const {
  std::vector<int> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return paths[std::size_t(a)].makespan_s > paths[std::size_t(b)].makespan_s;
  });
  return order;
}

HealthSection summarize_health(const health::HealthMonitor& mon) {
  HealthSection h;
  h.enabled = true;
  const auto history = mon.snapshot_history();
  const auto alerts = mon.snapshot_alerts();
  h.samples = static_cast<std::int64_t>(history.size());
  h.alerts = static_cast<std::int64_t>(alerts.size());
  for (const auto& a : alerts) {
    if (a.severity == health::Severity::Critical) { ++h.critical_alerts; }
  }
  if (!alerts.empty()) { h.last_alert = alerts.back().message; }

  if (history.size() >= 2) {
    const double e0 = history.front().total_energy_J();
    const double e1 = history.back().total_energy_J();
    h.energy_drift = (e1 - e0) / std::max(std::abs(e0), 1e-300);
  }
  for (const auto& s : history) {
    const auto acc_max = [](double& dst, double v) {
      if (std::isfinite(v) && (!std::isfinite(dst) || v > dst)) { dst = v; }
    };
    acc_max(h.max_gauss_residual, s.gauss_residual);
    acc_max(h.max_gauss_residual, s.gauss_residual_fine);
    acc_max(h.max_continuity_residual, s.continuity_residual);
    acc_max(h.max_continuity_residual, s.continuity_residual_fine);
    if (s.nan_cells > h.nan_cells) { h.nan_cells = s.nan_cells; }
  }
  return h;
}

BeamPhysicsSection summarize_insitu(const insitu::Registry& reg,
                                    const insitu::StreamWriter* stream) {
  BeamPhysicsSection b;
  b.enabled = true;
  b.records = reg.num_records();

  if (const auto* r = reg.last("beam")) {
    b.emit_ny = r->value("emit_ny_m_rad");
    b.beam_charge_C = r->value("charge_C");
    b.mean_gamma = r->value("mean_gamma");
  }
  if (const auto* r = reg.last("spectrum")) {
    b.peak_energy_J = r->value("peak_energy_J");
    b.energy_spread = r->value("energy_spread");
  }
  if (const auto* r = reg.last("laser")) { b.laser_a0 = r->value("a0"); }
  if (const auto* r = reg.last("wakefield")) { b.wakefield_V_m = r->value("max_Ex_V_m"); }
  if (const auto* r = reg.last("field_energy")) {
    b.field_energy_J = r->value("level0_total_J");
  }
  if (stream != nullptr) {
    b.stream_frames = stream->frames_written();
    b.stream_bytes = stream->bytes_written();
  }
  return b;
}

MemorySection summarize_memory(const MemoryLedger& ledger, const MrSavings* measured,
                               const MrSavings* analytic, const RankRecorder* rec,
                               double budget_bytes) {
  MemorySection m;
  m.enabled = true;
  m.total_bytes = ledger.total_current();
  m.high_water_bytes = ledger.total_high_water();
  m.fields_bytes = ledger.current_prefix("fields");
  m.particles_bytes = ledger.current_prefix("particles");
  m.mr_bytes = ledger.current_prefix("mr");
  m.pml_bytes = ledger.current_prefix("pml");
  m.checkpoint_hw_bytes = ledger.high_water("checkpoint");
  m.insitu_stream_bytes = ledger.current("insitu.stream");
  m.alloc_count = ledger.total_alloc_count();

  if (measured != nullptr && analytic != nullptr) {
    m.measured = *measured;
    m.analytic = *analytic;
    m.has_savings = true;
    if (analytic->factor > 0) {
      m.savings_disagreement =
          std::abs(measured->factor - analytic->factor) / analytic->factor;
    }
  }
  if (rec != nullptr) {
    m.budget_bytes = budget_bytes > 0 ? budget_bytes : 0;
    m.oom = predict_first_oom(*rec, budget_bytes);
  }
  return m;
}

KernelSection summarize_kernels(const Profiler& prof, std::int64_t particles_pushed,
                                int shape_order, int dim, const perf::Machine& machine,
                                const RankRecorder* rec) {
  KernelSection k;
  k.machine = machine.name;

  const auto totals = prof.flat_totals();
  for (int i = 0; i < analysis::kNumKernelKinds; ++i) {
    const auto kind = static_cast<analysis::KernelKind>(i);
    const auto it = totals.find(analysis::kernel_kind_name(kind));
    if (it == totals.end() || it->second.count == 0) { continue; }
    const double np = static_cast<double>(particles_pushed);
    const double time_s = it->second.inclusive_s;
    const auto rp = analysis::roofline_point(
        it->first, np * analysis::kernel_flops_per_particle(kind, shape_order, dim),
        np * analysis::kernel_bytes_per_particle(kind, shape_order, dim), machine, time_s);
    KernelSection::KernelRow row;
    row.kernel = rp.kernel;
    row.invocations = it->second.count;
    row.particles = particles_pushed;
    row.time_s = time_s;
    row.flops = rp.flops;
    row.bytes = rp.bytes;
    row.intensity = rp.intensity;
    row.gbyte_s = time_s > 0 ? rp.bytes / time_s / 1e9 : 0;
    row.roof_tflops = rp.roof_tflops;
    row.attained_tflops = rp.attained_tflops;
    row.attainment = rp.attainment;
    row.memory_bound = rp.memory_bound;
    k.kernels.push_back(std::move(row));
  }

  // Overlap headroom: mean per-step phase split of the step-critical rank
  // over the recorder steps that carry phase data.
  if (rec != nullptr) {
    for (const auto& step : rec->steps()) {
      if (step.ranks.empty()) { continue; }
      const RankStepStats* critical = &step.ranks.front();
      for (const auto& rs : step.ranks) {
        if (rs.total_s() > critical->total_s()) { critical = &rs; }
      }
      if (critical->post_s + critical->wait_s <= 0) { continue; }
      k.mean_post_s += critical->post_s;
      k.mean_wait_s += critical->wait_s;
      k.mean_interior_compute_s += critical->interior_compute_s;
      k.mean_overlap_headroom_s += critical->overlap_headroom_s;
      ++k.overlap_steps;
    }
    if (k.overlap_steps > 0) {
      const auto n = static_cast<double>(k.overlap_steps);
      k.mean_post_s /= n;
      k.mean_wait_s /= n;
      k.mean_interior_compute_s /= n;
      k.mean_overlap_headroom_s /= n;
    }
  }

  return k;
}

double TimeBreakdown::seconds(std::string_view region) const {
  for (const auto& r : regions) {
    if (r.region == region) { return r.seconds; }
  }
  return 0;
}

TimeBreakdown time_breakdown(const Profiler& prof) {
  const auto nodes = prof.snapshot();
  const auto node = [&nodes](int i) -> const Profiler::Node& { return nodes[std::size_t(i)]; };
  // Node indices by descending inclusive time (the profiler tree's order).
  const auto by_time = [&node](std::vector<int> ids) {
    std::stable_sort(ids.begin(), ids.end(), [&node](int a, int b) {
      return node(a).stats.inclusive_s > node(b).stats.inclusive_s;
    });
    return ids;
  };
  TimeBreakdown t;
  const auto add = [&t](const Profiler::Node& n, const std::string& parent) {
    t.regions.push_back({n.name, parent, n.stats.inclusive_s, n.stats.count, 0, 0});
  };

  int step = -1;
  std::vector<int> other_roots;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent >= 0) { continue; }
    if (nodes[i].name == "step") {
      step = int(i);
    } else {
      other_roots.push_back(int(i));
    }
  }
  if (step >= 0) {
    const auto& s = node(step);
    t.steps = s.stats.count;
    t.step_s = s.stats.inclusive_s;
    add(s, "");
    for (int c : by_time(s.children)) {
      add(node(c), s.name);
      for (int g : by_time(node(c).children)) { add(node(g), node(c).name); }
    }
    t.regions.push_back({"step (unattributed)", s.name, s.stats.exclusive_s, 0, 0, 0});
  }
  for (int r : by_time(other_roots)) { add(node(r), ""); }
  for (auto& r : t.regions) {
    r.ms_per_step = t.steps > 0 ? r.seconds / double(t.steps) * 1e3 : 0;
    r.share = t.step_s > 0 ? r.seconds / t.step_s : 0;
  }
  return t;
}

PerfReport build_perf_report(const RankRecorder& rec, const PerfReportOptions& opt) {
  PerfReport report;
  report.title = opt.title;
  report.nranks = rec.nranks();
  report.latency_s = opt.latency_s;
  report.top_steps = opt.top_steps;
  report.paths = analysis::critical_paths(rec);
  report.summary = analysis::summarize(report.paths, rec.nranks());
  report.step_overhead.reserve(rec.steps().size());
  for (const auto& step : rec.steps()) {
    report.step_overhead.push_back(
        analysis::decompose_step_overhead(step, opt.latency_s));
  }
  return report;
}

void write_markdown(const PerfReport& report, std::ostream& os) {
  os << "# " << report.title << "\n\n";

  // --- measured: where the time went --------------------------------------
  const auto& t = report.time;
  if (report.measured()) {
    os << "## Where the time went\n\n";
    os << "Measured by the profiler over " << t.steps << " steps: "
       << fmt3(t.steps > 0 ? t.step_s / double(t.steps) * 1e3 : 0)
       << " ms per step. Rows in `step` sum to `step`; \"step (unattributed)\" is its "
          "time outside every sub-region.\n\n";
    os << "| region | in | ms/step | share of step | launches |\n"
       << "|---|---|---:|---:|---:|\n";
    for (const auto& r : t.regions) {
      os << "| " << r.region << " | " << (r.parent.empty() ? "-" : r.parent) << " | "
         << fmt3(r.ms_per_step) << " | " << fmt_pct(r.share) << " | "
         << (r.count > 0 ? std::to_string(r.count) : std::string("-")) << " |\n";
    }
    os << "\n";

    // --- measured: kernel headroom ----------------------------------------
    const auto& k = report.kernel;
    os << "## Kernel headroom";
    if (!k.machine.empty()) { os << " (" << k.machine << ")"; }
    os << "\n\n";
    if (k.kernels.empty()) {
      os << "No particle kernel ran.\n\n";
    } else {
      os << "Profiler totals of the particle kernels over every step, on the "
            "analytic cold-cache byte model.\n\n";
      os << "| kernel | invocations | particles | time | GB/s | intensity | "
            "roof TFlop/s | bound | attainment |\n"
         << "|---|---:|---:|---:|---:|---:|---:|---|---:|\n";
      for (const auto& r : k.kernels) {
        os << "| " << r.kernel << " | " << r.invocations << " | " << r.particles
           << " | " << fmt_us(r.time_s) << " | " << fmt3(r.gbyte_s) << " | "
           << fmt3(r.intensity) << " | " << fmt3(r.roof_tflops) << " | "
           << (r.memory_bound ? "memory" : "compute") << " | "
           << (r.time_s > 0 ? fmt_pct(r.attainment) : std::string("-")) << " |\n";
      }
      os << "\n";
    }
    if (k.overlap_steps > 0) {
      os << "Halo phase timeline (modelled: the virtual cluster's critical rank, mean over "
         << k.overlap_steps << " steps): post " << fmt_us(k.mean_post_s) << ", wait "
         << fmt_us(k.mean_wait_s) << ", interior compute "
         << fmt_us(k.mean_interior_compute_s) << " -> overlap headroom **"
         << fmt_us(k.mean_overlap_headroom_s) << "** per step (recoverable by "
         << "overlapping interior work with halo waits).\n\n";
    }
  }

  // --- modelled: aggregate critical-path composition ----------------------
  const auto& s = report.summary;
  os << "## Critical-path composition (modelled, all steps)\n\n";
  os << "Modelled, not measured: " << s.steps << " recorded steps on the virtual cluster ("
     << report.nranks << " ranks), wire latency " << fmt_us(report.latency_s) << ".";
  // Measured time comes with a Simulation's recorder, whose cluster
  // observation prices each box at box_cost_heuristic() x cost_unit_s.
  if (report.measured() && s.steps > 0 && t.steps > 0) {
    os << " Box costs `box_cost_heuristic()` × `cost_unit_s`: modelled "
       << fmt3(s.makespan_s / s.steps * 1e3) << " ms/step; measured "
       << fmt3(t.step_s / double(t.steps) * 1e3) << " ms/step.";
  }
  os << "\n\n";
  if (s.steps == 0 || s.makespan_s <= 0) {
    os << "No recorded steps.\n\n";
  } else {
    os << "| component | seconds | share |\n|---|---:|---:|\n";
    const double T = s.makespan_s;
    os << "| compute | " << fmt3(s.compute_s) << " | " << fmt_pct(s.compute_s / T) << " |\n";
    os << "| halo transfer | " << fmt3(s.transfer_s) << " | " << fmt_pct(s.transfer_s / T) << " |\n";
    os << "| message latency | " << fmt3(s.latency_s) << " | " << fmt_pct(s.latency_s / T) << " |\n";
    os << "| resil (retries) | " << fmt3(s.retry_s) << " | " << fmt_pct(s.retry_s / T) << " |\n";
    os << "| **total makespan** | **" << fmt3(T) << "** | 100% |\n\n";
  }

  // --- modelled: stragglers -----------------------------------------------
  os << "## Straggler ranks (modelled)\n\n";
  const auto stragglers = s.stragglers();
  if (stragglers.empty()) {
    os << "No per-rank critical-path evidence.\n\n";
  } else {
    os << "Ranks by time spent on the critical path:\n\n";
    os << "| rank | critical seconds | path finishes here |\n|---:|---:|---:|\n";
    const int listed = std::min<int>(8, int(stragglers.size()));
    for (int i = 0; i < listed; ++i) {
      const int r = stragglers[std::size_t(i)];
      os << "| " << r << " | " << fmt3(s.critical_s_per_rank[std::size_t(r)]) << " | "
         << s.finishes_per_rank[std::size_t(r)] << " |\n";
    }
    os << "\n";
  }

  // --- modelled: worst steps and the median step --------------------------
  // Bounded whatever the step count: the top_steps worst steps plus the
  // median (nearest rank) by makespan; the JSON keeps every step.
  const auto order = report.worst_steps();
  if (!order.empty()) {
    const int shown = std::min<int>(report.top_steps, int(order.size()));
    os << "## Top " << shown << " steps by critical-path makespan, and the median step "
       << "(modelled)\n\n";
    os << "| step | makespan | compute | transfer | latency | resil | efficiency | "
          "imbalance | rank chain |\n"
       << "|---:|---:|---:|---:|---:|---:|---:|---:|---|\n";
    const auto row = [&](int i, const char* tag) {
      const auto& p = report.paths[std::size_t(i)];
      os << "| " << p.step << tag << " | " << fmt3(p.makespan_s) << " | " << fmt3(p.compute_s)
         << " | " << fmt3(p.transfer_s) << " | " << fmt3(p.latency_s) << " | "
         << fmt3(p.retry_s) << " | ";
      if (std::size_t(i) < report.step_overhead.size()) {
        const auto& o = report.step_overhead[std::size_t(i)];
        os << fmt_pct(o.efficiency) << " | " << fmt_pct(o.imbalance);
      } else {
        os << "- | -";
      }
      os << " | " << chain_string(p.rank_chain) << " |\n";
    };
    for (int i = 0; i < shown; ++i) { row(order[std::size_t(i)], ""); }
    row(order[order.size() / 2], " (p50)");
    os << "\n";
  }

  // --- scaling losses (sweeps) --------------------------------------------
  if (!report.scaling_losses.empty()) {
    os << "## Scaling-loss decomposition\n\n";
    os << "Each row splits 1 - efficiency into terms that sum to the loss "
          "exactly (invariant gap shown).\n\n";
    os << "| nodes | efficiency | loss | imbalance | comm | latency | resil | residual "
          "| gap |\n"
       << "|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const auto& l : report.scaling_losses) {
      os << "| " << std::int64_t(l.nodes) << " | " << fmt_pct(l.efficiency) << " | "
         << fmt_pct(l.loss) << " | " << fmt_pct(l.imbalance) << " | " << fmt_pct(l.comm)
         << " | " << fmt_pct(l.latency) << " | " << fmt_pct(l.resil) << " | "
         << fmt_pct(l.residual) << " | " << fmt3(l.invariant_gap()) << " |\n";
    }
    os << "\n";
  }

  // --- simulation health --------------------------------------------------
  if (report.health.enabled) {
    const auto& h = report.health;
    os << "## Simulation health\n\n";
    os << h.samples << " ledger samples, " << h.alerts << " alerts (" << h.critical_alerts
       << " critical).\n\n";
    os << "| invariant | value |\n|---|---:|\n";
    os << "| relative energy drift | "
       << (std::isfinite(h.energy_drift) ? fmt3(h.energy_drift) : std::string("-")) << " |\n";
    os << "| max Gauss residual | "
       << (std::isfinite(h.max_gauss_residual) ? fmt3(h.max_gauss_residual)
                                               : std::string("-"))
       << " |\n";
    os << "| max continuity residual (normalized) | "
       << (std::isfinite(h.max_continuity_residual) ? fmt3(h.max_continuity_residual)
                                                    : std::string("-"))
       << " |\n";
    os << "| worst NaN scan (cells) | " << h.nan_cells << " |\n\n";
    if (!h.last_alert.empty()) { os << "Last alert: " << h.last_alert << "\n\n"; }
  }

  // --- beam physics -------------------------------------------------------
  if (report.beam.enabled) {
    const auto& b = report.beam;
    os << "## Beam physics\n\n";
    os << b.records << " in-situ records.";
    if (b.stream_frames > 0) {
      os << " Streamed " << b.stream_frames << " frames (" << b.stream_bytes
         << " bytes).";
    }
    os << "\n\n";
    const auto row = [&os](const char* name, double v, const char* unit) {
      os << "| " << name << " | " << (std::isfinite(v) ? fmt3(v) : std::string("-"))
         << " " << unit << " |\n";
    };
    os << "| beam metric | value |\n|---|---:|\n";
    row("normalized emittance (y)", b.emit_ny, "m rad");
    row("beam charge", b.beam_charge_C, "C");
    row("mean gamma", b.mean_gamma, "");
    row("spectral peak energy", b.peak_energy_J, "J");
    row("relative FWHM spread", b.energy_spread, "");
    row("laser a0", b.laser_a0, "");
    row("wakefield amplitude", b.wakefield_V_m, "V/m");
    row("level-0 field energy", b.field_energy_J, "J");
    os << "\n";
  }

  // --- memory -------------------------------------------------------------
  if (report.memory.enabled) {
    const auto& m = report.memory;
    os << "## Memory\n\n";
    os << "Live footprint " << format_bytes(double(m.total_bytes)) << " (high water "
       << format_bytes(double(m.high_water_bytes)) << ", " << m.alloc_count
       << " allocations).\n\n";
    os << "| subsystem | bytes |\n|---|---:|\n";
    os << "| level-0 + MR fields | " << format_bytes(double(m.fields_bytes + m.mr_bytes))
       << " |\n";
    os << "| particles | " << format_bytes(double(m.particles_bytes)) << " |\n";
    os << "| MR patch surcharge | " << format_bytes(double(m.mr_bytes)) << " |\n";
    os << "| level-0 PML | " << format_bytes(double(m.pml_bytes)) << " |\n";
    os << "| checkpoint staging (high water) | "
       << format_bytes(double(m.checkpoint_hw_bytes)) << " |\n";
    os << "| in-situ stream buffers | " << format_bytes(double(m.insitu_stream_bytes))
       << " |\n\n";
    if (m.has_savings) {
      os << "MR memory savings vs an equivalent uniform fine grid: measured **"
         << fmt3(m.measured.factor) << "x** ("
         << format_bytes(m.measured.uniform_fine_bytes) << " -> "
         << format_bytes(m.measured.actual_bytes) << "), analytic model "
         << fmt3(m.analytic.factor) << "x";
      if (std::isfinite(m.savings_disagreement)) {
        os << " (disagreement " << fmt_pct(m.savings_disagreement) << ")";
      }
      os << ".\n\n";
    }
    if (m.oom.peak_bytes > 0) {
      os << "Per-rank resident peak " << format_bytes(double(m.oom.peak_bytes))
         << " (rank " << m.oom.peak_rank << ", step " << m.oom.peak_step << ")";
      if (m.budget_bytes > 0) {
        os << " against a " << format_bytes(m.budget_bytes) << " budget: ";
        if (m.oom.predicted) {
          os << "**predicted OOM** first at rank " << m.oom.rank << ", step "
             << m.oom.step;
        } else {
          os << "fits with " << fmt3(m.oom.headroom) << "x headroom";
        }
      }
      os << ".\n\n";
    }
  }
}

bool write_markdown(const PerfReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) { return false; }
  write_markdown(report, os);
  return static_cast<bool>(os);
}

void write_json(const PerfReport& report, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("bench", "attribution");
  w.field("title", report.title);
  w.field("nranks", report.nranks);
  w.field("latency_s", report.latency_s);

  if (report.measured()) {
    const auto& t = report.time;
    w.begin_object("time").field("steps", t.steps).field("step_s", t.step_s);
    w.begin_array("regions");
    for (const auto& r : t.regions) {
      w.begin_object()
          .field("region", r.region)
          .field("parent", r.parent)
          .field("seconds", r.seconds)
          .field("count", r.count)
          .field("ms_per_step", r.ms_per_step)
          .field("share", r.share)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }

  const auto& s = report.summary;
  w.begin_object("summary")
      .field("steps", s.steps)
      .field("makespan_s", s.makespan_s)
      .field("compute_s", s.compute_s)
      .field("transfer_s", s.transfer_s)
      .field("latency_s", s.latency_s)
      .field("retry_s", s.retry_s)
      .end_object();

  w.begin_array("critical_path");
  for (const auto& p : report.paths) {
    w.begin_object()
        .field("step", p.step)
        .field("makespan_s", p.makespan_s)
        .field("modeled_total_s", p.modeled_total_s)
        .field("compute_s", p.compute_s)
        .field("transfer_s", p.transfer_s)
        .field("latency_s", p.latency_s)
        .field("retry_s", p.retry_s)
        .field("critical_rank", path_final_rank(p));
    w.begin_array("rank_chain");
    for (int r : p.rank_chain) { w.value(std::int64_t(r)); }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  const auto& losses =
      report.scaling_losses.empty() ? report.step_overhead : report.scaling_losses;
  w.begin_array("loss");
  for (const auto& t : losses) { write_loss_json(w, t); }
  w.end_array();

  w.begin_array("stragglers");
  for (int r : s.stragglers()) { w.value(std::int64_t(r)); }
  w.end_array();

  if (report.health.enabled) {
    const auto& h = report.health;
    w.begin_object("health")
        .field("samples", h.samples)
        .field("alerts", h.alerts)
        .field("critical_alerts", h.critical_alerts)
        .field("energy_drift", h.energy_drift)
        .field("max_gauss_residual", h.max_gauss_residual)
        .field("max_continuity_residual", h.max_continuity_residual)
        .field("nan_cells", h.nan_cells)
        .field("last_alert", h.last_alert)
        .end_object();
  }

  if (report.beam.enabled) {
    const auto& b = report.beam;
    w.begin_object("beam_physics")
        .field("records", b.records)
        .field("emit_ny", b.emit_ny)
        .field("beam_charge_C", b.beam_charge_C)
        .field("mean_gamma", b.mean_gamma)
        .field("peak_energy_J", b.peak_energy_J)
        .field("energy_spread", b.energy_spread)
        .field("laser_a0", b.laser_a0)
        .field("wakefield_V_m", b.wakefield_V_m)
        .field("field_energy_J", b.field_energy_J)
        .field("stream_frames", b.stream_frames)
        .field("stream_bytes", b.stream_bytes)
        .end_object();
  }

  if (report.memory.enabled) {
    const auto& m = report.memory;
    w.begin_object("memory")
        .field("total_bytes", m.total_bytes)
        .field("high_water_bytes", m.high_water_bytes)
        .field("fields_bytes", m.fields_bytes)
        .field("particles_bytes", m.particles_bytes)
        .field("mr_bytes", m.mr_bytes)
        .field("pml_bytes", m.pml_bytes)
        .field("checkpoint_hw_bytes", m.checkpoint_hw_bytes)
        .field("insitu_stream_bytes", m.insitu_stream_bytes)
        .field("alloc_count", m.alloc_count);
    if (m.has_savings) {
      w.field("mr_savings_measured", m.measured.factor)
          .field("mr_savings_analytic", m.analytic.factor)
          .field("mr_savings_disagreement", m.savings_disagreement)
          .field("mr_actual_bytes", m.measured.actual_bytes)
          .field("mr_uniform_fine_bytes", m.measured.uniform_fine_bytes);
    }
    if (m.oom.peak_bytes > 0) {
      w.field("rank_peak_bytes", m.oom.peak_bytes)
          .field("rank_peak_rank", m.oom.peak_rank)
          .field("rank_peak_step", m.oom.peak_step)
          .field("budget_bytes", m.budget_bytes)
          .field("oom_predicted", m.oom.predicted)
          .field("oom_headroom", m.oom.headroom);
    }
    w.end_object();
  }

  if (report.measured()) {
    const auto& k = report.kernel;
    w.begin_object("kernel_headroom").field("machine", k.machine);
    w.begin_array("kernels");
    for (const auto& r : k.kernels) {
      w.begin_object()
          .field("kernel", r.kernel)
          .field("invocations", r.invocations)
          .field("particles", r.particles)
          .field("time_s", r.time_s)
          .field("flops", r.flops)
          .field("bytes", r.bytes)
          .field("intensity", r.intensity)
          .field("gbyte_s", r.gbyte_s)
          .field("roof_tflops", r.roof_tflops)
          .field("attained_tflops", r.attained_tflops)
          .field("attainment", r.attainment)
          .field("memory_bound", r.memory_bound)
          .end_object();
    }
    w.end_array();
    w.begin_object("overlap")
        .field("steps", k.overlap_steps)
        .field("mean_post_s", k.mean_post_s)
        .field("mean_wait_s", k.mean_wait_s)
        .field("mean_interior_compute_s", k.mean_interior_compute_s)
        .field("mean_overlap_headroom_s", k.mean_overlap_headroom_s)
        .end_object();
    w.end_object();
  }

  w.end_object();
  os << '\n';
}

bool write_json(const PerfReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) { return false; }
  write_json(report, os);
  return static_cast<bool>(os);
}

} // namespace mrpic::obs
