// perfbench_e2e: one workload of the end-to-end PIC-step benchmark.
//
// Builds a registered scenario with scenario::build_simulation, advances it
// with Simulation::step() over a fixed number of steps (one round), times
// every step with its own clock, and repeats whole rounds until --seconds
// have passed. It then checks the physics of the last round with its own
// computations (checks.hpp) and prints every metric by name with its unit;
// the last line of stdout is one JSON object. With --trace 1 it also records
// spans around each call into the program and reports the per-layer
// metrics instead of the end-to-end ones. See README.md.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "src/amr/parallel_for.hpp"
#include "src/io/checkpoint.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace perfbench;
using namespace mrpic::constants;

// The stages Simulation::step() reports in StepReport::region_s; the step's
// own clock minus their sum is core.unattributed_ms.
const char* const kStages[] = {"particles", "laser",         "current_sync", "field_solve",
                               "mr_aux",    "moving_window", "redistribute"};

// Bounds of the physics checks (README.md gives the values they read here).
constexpr double kA0Bound = 0.05;          // |a0 / a0_cfg - 1| at the vacuum sample
constexpr double kLaserEnergyBound = 0.05; // |W / W_pulse - 1| from the window start on
constexpr double kEnergyDriftBound = 1e-2; // |W / W_0 - 1| of the periodic plasma
constexpr double kChargeBound = 1e-12;     // |Q / Q_0 - 1|: summation order only
constexpr double kContinuityBound = 1e-10; // normalized continuity residual
constexpr double kClockBound = 0.05;       // |sum clock / sum "step" region - 1|
constexpr int kRestartSteps = 3;
// lwfa_mr: a0 is sampled while the pulse peak is in vacuum (t ~ 24 fs, peak
// ~3 um from the antenna, the gas jet starts at 8 um); the total energy is
// sampled every kEnergyEvery steps once the backward half of the antenna's
// emission has left through the PML, from the window start (40 fs, step
// ~505) on.
constexpr int kA0Step = 300;
constexpr int kLaserEnergyFrom = 550;
constexpr int kEnergyEvery = 50;

struct Args {
  std::string workload, scenario, out = ".";
  int threads = 1;
  int steps = 0;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false; // stop after the first set-up and print its time
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload NAME --scenario S "
               "--threads T --steps N --seed n --seconds s --trace 0|1 --out DIR "
               "[--setup-only 0|1]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) { usage(("missing value for " + k).c_str()); }
    const char* v = argv[++i];
    if (k == "--workload") { a.workload = v; }
    else if (k == "--scenario") { a.scenario = v; }
    else if (k == "--threads") { a.threads = std::atoi(v); }
    else if (k == "--steps") { a.steps = std::atoi(v); }
    else if (k == "--seed") { a.seed = std::strtoull(v, nullptr, 10); }
    else if (k == "--seconds") { a.seconds = std::atof(v); }
    else if (k == "--trace") { a.trace = std::strcmp(v, "1") == 0; }
    else if (k == "--out") { a.out = v; }
    else if (k == "--setup-only") { a.setup_only = std::strcmp(v, "1") == 0; }
    else { usage(("unknown option " + k).c_str()); }
  }
  if (a.workload.empty() || a.scenario.empty() || a.threads < 1 || a.steps < 1 ||
      a.seconds <= 0) {
    usage("missing or invalid arguments");
  }
  return a;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the whole process since it was created. On a one-thread
// workload this is the wall time minus the time the process did not run:
// preempted in the guest, or stolen from the virtual CPU by the host (the
// kernel subtracts steal time from task run times).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Linear-interpolated quantile of unsorted samples.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// Spans recorded around the benchmark's calls into the program; kept in
// memory and written once when the run ends.
struct Span {
  int id = 0, parent = -1;
  std::string name;
  double start_us = 0, end_us = 0;
  std::vector<std::pair<std::string, double>> attrs;

  double attr(const std::string& k) const {
    for (const auto& [name, v] : attrs) {
      if (name == k) { return v; }
    }
    return 0;
  }
};

class Tracer {
public:
  Tracer(bool on, Clock::time_point epoch) : m_on(on), m_epoch(epoch) {}

  bool on() const { return m_on; }
  const std::vector<Span>& spans() const { return m_spans; }

  // Records a finished span; returns its id (-1 when tracing is off).
  int add(std::string name, int parent, Clock::time_point t0, Clock::time_point t1,
          std::vector<std::pair<std::string, double>> attrs = {}) {
    if (!m_on) { return -1; }
    const int id = static_cast<int>(m_spans.size());
    m_spans.push_back({id, parent, std::move(name), us(t0), us(t1), std::move(attrs)});
    return id;
  }
  // Opens a span whose end is set by close().
  int open(std::string name, int parent) {
    return add(std::move(name), parent, Clock::now(), Clock::now());
  }
  void close(int id) {
    if (id >= 0) { m_spans[static_cast<std::size_t>(id)].end_us = us(Clock::now()); }
  }

  bool write(const std::string& path, const std::string& trace_id) const {
    std::ofstream os(path);
    os.precision(17);
    os << "{\"trace_id\": \"" << trace_id << "\", \"spans\": [\n";
    for (std::size_t i = 0; i < m_spans.size(); ++i) {
      const Span& s = m_spans[i];
      os << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
         << s.name << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
         << ", \"attrs\": {";
      for (std::size_t k = 0; k < s.attrs.size(); ++k) {
        os << (k ? ", " : "") << '"' << s.attrs[k].first << "\": " << s.attrs[k].second;
      }
      os << "}}" << (i + 1 < m_spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - m_epoch).count();
  }

  bool m_on;
  Clock::time_point m_epoch;
  std::vector<Span> m_spans;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-step samples of all rounds (untraced quantities only). step_s is read
// from the metric clock (process CPU time on one-thread workloads, wall time
// otherwise); wall_s always from the wall clock, for comparison.
struct Samples {
  std::vector<double> step_s, wall_s;       // own clocks around each step()
  std::vector<double> round_s, round_wall_s; // their sums per round
  double cells = 0, particles = 0;          // sums of N_c, N_p read before each step
};

mrpic::scenario::ScenarioSpec make_spec(const Args& a) {
  auto spec = mrpic::scenario::ScenarioRegistry::instance().make(a.scenario);
  for (std::size_t s = 0; s < spec.species.size(); ++s) {
    spec.species[s].injector.seed = a.seed * 1000003ULL + s;
  }
  return spec;
}

// Physics checks of the laser workloads (lwfa_mr) and of the periodic
// thermal plasma (uniform_psatd); the restart and finiteness checks run on
// every workload.
class Physics {
public:
  explicit Physics(const mrpic::scenario::ScenarioSpec& spec)
      : m_laser(!spec.lasers.empty()), m_periodic(spec.sim.periodic[0] && spec.sim.periodic[1]) {
    if (m_laser) {
      const auto& lc = spec.lasers.front();
      m_a0_cfg = lc.a0;
      m_a0_per_field = q_e / (m_e * lc.omega() * c);
      const double e0 = lc.peak_field();
      m_pulse_energy = eps0 * e0 * e0 * pi * lc.waist * c * lc.duration / 4;
    }
  }

  // After set-up, before the first timed step.
  void at_setup(Sim& sim) {
    if (m_periodic) {
      m_totals0 = totals(containers(sim));
      m_energy0 = total_energy(sim);
    }
    if (m_laser) { m_e_sample = sim.fields().E(); } // holds E at the a0 sample
  }

  bool sample_due(int step) const {
    return m_laser && (step == kA0Step || (step >= kLaserEnergyFrom &&
                                           (step - kLaserEnergyFrom) % kEnergyEvery == 0));
  }

  // Untimed samples between two steps.
  void sample(Sim& sim) {
    const int step = sim.step_count();
    if (step == kA0Step) {
      m_e_sample = sim.fields().E();
      m_a0 = peak_a0_error(m_e_sample);
    }
    if (step >= kLaserEnergyFrom) {
      m_laser_energy = std::max(m_laser_energy, laser_energy_error(sim, sim.fields().E()));
    }
  }

  // After the timed steps of the last round; may advance `sim`.
  std::vector<Check> final_checks(Sim& sim, const Args& args,
                                  const mrpic::scenario::ScenarioSpec& spec, Tracer& tr,
                                  int parent) {
    std::vector<Check> out;
    if (m_laser) {
      out.push_back({"peak_a0_rel_error", m_a0, kA0Bound});
      m_laser_energy = std::max(m_laser_energy, laser_energy_error(sim, sim.fields().E()));
      out.push_back({"laser_energy_rel_error", m_laser_energy, kLaserEnergyBound});
      // Self-tests: a 10% stronger E fails both.
      out.push_back(
          {"peak_a0_rel_error[E*1.1]", peak_a0_error(scaled(m_e_sample, 1.1)), kA0Bound, true});
      out.push_back({"laser_energy_rel_error[E*1.1]",
                     laser_energy_error(sim, scaled(sim.fields().E(), 1.1)), kLaserEnergyBound,
                     true});
    }
    if (m_periodic) {
      const auto pcs = containers(sim);
      const Totals t = totals(pcs);
      out.push_back({"particle_count_change", std::fabs(double(t.count - m_totals0.count)), 0});
      out.push_back({"charge_rel_change", rel(t.charge, m_totals0.charge), kChargeBound});
      out.push_back({"energy_rel_drift", rel(total_energy(sim), m_energy0), kEnergyDriftBound});
      // Self-tests on copies: one macroparticle dropped; momenta scaled by 1.01.
      PC dropped = sim.species_level0(0);
      for (int i = 0; i < dropped.num_tiles(); ++i) {
        if (dropped.tile(i).size() > 0) {
          dropped.tile(i).erase(0);
          break;
        }
      }
      const Totals td = totals({&dropped});
      out.push_back({"particle_count_change[-1 particle]",
                     std::fabs(double(td.count - m_totals0.count)), 0, true});
      out.push_back(
          {"charge_rel_change[-1 particle]", rel(td.charge, m_totals0.charge), kChargeBound, true});
      PC hot = sim.species_level0(0);
      for (int i = 0; i < hot.num_tiles(); ++i) {
        for (auto& u : hot.tile(i).u) {
          for (double& v : u) { v *= 1.01; }
        }
      }
      const double w_hot = field_energy(sim.fields().E(), sim.fields().B(), sim.geom()) +
                           kinetic_energy({&hot});
      out.push_back({"energy_rel_drift[u*1.01]", rel(w_hot, m_energy0), kEnergyDriftBound, true});

      // Continuity over one untimed step, from the level-0 clouds around it.
      const Cloud before = level0_cloud(sim);
      const double dt = sim.dt();
      sim.step();
      const Cloud after = level0_cloud(sim);
      const MF& J = sim.fields().J();
      out.push_back({"continuity_residual",
                     continuity_residual(before, after, J, sim.geom(), dt), kContinuityBound});
      out.push_back({"continuity_residual[J*1.01]",
                     continuity_residual(before, after, scaled(J, 1.01), sim.geom(), dt),
                     kContinuityBound, true});
    }

    out.push_back({"nonfinite_values", double(count_nonfinite(sim)), 0});

    // Restart identity: checkpoint, restore into a fresh build of the same
    // spec, advance both, compare bit for bit.
    const std::string path = args.out + "/ckpt-" + args.workload + "-" +
                             std::to_string(::getpid()) + ".bin";
    int id = tr.open("checkpoint_write", parent);
    const bool wrote = mrpic::io::write_checkpoint(path, sim);
    tr.close(id);
    auto restored = mrpic::scenario::build_simulation(spec);
    id = tr.open("checkpoint_read", parent);
    const bool read = wrote && mrpic::io::read_checkpoint(path, *restored);
    tr.close(id);
    std::remove(path.c_str());
    double diff = 1;
    if (read) {
      for (int k = 0; k < kRestartSteps; ++k) {
        sim.step();
        restored->step();
      }
      diff = double(count_differing_arrays(sim, *restored));
    }
    out.push_back({"restart_differing_arrays", diff, 0});
    // Self-tests on the restored copy: one flipped momentum, then one NaN in E.
    auto& pc = restored->species_level0(0);
    for (int i = 0; i < pc.num_tiles(); ++i) {
      if (pc.tile(i).size() > 0) {
        pc.tile(i).u[0][0] = -pc.tile(i).u[0][0];
        break;
      }
    }
    out.push_back({"restart_differing_arrays[flipped u]",
                   double(count_differing_arrays(sim, *restored)), 0, true});
    restored->fields().E().fab(0).data()[0] = std::nan("");
    out.push_back({"nonfinite_values[NaN in E]", double(count_nonfinite(*restored)), 0, true});
    return out;
  }

private:
  static double rel(double now, double ref) { return std::fabs(now / ref - 1); }

  static MF scaled(const MF& src, double f) {
    MF out = src;
    for (int m = 0; m < out.num_fabs(); ++m) {
      auto& fab = out.fab(m);
      for (std::size_t i = 0; i < fab.size(); ++i) { fab.data()[i] *= f; }
    }
    return out;
  }

  double total_energy(const Sim& sim) const {
    return field_energy(sim.fields().E(), sim.fields().B(), sim.geom()) +
           kinetic_energy(containers(sim));
  }
  double peak_a0_error(const MF& E) const {
    return rel(m_a0_per_field * max_abs_valid(E, 2), m_a0_cfg);
  }
  double laser_energy_error(const Sim& sim, const MF& E) const {
    const double w = field_energy(E, sim.fields().B(), sim.geom()) +
                     kinetic_energy(containers(sim));
    return rel(w, m_pulse_energy);
  }

  bool m_laser, m_periodic;
  double m_a0_cfg = 0, m_a0_per_field = 0, m_pulse_energy = 0;
  double m_a0 = NAN, m_laser_energy = 0;
  MF m_e_sample;
  Totals m_totals0;
  double m_energy0 = 0;
};

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const Args args = parse(argc, argv);
  if (mrpic::num_threads() != args.threads) {
    std::fprintf(stderr, "perfbench_e2e: program runs %d threads, workload needs %d\n",
                 mrpic::num_threads(), args.threads);
    return 3;
  }

  // The clock of every timing metric: the process CPU clock on a one-thread
  // workload, where it excludes the time the host gave to others; the wall
  // clock from the start of main otherwise (idle worker threads would count
  // as CPU time). Spans and the step-region comparison use the wall clock.
  const bool cpu_clock = args.threads == 1;
  const auto metric_now = [&] {
    return cpu_clock ? cpu_seconds() : seconds_between(t_start, Clock::now());
  };

  Tracer tr(args.trace, t_start);
  const int run_span = tr.open("run", -1);
  const auto spec = make_spec(args);

  Samples smp;
  double setup_s = 0, setup_wall_s = 0, build_s = 0, init_s = 0;
  std::int64_t attempted = 0, failed = 0;
  int rounds = 0, shifts = 0;
  bool round_clean = true;
  double rss_mib = 0;
  std::vector<Check> checks;

  while (true) {
    const int round_span = tr.open("round", run_span);
    const auto t_build = Clock::now();
    const double m_build = metric_now();
    mrpic::scenario::BuildOptions opts;
    opts.init = false;
    auto sim = mrpic::scenario::build_simulation(spec, opts);
    const auto t_init = Clock::now();
    const double m_init = metric_now();
    sim->init();
    mrpic::scenario::apply_species_drifts(*sim, spec);
    const double m_ready = metric_now();
    const auto t_ready = Clock::now();
    tr.add("build", round_span, t_build, t_init);
    tr.add("init", round_span, t_init, t_ready);
    if (rounds == 0) { // the cold set-up, from the start of the process
      setup_s = m_ready;
      setup_wall_s = seconds_between(t_start, t_ready);
      build_s = m_init - m_build;
      init_s = m_ready - m_init;
      if (args.setup_only) {
        std::printf("setup_s %.17g\n", setup_s);
        return 0;
      }
    }

    Physics physics(spec);
    physics.at_setup(*sim);
    double solve = 0, solve_wall = 0;
    for (int s = 0; s < args.steps; ++s) {
      if (physics.sample_due(sim->step_count())) { physics.sample(*sim); }
      const auto nc = sim->active_cells();
      const auto np = sim->total_particles();
      const double lo = sim->geom().prob_lo()[0];
      ++attempted;
      const auto t0 = Clock::now();
      const double m0 = metric_now();
      try {
        sim->step();
      } catch (const std::exception& e) {
        std::printf("step %d failed: %s\n", sim->step_count(), e.what());
        ++failed;
        round_clean = false;
        break;
      }
      const double m1 = metric_now();
      const auto t1 = Clock::now();
      smp.step_s.push_back(m1 - m0);
      smp.wall_s.push_back(seconds_between(t0, t1));
      smp.cells += static_cast<double>(nc);
      smp.particles += static_cast<double>(np);
      solve += smp.step_s.back();
      solve_wall += smp.wall_s.back();
      if (tr.on()) {
        const auto& rep = sim->last_step_report();
        const bool shifted = sim->geom().prob_lo()[0] != lo;
        shifts += shifted ? 1 : 0;
        std::vector<std::pair<std::string, double>> attrs = {
            {"step", double(rep.step)},
            {"n_cells", double(nc)},
            {"n_particles", double(np)},
            {"particles_pushed", double(rep.particles_pushed)},
            {"window_shift", shifted ? 1.0 : 0.0},
            {"region.step", rep.region("step")}};
        for (const char* st : kStages) {
          attrs.emplace_back(std::string("region.") + st, rep.region(st));
        }
        tr.add("step", round_span, t0, t1, std::move(attrs));
      }
    }
    ++rounds;
    smp.round_s.push_back(solve);
    smp.round_wall_s.push_back(solve_wall);
    const bool last = !round_clean || seconds_between(t_start, Clock::now()) >= args.seconds;
    if (last) {
      rss_mib = peak_rss_mib(); // before any check allocates
      if (round_clean) {
        const int check_span = tr.open("checks", round_span);
        checks = physics.final_checks(*sim, args, spec, tr, check_span);
        tr.close(check_span);
      }
    }
    tr.close(round_span);
    if (last) { break; }
  }
  tr.close(run_span);

  const std::size_t n = smp.step_s.size();
  if (n == 0) {
    std::fprintf(stderr, "perfbench_e2e: no step completed\n");
    return 4;
  }
  double step_sum = 0;
  for (const double s : smp.step_s) { step_sum += s; }
  const double mean_step = step_sum / double(n);
  const double fom =
      (0.1 * smp.cells / double(n) + 0.9 * smp.particles / double(n)) / mean_step;
  // The median step is printed but not reported: the shared host alternates
  // between two speeds for seconds to minutes at a time, and the median of a
  // run jumps between them with the share of the run spent in each.
  const double step_ms_p50 = quantile(smp.step_s, 0.5) * 1e3;
  const std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"solve_s", quantile(smp.round_s, 0.5), "s"},
      {"step_ms_p90", quantile(smp.step_s, 0.9) * 1e3, "ms"},
      {"fom", fom, "1/s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };

  std::vector<Metric> layers;
  if (tr.on()) {
    // Per-layer metrics from the step spans: means per timed step.
    double sum[std::size(kStages)] = {}, region_step = 0, clock = 0, unattributed = 0;
    double pushed = 0, cells = 0, particles = 0;
    std::size_t steps = 0;
    for (const Span& sp : tr.spans()) {
      if (sp.name != "step") { continue; }
      ++steps;
      const double dur = (sp.end_us - sp.start_us) * 1e-6;
      double staged = 0;
      for (std::size_t k = 0; k < std::size(kStages); ++k) {
        const double v = sp.attr(std::string("region.") + kStages[k]);
        sum[k] += v;
        staged += v;
      }
      clock += dur;
      unattributed += dur - staged;
      region_step += sp.attr("region.step");
      pushed += sp.attr("particles_pushed");
      cells += sp.attr("n_cells");
      particles += sp.attr("n_particles");
    }
    const auto stage = [&](const char* name) {
      for (std::size_t k = 0; k < std::size(kStages); ++k) {
        if (std::strcmp(kStages[k], name) == 0) { return sum[k]; }
      }
      return 0.0;
    };
    const double per = 1e3 / double(steps);
    layers = {
        {"particles.stage_ms", stage("particles") * per, "ms"},
        {"particles.ns_per_push", stage("particles") / pushed * 1e9, "ns"},
        {"particles.count", particles / double(steps), "count"},
        {"field_solve.stage_ms", stage("field_solve") * per, "ms"},
        {"field_solve.ns_per_cell", stage("field_solve") / cells * 1e9, "ns"},
        {"field_solve.cells", cells / double(steps), "count"},
        {"mr_aux.stage_ms", stage("mr_aux") * per, "ms"},
        {"current_sync.stage_ms", stage("current_sync") * per, "ms"},
        {"moving_window.stage_ms", stage("moving_window") * per, "ms"},
        {"moving_window.shifts", double(shifts) / double(rounds), "count"},
        {"redistribute.stage_ms", stage("redistribute") * per, "ms"},
        {"core.unattributed_ms", unattributed * per, "ms"},
        {"setup.build_s", build_s, "s"},
        {"setup.init_s", init_s, "s"},
    };
    std::printf("laser.stage_ms %.6f ms (not a reported metric)\n", stage("laser") * per);
    checks.push_back({"step_clock_vs_step_region", std::fabs(region_step / clock - 1),
                      kClockBound});
    char id[32];
    std::snprintf(id, sizeof(id), "%016llx",
                  static_cast<unsigned long long>(t_start.time_since_epoch().count()) ^
                      (static_cast<unsigned long long>(::getpid()) << 40));
    const std::string path =
        args.out + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
    if (!tr.write(path, id)) {
      std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", path.c_str());
      return 5;
    }
    std::printf("spans: %zu written to %s\n", tr.spans().size(), path.c_str());
  }

  // A failed step ends the run before the final-state checks; `correct`
  // then speaks only of the checks that ran.
  bool correct = !(round_clean && checks.empty());
  for (const Check& ch : checks) {
    std::printf("check %-40s %-5s value %.6g bound %.3g%s\n", ch.name.c_str(),
                ch.pass() ? "pass" : "FAIL", ch.value, ch.bound,
                ch.self_test ? " (broken copy: must fail)" : "");
    correct = correct && ch.pass();
  }
  std::printf("workload %s: scenario %s, %d thread(s), %d steps x %d round(s), seed %llu\n",
              args.workload.c_str(), args.scenario.c_str(), args.threads, args.steps, rounds,
              static_cast<unsigned long long>(args.seed));
  std::printf("step samples: %zu; metric clock: %s\n", n,
              cpu_clock ? "process CPU time" : "wall time");
  std::printf("step_ms_p50 %.6g ms (not a reported metric)\n", step_ms_p50);
  if (cpu_clock) { // the wall-clock reading of the same quantities, not metrics
    std::printf("wall: setup %.6g s, solve %.6g s, step p50 %.6g ms, p90 %.6g ms\n",
                setup_wall_s, quantile(smp.round_wall_s, 0.5),
                quantile(smp.wall_s, 0.5) * 1e3, quantile(smp.wall_s, 0.9) * 1e3);
  }
  for (const auto& m : e2e) { std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str()); }
  for (const auto& m : layers) { std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str()); }
  std::printf("attempted %lld failed %lld correct %s\n", static_cast<long long>(attempted),
              static_cast<long long>(failed), correct ? "true" : "false");
  std::fflush(stdout);
  print_json(correct, attempted, failed, tr.on() ? layers : e2e);
  return 0;
}
