#pragma once

// Simulation<DIM>: the top-level PIC driver, orchestrating the explicit PIC
// cycle of paper Fig. 3 (field gather -> particle push -> current deposition
// -> Maxwell solve) together with every capability of Table I that the
// science case needs: high-order shapes, moving window, mesh refinement,
// PML-terminated boundaries, and dynamic load balancing.
//
// Particles live in per-level containers: a level-0 container tiled on the
// level-0 BoxArray, and (when an MR patch is active) a patch container for
// particles in the patch interior, which gather from the auxiliary fields
// and deposit onto the fine grid. Particles migrate between the containers
// as they cross the patch interior boundary.

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/amr/config.hpp"
#include "src/cluster/sim_cluster.hpp"
#include "src/health/monitor.hpp"
#include "src/insitu/reductions.hpp"
#include "src/insitu/registry.hpp"
#include "src/dist/load_balancer.hpp"
#include "src/obs/memory.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/rank_recorder.hpp"
#include "src/obs/step_report.hpp"
#include "src/fields/fdtd.hpp"
#include "src/fields/field_set.hpp"
#include "src/fields/moving_window.hpp"
#include "src/fields/pml.hpp"
#include "src/fields/psatd.hpp"
#include "src/laser/laser_antenna.hpp"
#include "src/mr/mr_patch.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/pusher.hpp"
#include "src/plasma/plasma_injector.hpp"
#include "src/resil/checkpoint_policy.hpp"

namespace mrpic::core {

// Maxwell solver selection (paper Table I: FDTD is the standard recipe;
// PSATD is WarpX's spectral extension — periodic single-box domains only).
enum class MaxwellSolver { FDTD, PSATD };

template <int DIM>
struct SimulationConfig {
  // Domain.
  mrpic::Box<DIM> domain;                      // cell index box
  mrpic::RealVect<DIM> prob_lo{}, prob_hi{};   // physical extents [m]
  std::array<bool, DIM> periodic{};
  mrpic::IntVect<DIM> max_grid_size = mrpic::IntVect<DIM>(64);

  // Numerics.
  MaxwellSolver maxwell = MaxwellSolver::FDTD;
  int shape_order = 3;
  particles::DepositionKind deposition = particles::DepositionKind::Esirkepov;
  particles::PusherKind pusher = particles::PusherKind::Boris;
  Real cfl = Real(0.98);
  // Override the CFL-derived time step (e.g. to compare MR and no-MR runs
  // at the same dt). Must respect the finest-level CFL limit. 0 = derive.
  Real forced_dt = 0;

  // Boundaries: PML on all non-periodic directions when true, otherwise
  // perfect-conductor-like (zero ghost) boundaries.
  bool use_pml = false;
  fields::PmlConfig pml{};

  // Particle housekeeping.
  int sort_interval = 20; // counting-sort tiles every N steps (0 = never)

  // Dynamic load balancing (box->rank mapping + cost accounting).
  bool dynamic_lb = false;
  int lb_interval = 10;
  dist::LoadBalanceConfig lb{};
  int nranks = 1;

  // Mesh refinement: when the moving window has advanced past this physical
  // x, the patch is removed (NaN = never remove automatically).
  Real mr_remove_when_lo_above = std::numeric_limits<Real>::quiet_NaN();
};

// Memory observability (enable_memory_obs): publish the process-global
// obs::MemoryLedger per step as mem_* gauges, keep the per-species particle
// accounts fresh, and (with cluster obs on) feed the per-rank resident-bytes
// model into the RankRecorder's memory lanes.
struct MemoryObsConfig {
  int interval = 1;           // gauge/account refresh cadence (steps)
  // Per-rank (per-device) memory budget in GiB for the OOM headroom gauge
  // and first-rank-to-OOM prediction, e.g. a machine-table HBM capacity
  // (perf::Machine::hbm_gb_device). 0 = no budget tracking.
  double node_budget_gb = 0;

  double budget_bytes() const { return node_budget_gb * 1024.0 * 1024.0 * 1024.0; }
};

template <int DIM>
class Simulation {
public:
  explicit Simulation(SimulationConfig<DIM> cfg);

  // --- setup (call before init()) -------------------------------------
  // Register a species; returns its index.
  int add_species(particles::Species sp);
  // Register a species with a plasma injector (loaded at init; refreshed at
  // the leading edge when the moving window advances).
  int add_species(particles::Species sp, plasma::InjectorConfig<DIM> injector);
  void add_laser(const laser::LaserConfig& cfg);
  void set_moving_window(int dir, Real speed, Real start_time = 0);
  void enable_mr_patch(const typename mr::MRPatch<DIM>::Config& cfg);

  // Build fields/PML/patch and load the initial plasma.
  void init();

  // --- run -------------------------------------------------------------
  void step();
  void run(int nsteps) {
    for (int i = 0; i < nsteps; ++i) { step(); }
  }

  // --- accessors ---------------------------------------------------------
  Real time() const { return m_time; }
  Real dt() const { return m_dt; }
  int step_count() const { return m_step; }
  const mrpic::Geometry<DIM>& geom() const { return m_fields.geom(); }
  fields::FieldSet<DIM>& fields() { return m_fields; }
  const fields::FieldSet<DIM>& fields() const { return m_fields; }
  fields::Pml<DIM>* domain_pml() { return m_pml ? m_pml.get() : nullptr; }
  mr::MRPatch<DIM>* patch() { return m_patch ? m_patch.get() : nullptr; }
  const mr::MRPatch<DIM>* patch() const { return m_patch ? m_patch.get() : nullptr; }

  int num_species() const { return static_cast<int>(m_species.size()); }
  particles::ParticleContainer<DIM>& species_level0(int s) { return m_species[s].level0; }
  particles::ParticleContainer<DIM>& species_patch(int s) { return m_species[s].patch; }
  const particles::ParticleContainer<DIM>& species_level0(int s) const {
    return m_species[s].level0;
  }
  const particles::ParticleContainer<DIM>& species_patch(int s) const {
    return m_species[s].patch;
  }
  // Total macroparticles of species s across levels.
  std::int64_t num_particles(int s) const {
    return m_species[s].level0.total_particles() + m_species[s].patch.total_particles();
  }
  std::int64_t total_particles() const {
    std::int64_t n = 0;
    for (int s = 0; s < num_species(); ++s) { n += num_particles(s); }
    return n;
  }
  // Cells advanced per step (level 0 + active patch grids).
  std::int64_t active_cells() const {
    std::int64_t n = geom().domain().num_cells();
    if (m_patch && m_patch->active()) { n += m_patch->extra_cells(); }
    return n;
  }

  // --- observability -----------------------------------------------------
  // Hierarchical region profiler (enable tracing on it to collect Chrome
  // trace events; export with obs::write_chrome_trace).
  obs::Profiler& profiler() { return m_profiler; }
  const obs::Profiler& profiler() const { return m_profiler; }
  // Unified step-metrics registry (particles pushed, cells advanced, load
  // imbalance, ...); one StepRecord is appended per step.
  obs::MetricsRegistry& metrics() { return m_metrics; }
  const obs::MetricsRegistry& metrics() const { return m_metrics; }
  // Summary of the most recent step (valid once step() has run).
  const obs::StepReport& last_step_report() const { return m_report; }
  // Invoked at the end of every step with that step's report.
  void set_step_callback(std::function<void(const obs::StepReport&)> cb) {
    m_step_callback = std::move(cb);
  }

  // Cluster-level observability: evaluate the simulated cluster
  // (cfg.nranks ranks, `cm` wire model) against the level-0 decomposition
  // every step, capturing the per-rank compute/comm breakdown, the
  // message-level halo log and load-balancer rebalance snapshots into
  // rank_recorder(), per-rank sections into metrics(), and rank lanes into
  // any Chrome trace exported with the recorder. `cost_unit_s` converts the
  // load balancer's heuristic cost units (cells + weighted particles) into
  // modeled seconds. Callable before or after init().
  void enable_cluster_obs(cluster::CommModel cm = {}, double cost_unit_s = 1e-8);
  bool cluster_obs_enabled() const { return m_cluster != nullptr; }
  obs::RankRecorder& rank_recorder() { return m_rank_recorder; }
  const obs::RankRecorder& rank_recorder() const { return m_rank_recorder; }
  // The simulated cluster behind enable_cluster_obs() (nullptr before); the
  // handle through which a fault model attaches (SimCluster::set_faults).
  cluster::SimCluster* sim_cluster() { return m_cluster.get(); }

  // --- memory observability ----------------------------------------------
  // Per-step publication of the process-global obs::MemoryLedger: mem_*
  // gauges in metrics() (total/high-water/per-subsystem bytes, MR savings
  // factor), per-species particle byte accounts, and — when cluster obs is
  // enabled — per-rank resident-bytes lanes in rank_recorder() (exported by
  // write_memory_heatmap_csv) plus budget-headroom gauges. The probe runs
  // inside a "memory" profiler region so its overhead is attributable (and
  // gated <= 1% of the lwfa_mr step by bench_observers). Callable before or
  // after init().
  void enable_memory_obs(MemoryObsConfig cfg = {});
  bool memory_obs_enabled() const { return m_memory_enabled; }
  const MemoryObsConfig& memory_obs_config() const { return m_memory_cfg; }
  // Structural inputs for the analytic MR memory-savings model, taken from
  // the live box layout (cells/particles, no ledger involved) — the
  // cross-check for the ledger-measured factor.
  obs::MrSavingsInputs mr_savings_inputs() const;
  // Ledger-measured MR savings factor (uniform-fine-equivalent / actual).
  obs::MrSavings measured_mr_savings() const {
    const int ratio = m_patch && m_patch->active() ? m_patch->config().ratio : 1;
    return obs::measure_mr_savings(obs::memory_ledger(), ratio, DIM);
  }
  // Modeled per-rank resident bytes of the most recent observed step (empty
  // until cluster obs + memory obs have both run).
  const std::vector<std::int64_t>& last_rank_resident_bytes() const {
    return m_last_rank_resident;
  }

  // --- simulation health --------------------------------------------------
  // In-situ invariant ledger + NaN/stability watchdog (src/health). At the
  // configured cadences each step assembles a LedgerSample (energies, charge,
  // particle accounting, CFL margin, max gamma, optional NaN scan and
  // Gauss/continuity residuals on every active level) inside a "health"
  // profiler region, so probe overhead is attributable like any other stage.
  // Watchdog alert actions are honored at the end of the step: checkpoint-now
  // arms the checkpoint policy (set_checkpoint_policy), abort throws
  // health::AbortError.
  // Callable before or after init().
  void enable_health(health::MonitorConfig cfg = {});
  bool health_enabled() const { return m_health != nullptr; }
  health::HealthMonitor* health() { return m_health.get(); }
  const health::HealthMonitor* health() const { return m_health.get(); }

  // --- unified event timeline ---------------------------------------------
  // Route every event emitter through one severity-leveled obs::EventLog
  // (non-owning; the driver owns it): health alerts, resil fault/checkpoint/
  // recovery events and rebalance snapshots (both via the RankRecorder), and
  // an "init" lifecycle event when init() runs. Callable before or after
  // enable_health()/enable_cluster_obs() — the wiring survives either order.
  void enable_event_log(obs::EventLog* log);
  obs::EventLog* event_log() { return m_event_log; }

  // --- in-situ physics diagnostics ----------------------------------------
  // Reduced physics diagnostics (insitu::Registry) at the configured
  // cadences: beam moments/emittance, energy-spectrum peak/FWHM, laser
  // a0/centroid, wakefield amplitude, per-level field energy — computed at
  // the end of each due step inside an "insitu" profiler region, published
  // as insitu_* gauges and appended (+flushed) to the JSONL series. When
  // cfg.stream_interval > 0 and cfg.stream.basename is set, downsampled
  // field slices and a beam phase-space histogram are additionally exported
  // as rotating binary stream frames (insitu::StreamWriter).
  // Callable before or after init().
  void enable_insitu(insitu::InsituConfig cfg = {});
  bool insitu_enabled() const { return m_insitu != nullptr; }
  insitu::Registry* insitu() { return m_insitu.get(); }
  const insitu::Registry* insitu() const { return m_insitu.get(); }
  const insitu::InsituConfig& insitu_config() const { return m_insitu_cfg; }
  insitu::StreamWriter* insitu_stream() { return m_insitu_stream.get(); }

  // Cumulative particle-loss accounting (also in the ledger): particles that
  // left the domain through boundaries / were dropped at the moving-window
  // trailing edge.
  std::int64_t particles_escaped() const { return m_escaped_total; }
  std::int64_t particles_swept() const { return m_swept_total; }

  // dt ceiling of the finest active level at cfl = 1 (set by init);
  // cfl_margin in the ledger is 1 - dt / this.
  Real cfl_limit_dt() const { return m_cfl_limit_dt; }

  // --- resilience ---------------------------------------------------------
  // Automatic checkpointing: after each step the policy accrues that step's
  // wall seconds; when it fires, `writer` is invoked (e.g. a lambda around
  // io::write_checkpoint), its wall cost is measured and folded back into
  // the policy (Young/Daly interval adaptation), and counter "checkpoints" /
  // gauge "checkpoint_cost_s" are published to metrics().
  using CheckpointWriter = std::function<bool(Simulation&)>;
  void set_checkpoint_policy(resil::CheckpointPolicy policy, CheckpointWriter writer) {
    m_ckpt_policy = std::move(policy);
    m_ckpt_writer = std::move(writer);
  }
  const resil::CheckpointPolicy* checkpoint_policy() const {
    return m_ckpt_policy ? &*m_ckpt_policy : nullptr;
  }

  // Elastic shrink after a simulated rank crash: re-home the dead rank's
  // boxes onto the survivors (resil::remap_after_failure keeps survivor
  // assignments, compacts rank ids), drop cfg.nranks by one and rebuild the
  // simulated cluster at the new size. Records a rebalance snapshot. The
  // physics state is untouched — ranks only exist in the cluster model.
  void remove_rank(int dead_rank);

  const SimulationConfig<DIM>& config() const { return m_cfg; }
  const dist::DistributionMapping& dist_map() const { return m_dm; }
  const dist::LoadBalancer& load_balancer() const { return m_lb; }
  fields::MovingWindow<DIM>& window() { return m_window; }

  // Restart support (io::read_checkpoint): set the clock/step counter after
  // the field and particle state has been restored.
  void set_time_and_step(Real time, int step) {
    m_time = time;
    m_step = step;
  }

  // Total kinetic + field energy [J] (energy-conservation checks).
  Real total_energy() const;

private:
  // pic_step.cpp:
  void advance_particles();
  void solve_fields();
  void apply_moving_window();
  void migrate_patch_particles();
  void maybe_remove_patch();
  void maybe_rebalance();
  void maybe_checkpoint();
  void observe_cluster(std::int64_t step);
  // Health probes (pic_step.ipp): rho_old deposit at step start, rho_new + J
  // snapshots right after the particle advance (before the laser/MR current
  // couplings), ledger assembly + watchdog evaluation at step end.
  void begin_health_probe();
  void snapshot_health_currents();
  void observe_health(std::int64_t step);
  // Memory probe (pic_step.ipp): refresh particle accounts, model per-rank
  // resident bytes, publish mem_* gauges.
  void observe_memory(std::int64_t step);
  void refresh_particle_mem_accounts();
  std::vector<std::int64_t> model_rank_resident_bytes() const;
  void register_insitu_diagnostics();
  void maybe_stream_insitu(std::int64_t step);
  void exchange_level0();
  // Per-box cost heuristic (cells + weighted particle counts) shared by the
  // load balancer and the cluster observer.
  std::vector<Real> box_cost_heuristic() const;

  struct SpeciesData {
    particles::ParticleContainer<DIM> level0;
    particles::ParticleContainer<DIM> patch;
    std::optional<plasma::InjectorConfig<DIM>> injector;
  };

  // Private per-level charge/current copies for the residual probes; the
  // snapshots carry their own sum_boundary so the physics-path J is never
  // touched. Rebuilt on probe steps only.
  struct HealthScratch {
    bool level0_valid = false;
    bool fine_valid = false;
    mrpic::MultiFab<DIM> rho_old0, rho_new0, J0;
    mrpic::MultiFab<DIM> rho_oldf, rho_newf, Jf;
  };

  SimulationConfig<DIM> m_cfg;
  fields::FieldSet<DIM> m_fields;
  fields::FDTDSolver<DIM> m_solver;
  std::unique_ptr<fields::PsatdSolver<DIM>> m_psatd;
  std::unique_ptr<fields::Pml<DIM>> m_pml;
  std::unique_ptr<mr::MRPatch<DIM>> m_patch;
  std::vector<SpeciesData> m_species;
  std::vector<laser::LaserAntenna<DIM>> m_lasers;
  fields::MovingWindow<DIM> m_window;
  dist::DistributionMapping m_dm;
  dist::LoadBalancer m_lb;
  obs::Profiler m_profiler;
  obs::MetricsRegistry m_metrics;
  std::unique_ptr<cluster::SimCluster> m_cluster; // set by enable_cluster_obs()
  obs::RankRecorder m_rank_recorder;
  double m_cluster_cost_unit_s = 1e-8;
  obs::StepReport m_report;
  std::function<void(const obs::StepReport&)> m_step_callback;
  std::optional<resil::CheckpointPolicy> m_ckpt_policy;
  CheckpointWriter m_ckpt_writer;
  std::unique_ptr<health::HealthMonitor> m_health; // set by enable_health()
  obs::EventLog* m_event_log = nullptr;            // set by enable_event_log()
  std::unique_ptr<HealthScratch> m_hscratch;
  bool m_memory_enabled = false;                   // set by enable_memory_obs()
  MemoryObsConfig m_memory_cfg;
  // Per-species ledger accounts ("particles.<name>.level0" / ".patch"),
  // refreshed from live tile sizes on memory-probe steps.
  struct SpeciesMem {
    obs::MemCharge level0, patch;
  };
  std::vector<SpeciesMem> m_mem_particles;
  std::vector<std::int64_t> m_last_rank_resident;
  std::unique_ptr<insitu::Registry> m_insitu;      // set by enable_insitu()
  insitu::InsituConfig m_insitu_cfg;
  std::unique_ptr<insitu::StreamWriter> m_insitu_stream;
  Real m_cfl_limit_dt = 0;
  std::int64_t m_escaped_total = 0;
  std::int64_t m_swept_total = 0;
  bool m_window_shifted = false; // grid scrolled this step (Gauss probe skips)

  // Reused per-tile scratch.
  particles::GatheredFields m_gathered;
  std::array<std::vector<Real>, DIM> m_x_old;

  Real m_time = 0;
  Real m_dt = 0;
  int m_step = 0;
  bool m_initialized = false;
};

extern template class Simulation<2>;
extern template class Simulation<3>;

} // namespace mrpic::core
