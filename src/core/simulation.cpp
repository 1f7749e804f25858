#include "src/core/simulation.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/event_log.hpp"
#include "src/particles/shape.hpp"
#include "src/resil/recovery.hpp"

namespace mrpic::core {

template <int DIM>
Simulation<DIM>::Simulation(SimulationConfig<DIM> cfg) : m_cfg(std::move(cfg)), m_lb(m_cfg.lb) {
  m_lb.set_metrics(&m_metrics);
}

template <int DIM>
int Simulation<DIM>::add_species(particles::Species sp) {
  assert(!m_initialized);
  m_species.push_back(SpeciesData{particles::ParticleContainer<DIM>(sp, {}),
                                  particles::ParticleContainer<DIM>(sp, {}), std::nullopt});
  return static_cast<int>(m_species.size()) - 1;
}

template <int DIM>
int Simulation<DIM>::add_species(particles::Species sp, plasma::InjectorConfig<DIM> injector) {
  const int id = add_species(std::move(sp));
  m_species[id].injector = std::move(injector);
  return id;
}

template <int DIM>
void Simulation<DIM>::add_laser(const laser::LaserConfig& cfg) {
  assert(!m_initialized);
  m_lasers.emplace_back(cfg);
}

template <int DIM>
void Simulation<DIM>::set_moving_window(int dir, Real speed, Real start_time) {
  assert(!m_initialized);
  m_window = fields::MovingWindow<DIM>(dir, speed, start_time);
}

template <int DIM>
void Simulation<DIM>::enable_cluster_obs(cluster::CommModel cm, double cost_unit_s) {
  m_cluster = std::make_unique<cluster::SimCluster>(m_cfg.nranks, cm);
  m_cluster->set_metrics(&m_metrics);
  m_cluster_cost_unit_s = cost_unit_s;
  m_rank_recorder = obs::RankRecorder(m_cfg.nranks);
  m_rank_recorder.set_event_log(m_event_log);  // survive the reassignment
  m_lb.set_rank_recorder(&m_rank_recorder);
}

template <int DIM>
void Simulation<DIM>::enable_memory_obs(MemoryObsConfig cfg) {
  m_memory_cfg = cfg;
  m_memory_enabled = true;
}

template <int DIM>
obs::MrSavingsInputs Simulation<DIM>::mr_savings_inputs() const {
  obs::MrSavingsInputs in;
  in.dim = DIM;
  const bool patch = m_patch && m_patch->active();
  in.ratio = patch ? m_patch->config().ratio : 1;
  in.bytes_per_real = static_cast<int>(sizeof(Real));
  const auto& ba = m_fields.box_array();
  const int ng = m_fields.num_ghost();
  for (int i = 0; i < ba.size(); ++i) {
    in.level0_grown_cells += ba[i].grown(ng).num_cells();
  }
  in.num_particles = total_particles();
  // remove() frees the patch's storage: a removed patch costs no bytes.
  if (patch) {
    const int ngf = m_patch->fine().num_ghost();
    in.fine_grown_cells = m_patch->fine_region().grown(ngf).num_cells();
    in.coarse_grown_cells = m_patch->region().grown(ngf).num_cells();
    in.aux_grown_cells =
        m_patch->fine_region().grown(m_patch->aux_E().num_ghost()).num_cells();
    const auto pml_cells = [](const fields::Pml<DIM>& pml) {
      std::int64_t n = 0;
      const auto& fab = pml.split_fab();
      for (int i = 0; i < fab.num_fabs(); ++i) { n += fab.grown_box(i).num_cells(); }
      return n;
    };
    in.fine_pml_cells = pml_cells(m_patch->fine_pml());
    in.coarse_pml_cells = pml_cells(m_patch->coarse_pml());
  }
  return in;
}

template <int DIM>
void Simulation<DIM>::enable_health(health::MonitorConfig cfg) {
  m_health = std::make_unique<health::HealthMonitor>(std::move(cfg));
  m_health->set_metrics(&m_metrics);
  m_health->set_event_log(m_event_log);
}

template <int DIM>
void Simulation<DIM>::enable_event_log(obs::EventLog* log) {
  m_event_log = log;
  m_rank_recorder.set_event_log(log);
  // Rebalance snapshots reach the timeline through the recorder even when
  // cluster obs is off (count_rebalance publishes via add_rebalance).
  m_lb.set_rank_recorder(&m_rank_recorder);
  if (m_health) { m_health->set_event_log(log); }
}

template <int DIM>
void Simulation<DIM>::enable_insitu(insitu::InsituConfig cfg) {
  m_insitu_cfg = std::move(cfg);
  m_insitu = std::make_unique<insitu::Registry>();
  m_insitu->set_metrics(&m_metrics);
  m_insitu->set_history_limit(m_insitu_cfg.history_limit);
  if (!m_insitu_cfg.series_path.empty()) {
    m_insitu->open_series(m_insitu_cfg.series_path);
  }
  if (m_insitu_cfg.stream_interval > 0 && !m_insitu_cfg.stream.basename.empty()) {
    m_insitu_stream = std::make_unique<insitu::StreamWriter>(m_insitu_cfg.stream);
  }
  register_insitu_diagnostics();
}

template <int DIM>
void Simulation<DIM>::remove_rank(int dead_rank) {
  assert(m_initialized);
  assert(m_cfg.nranks > 1);
  assert(dead_rank >= 0 && dead_rank < m_cfg.nranks);
  const auto before = m_dm;
  m_dm = resil::remap_after_failure(m_dm, box_cost_heuristic(), dead_rank).mapping;
  m_cfg.nranks -= 1;
  if (m_cluster) {
    // Rebuild the simulated cluster at the shrunken size; keep the wire
    // model, metrics sink and any attached fault hooks.
    const auto* faults = m_cluster->faults();
    const auto cm = m_cluster->comm();
    m_cluster = std::make_unique<cluster::SimCluster>(m_cfg.nranks, cm);
    m_cluster->set_metrics(&m_metrics);
    m_cluster->set_faults(faults);
  }
  m_lb.record_costs(box_cost_heuristic());
  m_lb.count_rebalance(before, m_dm);
}

template <int DIM>
void Simulation<DIM>::enable_mr_patch(const typename mr::MRPatch<DIM>::Config& cfg) {
  assert(!m_initialized);
  const mrpic::Geometry<DIM> geom(m_cfg.domain, m_cfg.prob_lo, m_cfg.prob_hi,
                                  m_cfg.periodic);
  m_patch = std::make_unique<mr::MRPatch<DIM>>(geom, cfg);
}

template <int DIM>
void Simulation<DIM>::init() {
  assert(!m_initialized);
  // The particle kernels exist for shape orders 1-3 only.
  particles::require_shape_order(m_cfg.shape_order);
  const mrpic::Geometry<DIM> geom(m_cfg.domain, m_cfg.prob_lo, m_cfg.prob_hi,
                                  m_cfg.periodic);
  const auto ba = mrpic::BoxArray<DIM>::decompose(m_cfg.domain, m_cfg.max_grid_size);
  m_dm = dist::DistributionMapping::make(ba, m_cfg.nranks, m_cfg.lb.strategy);
  {
    obs::ScopedMemTag mem_tag("fields.level0");
    m_fields = fields::FieldSet<DIM>(geom, ba, m_dm);
  }

  if (m_cfg.maxwell == MaxwellSolver::PSATD) {
    // Spectral solve: fully periodic with power-of-two extents (the solver
    // checks the geometry), one global box, no PML/MR.
    if (ba.size() != 1) {
      throw std::invalid_argument("PSATD requires a single-box level; max_grid_size splits "
                                  "the domain into " + std::to_string(ba.size()) + " boxes");
    }
    if (m_cfg.use_pml || m_patch != nullptr) {
      throw std::invalid_argument("PSATD supports neither PML nor an MR patch");
    }
    m_psatd = std::make_unique<fields::PsatdSolver<DIM>>(geom);
  }

  if (m_cfg.use_pml) {
    std::array<bool, DIM> absorb;
    for (int d = 0; d < DIM; ++d) { absorb[d] = !m_cfg.periodic[d]; }
    obs::ScopedMemTag mem_tag("pml.level0");
    m_pml = std::make_unique<fields::Pml<DIM>>(geom, m_cfg.domain, absorb, m_cfg.pml);
  }

  // Global time step: the finest level sets the CFL limit (no subcycling,
  // paper Sec. V.B).
  m_cfl_limit_dt = m_patch ? fields::cfl_dt(geom.refined(m_patch->config().ratio), Real(1))
                           : fields::cfl_dt(geom, Real(1));
  if (m_cfg.forced_dt > 0) {
    m_dt = m_cfg.forced_dt;
  } else if (m_patch) {
    m_dt = fields::cfl_dt(geom.refined(m_patch->config().ratio), m_cfg.cfl);
  } else {
    m_dt = fields::cfl_dt(geom, m_cfg.cfl);
  }

  // Build particle containers on the final box arrays and load plasma.
  for (auto& sd : m_species) {
    const auto sp = sd.level0.species();
    sd.level0 = particles::ParticleContainer<DIM>(sp, ba);
    if (m_patch) {
      sd.patch =
          particles::ParticleContainer<DIM>(sp, mrpic::BoxArray<DIM>(m_patch->fine_region()));
    }
    if (sd.injector) {
      plasma::PlasmaInjector<DIM> inj(*sd.injector);
      inj.inject_all(sd.level0, geom);
    }
  }
  m_initialized = true;

  // Seed patch containers and the auxiliary gather fields.
  if (m_patch) {
    migrate_patch_particles();
    m_patch->build_aux(m_fields);
  }

  if (m_event_log != nullptr) {
    m_event_log->publish("lifecycle", "init", obs::EventSeverity::Info, 0, "",
                         {{"boxes", double(ba.size())},
                          {"nranks", double(m_cfg.nranks)},
                          {"particles", double(total_particles())}});
  }
}

template <int DIM>
Real Simulation<DIM>::total_energy() const {
  Real e = m_fields.field_energy();
  for (const auto& sd : m_species) {
    e += sd.level0.kinetic_energy() + sd.patch.kinetic_energy();
  }
  return e;
}

} // namespace mrpic::core

// The PIC step machinery lives in pic_step.ipp; it must be visible here so
// the explicit class instantiations below cover every member.
#include "src/core/pic_step.ipp"

namespace mrpic::core {

template class Simulation<2>;
template class Simulation<3>;

} // namespace mrpic::core
