#pragma once

// insitu::Registry — named in-situ reduced diagnostics at independent
// cadences, the physics-side sibling of health::HealthMonitor: each
// registered diagnostic is a closure that fills a flat Record of named
// scalars; collect(step) runs every diagnostic that is due, publishes each
// value as an `insitu_<diag>_<key>` gauge in the obs::MetricsRegistry, and
// appends one JSON object per record to a durable series
// (obs::json::JsonlWriter, flushed once per collect), so a crashed run's
// series survives. A rollback restores a checkpoint into the same Simulation
// (resil::ResilientRunner), so the open series keeps appending through the
// replay; reader-side canonicalize() collapses the overlap: per
// (diag, step) the last occurrence wins.
//
// The registry itself is physics-agnostic (closures + cadences);
// core::Simulation::enable_insitu registers the standard diagnostics of
// paper Figs. 6-7 — beam moments/emittance, spectrum peak/FWHM, laser
// a0/centroid, wakefield amplitude, field energy — as lambdas over its own
// state (src/core/pic_step.ipp).

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/diag/phase_space.hpp"
#include "src/insitu/streaming.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace mrpic::insitu {

// One diagnostic's values at one step: a flat list of named scalars
// (insertion-ordered, so series columns are stable run to run).
struct Record {
  std::string diag;
  std::int64_t step = -1;
  double time = 0;
  std::vector<std::pair<std::string, double>> values;

  void set(std::string key, double v) { values.emplace_back(std::move(key), v); }
  // NaN for keys the diagnostic did not fill.
  double value(std::string_view key) const;
};

class Registry {
public:
  using Compute = std::function<void(Record&)>;

  // Same cadence rule as the health monitor.
  static bool due(std::int64_t step, int interval) {
    return interval > 0 && step % interval == 0;
  }

  // Register diagnostic `name` to run every `interval` steps (0 = never).
  void add(std::string name, int interval, Compute fn);
  int size() const { return static_cast<int>(m_diags.size()); }
  const std::vector<std::string>& names() const { return m_names; }
  bool any_due(std::int64_t step) const;

  // Gauge sink for insitu_* series (nullptr = none).
  void set_metrics(obs::MetricsRegistry* m) { m_metrics = m; }
  // Records kept in memory (0 = unbounded).
  void set_history_limit(std::size_t n) { m_history_limit = n; }

  // Open (truncate) the durable JSONL series; the records of each collect()
  // are appended and flushed together. Returns false when it cannot be
  // opened.
  bool open_series(const std::string& path);
  const std::string& series_path() const { return m_series_path; }

  // Run every diagnostic due at `step`: compute, publish gauges, append to
  // the series. Returns the number of diagnostics that ran. With force,
  // cadences are ignored and everything runs (end-of-run final records).
  int collect(std::int64_t step, double time, bool force = false);

  // --- inspection -----------------------------------------------------------
  const std::deque<Record>& history() const { return m_history; }
  // Most recent record of one diagnostic (nullptr if it never ran).
  const Record* last(std::string_view diag) const;
  std::int64_t num_records() const { return m_total_records; }

  // --- series files ---------------------------------------------------------
  // One {"diag":...,"step":...,"time":...,"values":{...}} object per line.
  static void write_record(const Record& r, std::ostream& os);
  static Record parse_record(std::string_view line);
  // Tolerant reader: a torn or malformed line is skipped and counted into
  // *num_skipped when given; throws only when the file cannot be opened.
  static std::vector<Record> read_series_jsonl(const std::string& path,
                                               std::size_t* num_skipped = nullptr);
  // Collapse replayed overlap: per (diag, step) keep the LAST occurrence,
  // then sort by (step, diag). The result is the canonical run series.
  static std::vector<Record> canonicalize(std::vector<Record> records);
  // Schema check of a series file; returns human-readable problems, plus
  // per-diag step-monotonicity after canonicalization (a gap is fine — a
  // backwards jump that survives canonicalize is not).
  static std::vector<std::string> validate_series(const std::string& path);

private:
  struct Diag {
    std::string name;
    int interval = 0;
    Compute fn;
  };

  std::vector<Diag> m_diags;
  std::vector<std::string> m_names;
  obs::MetricsRegistry* m_metrics = nullptr;
  std::size_t m_history_limit = 4096;
  std::deque<Record> m_history;
  std::int64_t m_total_records = 0;
  std::string m_series_path;
  obs::json::JsonlWriter m_series;
};

// --- simulation-facing configuration ---------------------------------------

// Cadences and parameters for the standard diagnostics registered by
// core::Simulation::enable_insitu. All intervals are in steps; 0 disables
// that diagnostic.
struct InsituConfig {
  // Reduced diagnostics.
  int moments_interval = 10;       // beam moments + normalized emittance
  int spectrum_interval = 50;      // energy histogram + peak/FWHM
  int laser_interval = 10;         // a0 + pulse centroid
  int wakefield_interval = 10;     // max |Ex| behind the pulse
  int field_energy_interval = 10;  // per-component, per-MR-level

  // Beam selection: which species is "the beam", and the kinetic-energy
  // cut [J] that separates accelerated particles from the thermal bulk.
  int beam_species = 0;
  double beam_e_min_J = 0;

  // Spectrum histogram range [J] and bin count.
  double spectrum_e_min_J = 0;
  double spectrum_e_max_J = 0;
  int spectrum_bins = 100;

  // Laser probe: wavelength [m] for the a0 conversion (0 = no laser probe)
  // and polarization component (fields::Y or fields::Z).
  double laser_wavelength = 0;
  int laser_polarization = 2;

  // Series / history.
  std::string series_path;      // "" = in-memory only
  std::size_t history_limit = 4096;

  // Streaming exporter (stream_interval 0 or empty basename = off).
  int stream_interval = 0;
  int stream_downsample = 4;            // block-average factor for slices
  std::vector<int> stream_components{0, 1};  // E components to stream
  diag::PhaseSpaceConfig phase_space;   // x-ux histogram of the beam
  StreamConfig stream;
};

} // namespace mrpic::insitu
