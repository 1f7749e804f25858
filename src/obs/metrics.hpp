#pragma once

// obs::MetricsRegistry — named counters and gauges unified across the
// subsystems that previously kept private tallies: particles pushed and
// cells advanced (core), halo bytes/messages and compute/comm seconds
// (cluster::StepCost), load imbalance and rebalances (dist::LoadBalancer).
// Counters are monotone int64 accumulators (atomic adds, safe from OpenMP
// threads); gauges are last-write-wins doubles. begin_step()/end_step()
// bracket one PIC step and snapshot the per-step counter deltas plus
// current gauge values into a StepRecord; the history serializes as JSONL
// (one JSON object per step) for machine consumption by the scaling benches
// and future perf PRs.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mrpic::obs {

class Counter {
public:
  void add(std::int64_t n) { m_value.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  std::int64_t value() const { return m_value.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> m_value{0};
};

class Gauge {
public:
  void set(double v) { m_value.store(v, std::memory_order_relaxed); }
  double value() const { return m_value.load(std::memory_order_relaxed); }

private:
  std::atomic<double> m_value{0};
};

// One step's worth of metrics: counter deltas over the step plus gauge
// values at step end, plus an optional per-rank section (one map per
// simulated rank, e.g. compute_s/comm_s/bytes from cluster::SimCluster).
struct StepRecord {
  using RankSection = std::map<std::string, double>;

  std::int64_t step = -1;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<RankSection> ranks;  // empty = no per-rank section

  bool operator==(const StepRecord& o) const {
    return step == o.step && counters == o.counters && gauges == o.gauges &&
           ranks == o.ranks;
  }
};

class MetricsRegistry {
public:
  // Look up or create. Returned references stay valid for the registry's
  // lifetime (deque storage); lookups are mutex-guarded, updates atomic.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  std::int64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  // --- per-step pipeline -------------------------------------------------
  // Mark the start of a step: remembers current counter values so end_step
  // can report deltas.
  void begin_step(std::int64_t step);
  // Snapshot deltas + gauges into the history and return the record.
  StepRecord end_step();
  // Attach a per-rank section to the in-flight step (consumed by the next
  // end_step; repeated calls within a step overwrite). Typically fed by
  // cluster::SimCluster when a metrics registry is attached to it.
  void set_step_ranks(std::vector<StepRecord::RankSection> ranks);

  const std::deque<StepRecord>& history() const { return m_history; }
  // Keep at most n records (0 = unbounded, the default).
  void set_history_limit(std::size_t n);
  void clear_history() { m_history.clear(); }

  // --- JSONL -------------------------------------------------------------
  // One {"step":...,"counters":{...},"gauges":{...}[,"ranks":[...]]} object
  // per line.
  void write_jsonl(std::ostream& os) const;
  bool write_jsonl(const std::string& path) const;
  static void write_record(const StepRecord& rec, std::ostream& os);
  // Parse records back. Malformed lines AND valid-JSON lines missing the
  // "step" schema tag are skipped (and counted into *num_malformed when
  // given) so a truncated or contaminated run's metrics file is still
  // loadable; throws std::runtime_error only when the file cannot be opened.
  static std::vector<StepRecord> read_jsonl(const std::string& path,
                                            std::size_t* num_malformed = nullptr);
  // Parse one line (throws std::runtime_error on malformed input).
  static StepRecord parse_record(const std::string& line);

private:
  mutable std::mutex m_mu;
  // deques: stable addresses under growth.
  std::deque<Counter> m_counter_storage;
  std::deque<Gauge> m_gauge_storage;
  std::map<std::string, Counter*, std::less<>> m_counters;
  std::map<std::string, Gauge*, std::less<>> m_gauges;

  std::int64_t m_step = -1;
  bool m_in_step = false;
  std::map<std::string, std::int64_t> m_step_base; // counter values at begin_step
  std::vector<StepRecord::RankSection> m_step_ranks; // pending per-rank section
  std::deque<StepRecord> m_history;
  std::size_t m_history_limit = 0;
};

} // namespace mrpic::obs
