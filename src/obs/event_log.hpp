#pragma once

// obs::EventLog — the unified per-run event timeline. Health alerts, resil
// fault/checkpoint/recovery events, load-balancer rebalance snapshots and
// run lifecycle transitions all publish into one severity-leveled log, so
// a scheduler or a post-mortem tool reads a single causally-ordered
// timeline per run. Health alerts reach disk only here.
//
// Ordering contract: publish() assigns a monotone sequence number and a
// monotone wall-clock offset (steady_clock since construction) under one
// mutex, so the on-disk order, the seq order and the wall order all agree —
// the campaign_smoke ctest gates this. When a path is configured the file
// is a durable series (json::JsonlWriter): every event is flushed at
// emission, so the terminal event of a dying run is on disk before any
// abort unwinds. The reader is json::read_jsonl: malformed lines AND
// valid-JSON lines whose schema tag is missing or foreign are skipped and
// counted, never fatal.

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.hpp"

namespace mrpic::obs {

inline constexpr const char* kEventSchema = "mrpic.event.v1";

enum class EventSeverity { Info, Warn, Critical };

const char* to_string(EventSeverity s);
// Parse a severity name; defaults to Info for unknown strings (reader
// tolerance: a future severity level must not make old tools throw).
EventSeverity event_severity_from_string(const std::string& s);

// One timeline entry. Categories in use: "lifecycle" (run_start/init/
// run_end/abort), "health" (watchdog alerts), "resil" (faults, detection,
// recovery protocol, checkpoints), "rebalance" (load-balancer remaps).
struct Event {
  std::int64_t seq = -1;   // assigned by publish(); strictly increasing
  std::int64_t step = -1;  // simulation step (-1 = outside the step loop)
  double wall_s = 0;       // seconds since EventLog construction (monotone)
  std::string category;
  std::string kind;        // "alert", "crash", "checkpoint", "run_start", ...
  EventSeverity severity = EventSeverity::Info;
  std::string detail;      // free-form context
  // Small ordered numeric payload ("rank", "value", "imbalance_before", ...).
  std::vector<std::pair<std::string, double>> data;

  double value(const std::string& key) const;  // NaN when absent
};

struct EventLogConfig {
  // Durable series every event is appended to ("" = in-memory only); the
  // file is truncated when the log is constructed.
  std::string path;
  // Events kept in memory (0 = unbounded). The file always gets everything.
  std::size_t history_limit = 65536;
};

class EventLog {
public:
  explicit EventLog(EventLogConfig cfg = {});

  const EventLogConfig& config() const { return m_cfg; }

  // Finalize (seq + wall_s) and record one event; thread-safe. Returns the
  // finalized event (e.g. for tests asserting the assigned seq).
  Event publish(Event ev);
  Event publish(std::string category, std::string kind, EventSeverity severity,
                std::int64_t step, std::string detail = "",
                std::vector<std::pair<std::string, double>> data = {});

  // --- inspection ---------------------------------------------------------
  std::int64_t num_events() const;
  std::int64_t num_events(EventSeverity s) const;
  // Thread-safe copy of the retained history (bounded by history_limit).
  std::vector<Event> snapshot() const;
  // Events dropped from memory by history_limit (still on disk).
  std::int64_t num_dropped() const;

  // --- serialization ------------------------------------------------------
  // One {"schema":...,"seq":...,...} object (no trailing newline).
  static void write_event(const Event& ev, std::ostream& os);
  static std::string event_line(const Event& ev);
  // Parse one line; throws std::runtime_error on malformed input or a
  // missing/foreign schema tag.
  static Event parse_event(const std::string& line);
  // Tolerant reader: skips malformed and schema-foreign lines (counted into
  // *num_skipped when given); throws only when the file cannot be opened.
  static std::vector<Event> read_events_jsonl(const std::string& path,
                                              std::size_t* num_skipped = nullptr);

private:
  EventLogConfig m_cfg;
  std::chrono::steady_clock::time_point m_start;

  mutable std::mutex m_mu;
  json::JsonlWriter m_file;
  std::int64_t m_next_seq = 0;
  std::int64_t m_counts[3] = {0, 0, 0};  // per-severity totals
  std::int64_t m_dropped = 0;
  std::deque<Event> m_history;
};

} // namespace mrpic::obs
