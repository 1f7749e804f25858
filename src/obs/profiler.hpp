#pragma once

// obs::Profiler — hierarchical region profiler, the repo's TinyProfiler
// (paper Sec. VI): RAII scopes nest into a call tree whose nodes accumulate
// inclusive time, call counts and per-call min/max; exclusive time is
// derived as inclusive minus the children's inclusive. Scopes may be opened
// concurrently from OpenMP worker threads (each thread nests independently;
// a worker's outermost scope becomes a root of its own). When tracing is
// enabled, every region instance is additionally recorded as a trace event
// (start, duration, thread, step) for Chrome/Perfetto export (trace.hpp).

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mrpic::obs {

struct RegionStats {
  double inclusive_s = 0;  // total wall time inside the region
  double exclusive_s = 0;  // inclusive minus time inside child regions
  std::int64_t count = 0;  // completed instances
  double min_s = std::numeric_limits<double>::infinity();
  double max_s = 0;
  double mean_s() const { return count > 0 ? inclusive_s / count : 0.0; }
};

// One completed region instance (recorded only while tracing is enabled).
struct TraceEvent {
  std::string name;
  double ts_us = 0;   // start, microseconds since profiler epoch
  double dur_us = 0;  // duration, microseconds
  int tid = 0;        // profiler-assigned dense thread id
  std::int64_t step = -1;
};

class Profiler {
public:
  using clock = std::chrono::steady_clock;

  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // RAII region scope. Move-only; closing records into the tree.
  class Scope {
  public:
    Scope(Scope&& o) noexcept : m_p(o.m_p), m_node(o.m_node), m_start(o.m_start) {
      o.m_p = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (m_p != nullptr) { m_p->close_scope(m_node, m_start); }
    }
    double elapsed() const {
      return std::chrono::duration<double>(clock::now() - m_start).count();
    }

  private:
    friend class Profiler;
    Scope(Profiler* p, int node, clock::time_point start)
        : m_p(p), m_node(node), m_start(start) {}
    Profiler* m_p;
    int m_node;
    clock::time_point m_start;
  };

  // Open a region nested under the calling thread's current region (or as a
  // root if the thread has none open).
  Scope scope(std::string_view name) {
    const auto start = clock::now();
    return Scope(this, open_scope(name), start);
  }

  // Tag subsequent trace events with a step number (set by the driver once
  // per step; harmless to leave at -1 outside stepping contexts).
  void set_step(std::int64_t step);
  std::int64_t current_step() const;

  // Trace-event collection (off by default; bounded by set_max_trace_events).
  void set_tracing(bool on);
  bool tracing() const;
  void set_max_trace_events(std::size_t n);
  std::size_t dropped_trace_events() const;
  std::vector<TraceEvent> trace_events() const;

  // --- aggregated results ------------------------------------------------
  struct Node {
    std::string name;
    int parent = -1;                // -1 for roots
    std::vector<int> children;
    RegionStats stats;              // exclusive_s filled by snapshot()
  };

  // Consistent copy of the call tree with exclusive times computed.
  std::vector<Node> snapshot() const;

  // Stats for a '/'-separated root-relative path, e.g. "step/particles".
  // Returns zeroed stats (count == 0) for unknown paths.
  RegionStats stats(std::string_view path) const;

  // Flat per-name totals: leaf name -> (inclusive seconds, count), summed
  // over every path sharing the name.
  std::map<std::string, RegionStats> flat_totals() const;

  // Inclusive seconds of every node, indexed by node. Nodes are appended,
  // never removed, until reset(), so a later call's vector extends this one.
  std::vector<double> inclusive_by_node() const;

  // Add each node's inclusive seconds beyond `before` (an earlier
  // inclusive_by_node() with no reset() since; newer nodes count from 0) to
  // `out` under the node's name, skipping nodes that did not advance: the
  // flat per-name breakdown of the interval between the two calls, without
  // copying the tree.
  void add_inclusive_since(const std::vector<double>& before,
                           std::map<std::string, double>& out) const;

  // Indented tree, children sorted by descending inclusive time, with
  // count / mean / min / max columns.
  void report(std::ostream& os) const;

  // Drop all nodes, stats and trace events. Must not be called while any
  // scope is open.
  void reset();

  // Microseconds since the profiler epoch (trace timestamps use this).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - m_epoch).count();
  }

private:
  friend class Scope;
  int open_scope(std::string_view name);
  void close_scope(int node, clock::time_point start);

  struct ThreadCtx; // per-thread open-region stack, see profiler.cpp
  ThreadCtx& thread_ctx();

  mutable std::mutex m_mu;
  std::vector<Node> m_nodes;   // node 0.. ; roots listed in m_roots
  std::vector<int> m_roots;
  std::vector<TraceEvent> m_events;
  std::size_t m_max_events = 1u << 20;
  std::size_t m_dropped_events = 0;
  bool m_tracing = false;
  std::int64_t m_step = -1;
  int m_next_tid = 0;
  clock::time_point m_epoch;
  std::uint64_t m_generation;  // invalidates thread-local caches on reset()
};

} // namespace mrpic::obs
