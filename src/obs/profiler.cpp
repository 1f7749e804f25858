#include "src/obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <unordered_map>

namespace mrpic::obs {

namespace {
// Distinguishes profiler instances (and reset() epochs) so that the
// thread-local stack cache can never be confused by address reuse.
std::atomic<std::uint64_t> g_generation{1};
} // namespace

// Per-thread open-region stack. Cached thread-locally per (profiler,
// generation) so scope open/close never contends on anything but the one
// profiler mutex, and stale entries from destroyed/reset profilers are
// ignored by the generation check.
struct Profiler::ThreadCtx {
  std::uint64_t generation = 0;
  int tid = -1;
  std::vector<int> stack; // open node indices, innermost last
};

Profiler::Profiler()
    : m_epoch(clock::now()), m_generation(g_generation.fetch_add(1) + 1) {}

Profiler::~Profiler() = default;

Profiler::ThreadCtx& Profiler::thread_ctx() {
  thread_local std::unordered_map<const Profiler*, ThreadCtx> cache;
  ThreadCtx& ctx = cache[this];
  if (ctx.generation != m_generation) {
    ctx.generation = m_generation;
    ctx.stack.clear();
    std::lock_guard<std::mutex> lock(m_mu);
    ctx.tid = m_next_tid++;
  }
  return ctx;
}

int Profiler::open_scope(std::string_view name) {
  ThreadCtx& ctx = thread_ctx();
  std::lock_guard<std::mutex> lock(m_mu);
  const int parent = ctx.stack.empty() ? -1 : ctx.stack.back();
  // Find the (parent, name) node; region fan-out is small, linear is fine.
  const std::vector<int>& siblings = parent < 0 ? m_roots : m_nodes[parent].children;
  int node = -1;
  for (int c : siblings) {
    if (m_nodes[c].name == name) {
      node = c;
      break;
    }
  }
  if (node < 0) {
    node = static_cast<int>(m_nodes.size());
    Node n;
    n.name = std::string(name);
    n.parent = parent;
    m_nodes.push_back(std::move(n));
    (parent < 0 ? m_roots : m_nodes[parent].children).push_back(node);
  }
  ctx.stack.push_back(node);
  return node;
}

void Profiler::close_scope(int node, clock::time_point start) {
  const auto end = clock::now();
  const double dt = std::chrono::duration<double>(end - start).count();
  ThreadCtx& ctx = thread_ctx();
  std::lock_guard<std::mutex> lock(m_mu);
  if (node < 0 || node >= static_cast<int>(m_nodes.size())) { return; } // reset() raced
  RegionStats& s = m_nodes[node].stats;
  s.inclusive_s += dt;
  ++s.count;
  s.min_s = std::min(s.min_s, dt);
  s.max_s = std::max(s.max_s, dt);
  // Pop this thread's stack (scopes close LIFO; a moved-from scope closing
  // out of order just unwinds to its entry).
  while (!ctx.stack.empty()) {
    const int top = ctx.stack.back();
    ctx.stack.pop_back();
    if (top == node) { break; }
  }
  if (m_tracing) {
    if (m_events.size() < m_max_events) {
      TraceEvent ev;
      ev.name = m_nodes[node].name;
      ev.ts_us = std::chrono::duration<double, std::micro>(start - m_epoch).count();
      ev.dur_us = dt * 1e6;
      ev.tid = ctx.tid;
      ev.step = m_step;
      m_events.push_back(std::move(ev));
    } else {
      ++m_dropped_events;
    }
  }
}

void Profiler::set_step(std::int64_t step) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_step = step;
}

std::int64_t Profiler::current_step() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_step;
}

void Profiler::set_tracing(bool on) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_tracing = on;
}

bool Profiler::tracing() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_tracing;
}

void Profiler::set_max_trace_events(std::size_t n) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_max_events = n;
}

std::size_t Profiler::dropped_trace_events() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_dropped_events;
}

std::vector<TraceEvent> Profiler::trace_events() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_events;
}

std::vector<Profiler::Node> Profiler::snapshot() const {
  std::vector<Node> nodes;
  {
    std::lock_guard<std::mutex> lock(m_mu);
    nodes = m_nodes;
  }
  for (Node& n : nodes) {
    double child_incl = 0;
    for (int c : n.children) { child_incl += nodes[c].stats.inclusive_s; }
    n.stats.exclusive_s = std::max(0.0, n.stats.inclusive_s - child_incl);
  }
  return nodes;
}

RegionStats Profiler::stats(std::string_view path) const {
  const auto nodes = snapshot();
  std::vector<int> roots;
  {
    std::lock_guard<std::mutex> lock(m_mu);
    roots = m_roots;
  }
  const std::vector<int>* level = &roots;
  int node = -1;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view part =
        path.substr(pos, slash == std::string_view::npos ? std::string_view::npos
                                                         : slash - pos);
    node = -1;
    for (int c : *level) {
      if (nodes[c].name == part) {
        node = c;
        break;
      }
    }
    if (node < 0) { return RegionStats{0, 0, 0, 0, 0}; }
    level = &nodes[node].children;
    if (slash == std::string_view::npos) { break; }
    pos = slash + 1;
  }
  return nodes[node].stats;
}

std::map<std::string, RegionStats> Profiler::flat_totals() const {
  std::map<std::string, RegionStats> out;
  for (const Node& n : snapshot()) {
    RegionStats& s = out[n.name];
    s.inclusive_s += n.stats.inclusive_s;
    s.exclusive_s += n.stats.exclusive_s;
    s.count += n.stats.count;
    s.min_s = std::min(s.min_s, n.stats.min_s);
    s.max_s = std::max(s.max_s, n.stats.max_s);
  }
  return out;
}

std::vector<double> Profiler::inclusive_by_node() const {
  std::lock_guard<std::mutex> lock(m_mu);
  std::vector<double> out(m_nodes.size());
  for (std::size_t i = 0; i < m_nodes.size(); ++i) { out[i] = m_nodes[i].stats.inclusive_s; }
  return out;
}

void Profiler::add_inclusive_since(const std::vector<double>& before,
                                   std::map<std::string, double>& out) const {
  std::lock_guard<std::mutex> lock(m_mu);
  for (std::size_t i = 0; i < m_nodes.size(); ++i) {
    const double dt = m_nodes[i].stats.inclusive_s - (i < before.size() ? before[i] : 0.0);
    if (dt > 0) { out[m_nodes[i].name] += dt; }
  }
}

namespace {

void report_node(std::ostream& os, const std::vector<Profiler::Node>& nodes, int idx,
                 int depth) {
  const auto& n = nodes[idx];
  const auto& s = n.stats;
  char line[256];
  std::string name(static_cast<std::size_t>(2 * depth), ' ');
  name += n.name;
  std::snprintf(line, sizeof(line), "  %-34s %10.4f %10.4f %8lld %10.5f %10.5f %10.5f\n",
                name.c_str(), s.inclusive_s, s.exclusive_s,
                static_cast<long long>(s.count), s.mean_s(),
                s.count > 0 ? s.min_s : 0.0, s.max_s);
  os << line;
  std::vector<int> kids = n.children;
  std::sort(kids.begin(), kids.end(), [&](int a, int b) {
    return nodes[a].stats.inclusive_s > nodes[b].stats.inclusive_s;
  });
  for (int c : kids) { report_node(os, nodes, c, depth + 1); }
}

} // namespace

void Profiler::report(std::ostream& os) const {
  const auto nodes = snapshot();
  std::vector<int> roots;
  {
    std::lock_guard<std::mutex> lock(m_mu);
    roots = m_roots;
  }
  char header[256];
  std::snprintf(header, sizeof(header), "  %-34s %10s %10s %8s %10s %10s %10s\n", "region",
                "incl(s)", "excl(s)", "count", "mean(s)", "min(s)", "max(s)");
  os << header;
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return nodes[a].stats.inclusive_s > nodes[b].stats.inclusive_s;
  });
  for (int r : roots) { report_node(os, nodes, r, 0); }
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(m_mu);
  m_nodes.clear();
  m_roots.clear();
  m_events.clear();
  m_dropped_events = 0;
  m_step = -1;
  m_next_tid = 0;
  m_epoch = clock::now();
  m_generation = g_generation.fetch_add(1) + 1;
}

} // namespace mrpic::obs
