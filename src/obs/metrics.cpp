#include "src/obs/metrics.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/json.hpp"

namespace mrpic::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(m_mu);
  const auto it = m_counters.find(name);
  if (it != m_counters.end()) { return *it->second; }
  m_counter_storage.emplace_back();
  Counter* c = &m_counter_storage.back();
  m_counters.emplace(std::string(name), c);
  return *c;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(m_mu);
  const auto it = m_gauges.find(name);
  if (it != m_gauges.end()) { return *it->second; }
  m_gauge_storage.emplace_back();
  Gauge* g = &m_gauge_storage.back();
  m_gauges.emplace(std::string(name), g);
  return *g;
}

std::int64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(m_mu);
  const auto it = m_counters.find(name);
  return it == m_counters.end() ? 0 : it->second->value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(m_mu);
  const auto it = m_gauges.find(name);
  return it == m_gauges.end() ? 0.0 : it->second->value();
}

void MetricsRegistry::begin_step(std::int64_t step) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_step = step;
  m_in_step = true;
  m_step_base.clear();
  for (const auto& [name, c] : m_counters) { m_step_base[name] = c->value(); }
}

StepRecord MetricsRegistry::end_step() {
  std::lock_guard<std::mutex> lock(m_mu);
  StepRecord rec;
  rec.step = m_step;
  for (const auto& [name, c] : m_counters) {
    const auto base = m_step_base.find(name);
    rec.counters[name] = c->value() - (base == m_step_base.end() ? 0 : base->second);
  }
  for (const auto& [name, g] : m_gauges) { rec.gauges[name] = g->value(); }
  rec.ranks = std::move(m_step_ranks);
  m_step_ranks.clear();
  m_in_step = false;
  m_history.push_back(rec);
  if (m_history_limit > 0) {
    while (m_history.size() > m_history_limit) { m_history.pop_front(); }
  }
  return rec;
}

void MetricsRegistry::set_step_ranks(std::vector<StepRecord::RankSection> ranks) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_step_ranks = std::move(ranks);
}

void MetricsRegistry::set_history_limit(std::size_t n) {
  std::lock_guard<std::mutex> lock(m_mu);
  m_history_limit = n;
  if (n > 0) {
    while (m_history.size() > n) { m_history.pop_front(); }
  }
}

void MetricsRegistry::write_record(const StepRecord& rec, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("step", rec.step);
  w.begin_object("counters");
  for (const auto& [name, v] : rec.counters) { w.field(name, v); }
  w.end_object();
  w.begin_object("gauges");
  for (const auto& [name, v] : rec.gauges) { w.field(name, v); }
  w.end_object();
  if (!rec.ranks.empty()) {
    w.begin_array("ranks");
    for (const auto& section : rec.ranks) {
      w.begin_object();
      for (const auto& [name, v] : section) { w.field(name, v); }
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  std::deque<StepRecord> hist;
  {
    std::lock_guard<std::mutex> lock(m_mu);
    hist = m_history;
  }
  for (const auto& rec : hist) {
    write_record(rec, os);
    os << '\n';
  }
}

bool MetricsRegistry::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) { return false; }
  write_jsonl(os);
  return static_cast<bool>(os);
}

StepRecord MetricsRegistry::parse_record(const std::string& line) {
  const json::Value v = json::parse(line);
  if (!v.is_object()) { throw std::runtime_error("metrics record is not a JSON object"); }
  // The "step" member is the schema tag: valid JSON without it (a stray
  // line from some other JSONL producer) must not silently parse as step 0.
  if (!v.has("step") || !v["step"].is_number()) {
    throw std::runtime_error("metrics record lacks the \"step\" schema tag");
  }
  StepRecord rec;
  rec.step = v["step"].as_int();
  if (v["counters"].is_object()) {
    for (const auto& [name, val] : v["counters"].as_object()) {
      rec.counters[name] = val.as_int();
    }
  }
  if (v["gauges"].is_object()) {
    for (const auto& [name, val] : v["gauges"].as_object()) {
      rec.gauges[name] = val.as_number();
    }
  }
  if (v["ranks"].is_array()) {
    for (const auto& section : v["ranks"].as_array()) {
      StepRecord::RankSection s;
      if (section.is_object()) {
        for (const auto& [name, val] : section.as_object()) { s[name] = val.as_number(); }
      }
      rec.ranks.push_back(std::move(s));
    }
  }
  return rec;
}

std::vector<StepRecord> MetricsRegistry::read_jsonl(const std::string& path,
                                                    std::size_t* num_malformed) {
  return json::read_jsonl(path, parse_record, num_malformed);
}

} // namespace mrpic::obs
