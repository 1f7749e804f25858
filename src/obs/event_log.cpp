#include "src/obs/event_log.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mrpic::obs {

const char* to_string(EventSeverity s) {
  switch (s) {
    case EventSeverity::Info: return "info";
    case EventSeverity::Warn: return "warn";
    case EventSeverity::Critical: return "critical";
  }
  return "info";
}

EventSeverity event_severity_from_string(const std::string& s) {
  if (s == "warn") { return EventSeverity::Warn; }
  if (s == "critical") { return EventSeverity::Critical; }
  return EventSeverity::Info;
}

double Event::value(const std::string& key) const {
  for (const auto& [k, v] : data) {
    if (k == key) { return v; }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

EventLog::EventLog(EventLogConfig cfg)
    : m_cfg(std::move(cfg)), m_start(std::chrono::steady_clock::now()) {
  if (!m_cfg.path.empty()) { m_file.open(m_cfg.path); }
}

Event EventLog::publish(Event ev) {
  std::lock_guard<std::mutex> lock(m_mu);
  ev.seq = m_next_seq++;
  ev.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - m_start)
                  .count();
  ++m_counts[static_cast<int>(ev.severity)];

  if (m_file.is_open()) { m_file.append(event_line(ev)); }  // durable before any abort

  m_history.push_back(ev);
  if (m_cfg.history_limit > 0 && m_history.size() > m_cfg.history_limit) {
    m_history.pop_front();
    ++m_dropped;
  }
  return ev;
}

Event EventLog::publish(std::string category, std::string kind, EventSeverity severity,
                        std::int64_t step, std::string detail,
                        std::vector<std::pair<std::string, double>> data) {
  Event ev;
  ev.category = std::move(category);
  ev.kind = std::move(kind);
  ev.severity = severity;
  ev.step = step;
  ev.detail = std::move(detail);
  ev.data = std::move(data);
  return publish(std::move(ev));
}

std::int64_t EventLog::num_events() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_next_seq;
}

std::int64_t EventLog::num_events(EventSeverity s) const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_counts[static_cast<int>(s)];
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return std::vector<Event>(m_history.begin(), m_history.end());
}

std::int64_t EventLog::num_dropped() const {
  std::lock_guard<std::mutex> lock(m_mu);
  return m_dropped;
}

void EventLog::write_event(const Event& ev, std::ostream& os) {
  json::Writer w(os);
  w.begin_object()
      .field("schema", kEventSchema)
      .field("seq", ev.seq)
      .field("step", ev.step)
      .field("wall_s", ev.wall_s)
      .field("category", ev.category)
      .field("kind", ev.kind)
      .field("severity", to_string(ev.severity));
  if (!ev.detail.empty()) { w.field("detail", ev.detail); }
  if (!ev.data.empty()) {
    w.begin_object("data");
    for (const auto& [k, v] : ev.data) { w.field(k, v); }
    w.end_object();
  }
  w.end_object();
}

std::string EventLog::event_line(const Event& ev) {
  std::ostringstream ss;
  write_event(ev, ss);
  return ss.str();
}

Event EventLog::parse_event(const std::string& line) {
  const json::Value doc = json::parse(line);
  if (!doc.is_object() || !doc["schema"].is_string() ||
      doc["schema"].as_string() != kEventSchema) {
    throw std::runtime_error("event record lacks the \"" + std::string(kEventSchema) +
                             "\" schema tag");
  }
  Event ev;
  ev.seq = doc["seq"].is_number() ? doc["seq"].as_int() : -1;
  ev.step = doc["step"].is_number() ? doc["step"].as_int() : -1;
  ev.wall_s = doc["wall_s"].is_number() ? doc["wall_s"].as_number() : 0;
  if (doc["category"].is_string()) { ev.category = doc["category"].as_string(); }
  if (doc["kind"].is_string()) { ev.kind = doc["kind"].as_string(); }
  if (doc["severity"].is_string()) {
    ev.severity = event_severity_from_string(doc["severity"].as_string());
  }
  if (doc["detail"].is_string()) { ev.detail = doc["detail"].as_string(); }
  if (doc["data"].is_object()) {
    for (const auto& [k, v] : doc["data"].as_object()) {
      if (v.is_number()) { ev.data.emplace_back(k, v.as_number()); }
    }
  }
  return ev;
}

std::vector<Event> EventLog::read_events_jsonl(const std::string& path,
                                               std::size_t* num_skipped) {
  return json::read_jsonl(path, parse_event, num_skipped);
}

} // namespace mrpic::obs
