#include "src/insitu/registry.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

namespace mrpic::insitu {

double Record::value(std::string_view key) const {
  for (const auto& [k, v] : values) {
    if (k == key) { return v; }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void Registry::add(std::string name, int interval, Compute fn) {
  m_names.push_back(name);
  m_diags.push_back(Diag{std::move(name), interval, std::move(fn)});
}

bool Registry::any_due(std::int64_t step) const {
  for (const auto& d : m_diags) {
    if (due(step, d.interval)) { return true; }
  }
  return false;
}

bool Registry::open_series(const std::string& path) {
  const bool ok = m_series.open(path);
  m_series_path = ok ? path : "";
  return ok;
}

int Registry::collect(std::int64_t step, double time, bool force) {
  int ran = 0;
  // One append (and flush) per call: the records of one step, one per line.
  std::ostringstream lines;
  for (const auto& d : m_diags) {
    if (!force && !due(step, d.interval)) { continue; }
    Record r;
    r.diag = d.name;
    r.step = step;
    r.time = time;
    d.fn(r);
    ++ran;

    if (m_metrics != nullptr) {
      for (const auto& [key, v] : r.values) {
        m_metrics->gauge("insitu_" + d.name + "_" + key).set(v);
      }
    }
    if (m_series.is_open()) {
      if (lines.tellp() > 0) { lines << '\n'; }
      write_record(r, lines);
    }
    m_history.push_back(std::move(r));
    ++m_total_records;
    while (m_history_limit > 0 && m_history.size() > m_history_limit) {
      m_history.pop_front();
    }
  }
  if (ran > 0 && m_series.is_open()) { m_series.append(lines.str()); }
  return ran;
}

const Record* Registry::last(std::string_view diag) const {
  for (auto it = m_history.rbegin(); it != m_history.rend(); ++it) {
    if (it->diag == diag) { return &*it; }
  }
  return nullptr;
}

// --- series files -----------------------------------------------------------

void Registry::write_record(const Record& r, std::ostream& os) {
  obs::json::Writer w(os);
  w.begin_object()
      .field("diag", r.diag)
      .field("step", r.step)
      .field("time", r.time);
  w.begin_object("values");
  for (const auto& [key, v] : r.values) { w.field(key, v); }
  w.end_object().end_object();
}

Record Registry::parse_record(std::string_view line) {
  const auto doc = obs::json::parse(line);
  Record r;
  if (!doc.is_object()) { throw std::runtime_error("insitu: record is not an object"); }
  if (!doc["diag"].is_string() || !doc["step"].is_number() ||
      !doc["time"].is_number() || !doc["values"].is_object()) {
    throw std::runtime_error("insitu: record missing diag/step/time/values");
  }
  r.diag = doc["diag"].as_string();
  r.step = doc["step"].as_int();
  r.time = doc["time"].as_number();
  for (const auto& [key, v] : doc["values"].as_object()) {
    // json has no NaN; we emit null for non-finite values.
    r.set(key, v.is_number() ? v.as_number()
                             : std::numeric_limits<double>::quiet_NaN());
  }
  return r;
}

std::vector<Record> Registry::read_series_jsonl(const std::string& path,
                                                std::size_t* num_skipped) {
  return obs::json::read_jsonl(path, parse_record, num_skipped);
}

std::vector<Record> Registry::canonicalize(std::vector<Record> records) {
  // Last occurrence per (diag, step) wins — a rollback replays the steps
  // after the restored checkpoint, and the replayed values are the run's
  // actual trajectory.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> keep;
  for (std::size_t i = 0; i < records.size(); ++i) {
    keep[{records[i].diag, records[i].step}] = i;
  }
  std::vector<Record> out;
  out.reserve(keep.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (keep[{records[i].diag, records[i].step}] == i) {
      out.push_back(std::move(records[i]));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.step != b.step ? a.step < b.step : a.diag < b.diag;
  });
  return out;
}

std::vector<std::string> Registry::validate_series(const std::string& path) {
  std::vector<std::string> errors;
  std::ifstream is(path);
  if (!is) {
    errors.push_back("series: cannot open " + path);
    return errors;
  }
  std::vector<Record> records;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) { continue; }
    try {
      records.push_back(parse_record(line));
    } catch (const std::exception& e) {
      errors.push_back("series line " + std::to_string(lineno) + ": " + e.what());
    }
  }
  for (const auto& r : records) {
    if (r.step < 0) {
      errors.push_back("series: diag '" + r.diag + "' has negative step");
    }
  }
  // After canonicalization each diag's steps must be strictly increasing
  // (duplicates were collapsed; a remaining backwards jump means the file
  // was appended out of order, not replayed).
  std::map<std::string, std::int64_t> last_step;
  for (const auto& r : canonicalize(std::move(records))) {
    auto it = last_step.find(r.diag);
    if (it != last_step.end() && r.step <= it->second) {
      errors.push_back("series: diag '" + r.diag + "' steps not increasing at " +
                       std::to_string(r.step));
    }
    last_step[r.diag] = r.step;
  }
  return errors;
}

} // namespace mrpic::insitu
