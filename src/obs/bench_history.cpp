#include "src/obs/bench_history.hpp"

#include <sstream>
#include <stdexcept>

#include "src/obs/bench_diff.hpp"

namespace mrpic::obs {

namespace {

// Headline-metric suffixes: a flattened path qualifies when it ends in one
// of these. Deliberately excludes raw second/byte columns that vary per
// host; the point of the ledger is trend-stable model numbers and verdicts.
const char* const kMetricSuffixes[] = {
    "efficiency", "speedup",    "overhead_frac", "savings_factor",
    "overlap_headroom_s", "intensity", "attainment", "makespan_s",
    "loss",       "total_bytes",
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_headline_metric(const std::string& path) {
  for (const char* suffix : kMetricSuffixes) {
    if (ends_with(path, suffix)) { return true; }
  }
  return false;
}

} // namespace

BenchHistoryEntry extract_bench_history(const json::Value& doc,
                                        const std::string& source,
                                        std::size_t max_metrics) {
  BenchHistoryEntry entry;
  entry.source = source;
  if (doc.has("bench") && doc["bench"].is_string()) {
    entry.bench = doc["bench"].as_string();
  }
  std::map<std::string, json::Value> flat;
  benchdiff::flatten(doc, "", flat);
  for (const auto& [path, value] : flat) {
    if (entry.metrics.size() >= max_metrics) { break; }
    if (value.is_number() && is_headline_metric(path)) {
      entry.metrics.emplace(path, value.as_number());
    }
  }
  return entry;
}

std::string bench_history_line(const BenchHistoryEntry& entry) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object()
      .field("schema", entry.schema)
      .field("bench", entry.bench)
      .field("source", entry.source)
      .field("unix_time", entry.unix_time);
  w.begin_object("metrics");
  for (const auto& [path, value] : entry.metrics) { w.field(path, value); }
  w.end_object();
  w.end_object();
  return os.str();
}

BenchHistoryEntry parse_bench_history_line(const std::string& line) {
  const json::Value v = json::parse(line);
  if (!v.is_object()) {
    throw std::runtime_error("bench history record is not an object");
  }
  if (!v.has("schema") || !v["schema"].is_string() ||
      v["schema"].as_string() != kBenchHistorySchema) {
    throw std::runtime_error("bench history record lacks the schema tag");
  }
  BenchHistoryEntry entry;
  entry.schema = v["schema"].as_string();
  if (v["bench"].is_string()) { entry.bench = v["bench"].as_string(); }
  if (v["source"].is_string()) { entry.source = v["source"].as_string(); }
  if (v["unix_time"].is_number()) { entry.unix_time = v["unix_time"].as_int(); }
  if (v["metrics"].is_object()) {
    for (const auto& [path, value] : v["metrics"].as_object()) {
      if (value.is_number()) { entry.metrics.emplace(path, value.as_number()); }
    }
  }
  return entry;
}

bool append_bench_history(const std::string& path, const BenchHistoryEntry& entry) {
  json::JsonlWriter ledger;
  return ledger.open(path, /*append=*/true) && ledger.append(bench_history_line(entry));
}

std::vector<BenchHistoryEntry> read_bench_history(const std::string& path,
                                                  std::size_t* num_skipped) {
  return json::read_jsonl(path, parse_bench_history_line, num_skipped);
}

} // namespace mrpic::obs
