#pragma once

// obs::bench_history — the cross-run perf trajectory ledger: every
// bench_smoke run appends one schema-tagged JSONL record per BENCH_*.json it
// produced, so "did attainment drift over the last ten commits" is
// answerable from the repo itself instead of from CI archaeology. Records
// carry a curated subset of each bench's numeric leaves (the headline
// metrics: efficiencies, speedups, overhead fractions, savings factors,
// headrooms), extracted deterministically from the benchdiff flattening.
// The ledger is a durable series continued across runs (json::JsonlWriter
// in append mode, flushed per record); the reader is json::read_jsonl — it
// skips malformed lines AND valid-JSON lines whose schema tag is missing or
// foreign, and reports the skipped count. bench_trend (bench/) is the CLI
// over this.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace mrpic::obs {

inline constexpr const char* kBenchHistorySchema = "bench_history/v1";

struct BenchHistoryEntry {
  std::string schema = kBenchHistorySchema;
  std::string bench;      // bench kind ("memory", "kernel_grain", ...)
  std::string source;     // producing file or context (informational)
  std::int64_t unix_time = 0;  // seconds since epoch (0 = unknown)
  std::map<std::string, double> metrics;  // flattened path -> value
};

// Pull the headline numeric metrics out of one parsed BENCH_*.json document
// (benchdiff::flatten paths filtered by a suffix allowlist of key metric
// names), capped at `max_metrics` entries in sorted path order. Returns an
// entry with empty `bench` if the document has no "bench" tag.
BenchHistoryEntry extract_bench_history(const json::Value& doc,
                                        const std::string& source,
                                        std::size_t max_metrics = 32);

// Serialize one entry as a single JSON line (no trailing newline).
std::string bench_history_line(const BenchHistoryEntry& entry);

// Parse one ledger line; throws std::runtime_error on malformed input or a
// missing/foreign schema tag.
BenchHistoryEntry parse_bench_history_line(const std::string& line);

// Durably append one entry to the ledger (continued, never truncated).
// Returns false if the file cannot be opened or written.
bool append_bench_history(const std::string& path, const BenchHistoryEntry& entry);

// Load a ledger. Malformed lines and lines without the bench_history schema
// tag are skipped (and counted into *num_skipped when given); throws
// std::runtime_error only when the file cannot be opened.
std::vector<BenchHistoryEntry> read_bench_history(const std::string& path,
                                                  std::size_t* num_skipped = nullptr);

} // namespace mrpic::obs
