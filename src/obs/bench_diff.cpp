#include "src/obs/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/campaign.hpp"

namespace mrpic::obs::benchdiff {

void flatten(const json::Value& v, const std::string& prefix,
             std::map<std::string, json::Value>& out) {
  switch (v.type()) {
    case json::Value::Type::Object:
      for (const auto& [key, val] : v.as_object()) {
        flatten(val, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case json::Value::Type::Array: {
      const auto& arr = v.as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        flatten(arr[i], prefix + "[" + std::to_string(i) + "]", out);
      }
      break;
    }
    default:
      out.emplace(prefix, v);
  }
}

namespace {

bool ignored(const std::string& path, const Options& opt) {
  for (const auto& sub : opt.ignore) {
    if (path.find(sub) != std::string::npos) { return true; }
  }
  return false;
}

std::string scalar_to_string(const json::Value& v) {
  if (v.is_string()) { return v.as_string(); }
  if (v.is_bool()) { return v.as_bool() ? "true" : "false"; }
  if (v.is_number()) { return json::number(v.as_number()); }
  return "null";
}

void count(Report& report, const MetricResult& r) {
  switch (r.status) {
    case Status::Pass: ++report.num_pass; break;
    case Status::Fail: ++report.num_fail; break;
    case Status::Missing: ++report.num_missing; break;
    case Status::Extra: ++report.num_extra; break;
    case Status::Ignored: ++report.num_ignored; break;
  }
}

} // namespace

Report compare(const json::Value& baseline, const json::Value& current,
               const Options& opt) {
  std::map<std::string, json::Value> base_flat, cur_flat;
  flatten(baseline, "", base_flat);
  flatten(current, "", cur_flat);

  Report report;
  for (const auto& [path, base_v] : base_flat) {
    MetricResult r;
    r.path = path;
    if (ignored(path, opt)) {
      r.status = Status::Ignored;
    } else if (cur_flat.find(path) == cur_flat.end()) {
      r.status = Status::Missing;
      r.note = "metric absent from current";
    } else {
      const json::Value& cur_v = cur_flat.at(path);
      if (base_v.is_number() && cur_v.is_number()) {
        r.baseline = base_v.as_number();
        r.current = cur_v.as_number();
        const double diff = std::abs(r.current - r.baseline);
        r.rel_diff = diff / std::max(std::abs(r.baseline), opt.abs_tol);
        const bool pass = diff <= opt.abs_tol + opt.rel_tol * std::abs(r.baseline);
        r.status = pass ? Status::Pass : Status::Fail;
      } else if (scalar_to_string(base_v) == scalar_to_string(cur_v)) {
        r.status = Status::Pass;
      } else {
        r.status = Status::Fail;
        // Built with append: GCC 12 misreads a chained operator+ (or an
        // assignment from a literal) as an overlapping memcpy (-Wrestrict).
        std::string note(1, '\'');
        note.append(scalar_to_string(base_v)).append("' vs '");
        note.append(scalar_to_string(cur_v)).append(1, '\'');
        r.note = std::move(note);
      }
    }
    count(report, r);
    report.results.push_back(std::move(r));
  }
  for (const auto& [path, cur_v] : cur_flat) {
    if (base_flat.find(path) != base_flat.end() || ignored(path, opt)) { continue; }
    MetricResult r;
    r.path = path;
    r.status = Status::Extra;
    r.note = "not in baseline (informational)";
    count(report, r);
    report.results.push_back(std::move(r));
  }
  return report;
}

void print_report(const Report& report, std::ostream& os, bool verbose) {
  const auto label = [](Status s) {
    switch (s) {
      case Status::Pass: return "PASS";
      case Status::Fail: return "FAIL";
      case Status::Missing: return "MISSING";
      case Status::Extra: return "extra";
      case Status::Ignored: return "ignored";
    }
    return "?";
  };
  char line[256];
  for (const auto& r : report.results) {
    if (!verbose && r.status == Status::Pass) { continue; }
    if (r.note.empty()) {
      std::snprintf(line, sizeof(line), "  %-8s %-48s %14.6g %14.6g %+9.2f%%\n",
                    label(r.status), r.path.c_str(), r.baseline, r.current,
                    100 * (r.current - r.baseline) /
                        (r.baseline != 0 ? std::abs(r.baseline) : 1.0));
    } else {
      std::snprintf(line, sizeof(line), "  %-8s %-48s %s\n", label(r.status),
                    r.path.c_str(), r.note.c_str());
    }
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "%d metrics: %d pass, %d fail, %d missing, %d extra, %d ignored -> %s\n",
                static_cast<int>(report.results.size()), report.num_pass, report.num_fail,
                report.num_missing, report.num_extra, report.num_ignored,
                report.ok() ? "OK" : "REGRESSION");
  os << line;
}

namespace {

// Required keys of one record in a named array; kind: n = number, s = string.
struct FieldSpec {
  const char* key;
  char kind;
};

void check_records(const json::Value& doc, const char* array_name,
                   const std::vector<FieldSpec>& fields, std::vector<std::string>& errors) {
  const json::Value& arr = doc[array_name];
  if (!arr.is_array()) {
    errors.push_back(std::string("missing array '") + array_name + "'");
    return;
  }
  if (arr.as_array().empty()) {
    errors.push_back(std::string("array '") + array_name + "' is empty");
    return;
  }
  for (std::size_t i = 0; i < arr.as_array().size(); ++i) {
    const json::Value& rec = arr.as_array()[i];
    if (!rec.is_object()) {
      errors.push_back(std::string(array_name) + "[" + std::to_string(i) +
                       "] is not an object");
      continue;
    }
    for (const auto& f : fields) {
      const json::Value& v = rec[f.key];
      const bool ok = f.kind == 'n' ? v.is_number() : v.is_string();
      if (!ok) {
        errors.push_back(std::string(array_name) + "[" + std::to_string(i) +
                         "] lacks required " + (f.kind == 'n' ? "number" : "string") +
                         " '" + f.key + "'");
      }
    }
  }
}

} // namespace

std::vector<std::string> validate_schema(const json::Value& doc) {
  std::vector<std::string> errors;
  if (!doc.is_object()) {
    errors.push_back("document is not a JSON object");
    return errors;
  }
  // Besides BENCH_*.json, the gate also validates the campaign aggregator's
  // report (schema-tagged instead of bench-tagged): per-scenario stats plus
  // one joined record per run. Booleans and nullable physics columns are
  // left to campaign_report --strict; this checks the structural contract.
  if (doc["schema"].is_string() && doc["schema"].as_string() == kCampaignSchema) {
    for (const char* key : {"runs_total", "runs_valid", "completed", "aborted",
                            "failed"}) {
      if (!doc[key].is_number()) {
        errors.push_back(std::string("missing number field '") + key + "'");
      }
    }
    check_records(doc, "scenarios",
                  {{"scenario", 's'},
                   {"runs", 'n'},
                   {"completed", 'n'},
                   {"aborted", 'n'},
                   {"failed", 'n'},
                   {"step_samples", 'n'}},
                  errors);
    check_records(doc, "runs",
                  {{"dir", 's'},
                   {"run_id", 's'},
                   {"scenario", 's'},
                   {"status", 's'},
                   {"exit_code", 'n'},
                   {"steps_done", 'n'},
                   {"num_events", 'n'},
                   {"num_critical", 'n'}},
                  errors);
    return errors;
  }
  if (!doc["bench"].is_string()) {
    errors.push_back("missing string field 'bench'");
    return errors;
  }
  const std::string& bench = doc["bench"].as_string();
  const std::vector<FieldSpec> cluster_fields = {
      {"nodes", 'n'},    {"compute_s", 'n'}, {"comm_s", 'n'},
      {"total_s", 'n'},  {"imbalance", 'n'}, {"bytes", 'n'},
      {"messages", 'n'}, {"efficiency", 'n'}};
  if (bench == "kernels") {
    check_records(doc, "routines",
                  {{"routine", 's'},
                   {"reference_s", 'n'},
                   {"optimized_s", 'n'},
                   {"speedup", 'n'}},
                  errors);
  } else if (bench == "weak_scaling") {
    check_records(doc, "model", {{"machine", 's'}, {"nodes", 'n'}, {"efficiency", 'n'}},
                  errors);
    check_records(doc, "simulated_cluster", cluster_fields, errors);
  } else if (bench == "strong_scaling") {
    check_records(doc, "model",
                  {{"machine", 's'},
                   {"nodes", 'n'},
                   {"base_nodes", 'n'},
                   {"speedup", 'n'},
                   {"efficiency", 'n'}},
                  errors);
    auto fields = cluster_fields;
    fields.push_back({"speedup", 'n'});
    check_records(doc, "simulated_cluster", fields, errors);
  } else if (bench == "resilience") {
    check_records(doc, "overhead",
                  {{"scenario", 's'},
                   {"checkpoint_cost_s", 'n'},
                   {"mtbf_s", 'n'},
                   {"interval_s", 'n'},
                   {"overhead_fraction", 'n'}},
                  errors);
    check_records(doc, "recovery",
                  {{"interval_steps", 'n'},
                   {"crash_step", 'n'},
                   {"rollback_steps", 'n'},
                   {"detection_s", 'n'},
                   {"restore_s", 'n'},
                   {"replay_s", 'n'},
                   {"recovery_s", 'n'},
                   {"imbalance_after", 'n'}},
                  errors);
  } else if (bench == "attribution") {
    check_records(doc, "loss",
                  {{"nodes", 'n'},
                   {"total_s", 'n'},
                   {"ideal_s", 'n'},
                   {"efficiency", 'n'},
                   {"loss", 'n'},
                   {"imbalance", 'n'},
                   {"comm", 'n'},
                   {"latency", 'n'},
                   {"resil", 'n'},
                   {"residual", 'n'},
                   {"invariant_gap", 'n'}},
                  errors);
    check_records(doc, "critical_path",
                  {{"step", 'n'},
                   {"makespan_s", 'n'},
                   {"compute_s", 'n'},
                   {"transfer_s", 'n'},
                   {"latency_s", 'n'},
                   {"retry_s", 'n'},
                   {"critical_rank", 'n'}},
                  errors);
  } else if (bench == "observers") {
    // bench_observers: one record per observer on lwfa_mr, its seconds
    // against the step's; gated and overhead_ok are 0/1 numbers.
    check_records(doc, "observers",
                  {{"observer", 's'},
                   {"seconds", 'n'},
                   {"step_s", 'n'},
                   {"overhead_frac", 'n'},
                   {"gated", 'n'},
                   {"overhead_ok", 'n'}},
                  errors);
  } else if (bench == "mr_savings") {
    // bench_mr_savings --json: one record per (dim, ratio, patch-fraction)
    // point of the analytic affordability model.
    check_records(doc, "points",
                  {{"dim", 'n'},
                   {"ratio", 'n'},
                   {"patch_fraction", 'n'},
                   {"actual_bytes", 'n'},
                   {"uniform_fine_bytes", 'n'},
                   {"savings", 'n'}},
                  errors);
  }
  // Unknown bench kinds: the 'bench' name above is the whole contract.
  return errors;
}

} // namespace mrpic::obs::benchdiff
