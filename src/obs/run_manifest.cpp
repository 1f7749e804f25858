#include "src/obs/run_manifest.hpp"

#include <atomic>
#include <cctype>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifdef _WIN32
#else
#include <unistd.h>
#endif

namespace mrpic::obs {

std::string generate_run_id(const std::string& scenario) {
  static std::atomic<std::int64_t> counter{0};
  const std::int64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const auto now = static_cast<std::int64_t>(std::time(nullptr));
#ifdef _WIN32
  const std::int64_t pid = 0;
#else
  const auto pid = static_cast<std::int64_t>(::getpid());
#endif
  std::string base = scenario.empty() ? std::string("run") : scenario;
  for (auto& c : base) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-')) {
      c = '_';
    }
  }
  return base + "-" + std::to_string(now) + "-" + std::to_string(pid) + "-" +
         std::to_string(n);
}

void fill_build_info(RunManifest& m) {
#ifdef NDEBUG
  m.build_type = "Release";
#else
  m.build_type = "Debug";
#endif
#if defined(__clang__)
  m.compiler = "clang " + std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  m.compiler =
      "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  m.compiler = "unknown";
#endif
}

std::int64_t file_size_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<std::int64_t>(n);
}

std::string manifest_json(const RunManifest& m) {
  std::ostringstream ss;
  json::Writer w(ss);
  w.begin_object()
      .field("schema", kRunManifestSchema)
      .field("run_id", m.run_id)
      .field("scenario", m.scenario)
      .field("title", m.title)
      .field("spec_digest", m.spec_digest)
      .field("status", m.status)
      .field("exit_code", m.exit_code)
      .field("reason", m.reason)
      .field("start_unix", m.start_unix)
      .field("end_unix", m.end_unix)
      .field("wall_s", m.wall_s)
      .field("steps_done", m.steps_done)
      .field("sim_time_s", m.sim_time_s)
      .field("num_events", m.num_events)
      .field("num_alerts", m.num_alerts)
      .field("build_type", m.build_type)
      .field("compiler", m.compiler);
  w.begin_array("flags");
  for (const auto& f : m.flags) { w.value(f); }
  w.end_array();
  w.begin_array("artifacts");
  for (const auto& a : m.artifacts) {
    w.begin_object()
        .field("name", a.name)
        .field("path", a.path)
        .field("bytes", a.bytes)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return ss.str();
}

bool write_manifest_atomic(const RunManifest& m, const std::string& path) {
  return json::write_atomic(path, manifest_json(m) + '\n');
}

RunManifest parse_manifest(const json::Value& doc) {
  if (!doc.is_object() || !doc["schema"].is_string() ||
      doc["schema"].as_string() != kRunManifestSchema) {
    throw std::runtime_error("run manifest lacks the \"" +
                             std::string(kRunManifestSchema) + "\" schema tag");
  }
  RunManifest m;
  const auto str = [&](const char* key) {
    return doc[key].is_string() ? doc[key].as_string() : std::string();
  };
  const auto num = [&](const char* key) {
    return doc[key].is_number() ? doc[key].as_number() : 0.0;
  };
  m.run_id = str("run_id");
  m.scenario = str("scenario");
  m.title = str("title");
  m.spec_digest = str("spec_digest");
  m.status = doc["status"].is_string() ? doc["status"].as_string() : std::string();
  m.exit_code = static_cast<int>(num("exit_code"));
  m.reason = str("reason");
  m.start_unix = static_cast<std::int64_t>(num("start_unix"));
  m.end_unix = static_cast<std::int64_t>(num("end_unix"));
  m.wall_s = num("wall_s");
  m.steps_done = static_cast<std::int64_t>(num("steps_done"));
  m.sim_time_s = num("sim_time_s");
  m.num_events = static_cast<std::int64_t>(num("num_events"));
  m.num_alerts = static_cast<std::int64_t>(num("num_alerts"));
  m.build_type = str("build_type");
  m.compiler = str("compiler");
  if (doc["flags"].is_array()) {
    for (const auto& f : doc["flags"].as_array()) {
      if (f.is_string()) { m.flags.push_back(f.as_string()); }
    }
  }
  if (doc["artifacts"].is_array()) {
    for (const auto& a : doc["artifacts"].as_array()) {
      if (!a.is_object()) { continue; }
      ArtifactInfo info;
      info.name = a["name"].is_string() ? a["name"].as_string() : std::string();
      info.path = a["path"].is_string() ? a["path"].as_string() : std::string();
      info.bytes = a["bytes"].is_number() ? a["bytes"].as_int() : -1;
      m.artifacts.push_back(std::move(info));
    }
  }
  return m;
}

RunManifest read_manifest(const std::string& path) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("cannot open run manifest: " + path); }
  std::stringstream ss;
  ss << is.rdbuf();
  return parse_manifest(json::parse(ss.str()));
}

std::vector<std::string> validate_manifest(const json::Value& doc) {
  std::vector<std::string> errors;
  if (!doc.is_object()) {
    errors.push_back("manifest is not a JSON object");
    return errors;
  }
  if (!doc["schema"].is_string() || doc["schema"].as_string() != kRunManifestSchema) {
    errors.push_back("missing or foreign schema tag (want " +
                     std::string(kRunManifestSchema) + ")");
  }
  if (!doc["run_id"].is_string() || doc["run_id"].as_string().empty()) {
    errors.push_back("missing run_id");
  }
  if (!doc["scenario"].is_string() || doc["scenario"].as_string().empty()) {
    errors.push_back("missing scenario");
  }
  if (!doc["status"].is_string()) {
    errors.push_back("missing status");
  } else {
    const std::string& s = doc["status"].as_string();
    if (s != kRunStatusRunning && s != kRunStatusCompleted && s != kRunStatusAborted &&
        s != kRunStatusFailed) {
      errors.push_back("unknown status \"" + s + "\"");
    }
  }
  if (!doc["start_unix"].is_number()) { errors.push_back("missing start_unix"); }
  if (!doc["steps_done"].is_number()) {
    errors.push_back("missing steps_done");
  } else if (doc["steps_done"].as_number() < 0) {
    errors.push_back("negative steps_done");
  }
  if (!doc["artifacts"].is_array()) {
    errors.push_back("missing artifacts inventory");
  } else {
    std::size_t i = 0;
    for (const auto& a : doc["artifacts"].as_array()) {
      if (!a.is_object() || !a["name"].is_string() || !a["path"].is_string()) {
        errors.push_back("artifact[" + std::to_string(i) + "] lacks name/path");
      }
      ++i;
    }
  }
  return errors;
}

RunContext::RunContext(std::string run_id, std::string scenario,
                       std::string manifest_path)
    : m_path(std::move(manifest_path)), m_t0(std::chrono::steady_clock::now()) {
  m_manifest.run_id = std::move(run_id);
  m_manifest.scenario = std::move(scenario);
  m_manifest.start_unix = static_cast<std::int64_t>(std::time(nullptr));
  fill_build_info(m_manifest);
  const auto pos = m_path.find_last_of('/');
  m_dir = pos == std::string::npos ? std::string() : m_path.substr(0, pos + 1);
}

void RunContext::add_artifact(std::string name, const std::string& path) {
  ArtifactInfo info;
  info.name = std::move(name);
  // Store relative to the manifest directory when the artifact sits inside
  // it (the usual case: everything lands in one outdir).
  info.path = (!m_dir.empty() && path.rfind(m_dir, 0) == 0) ? path.substr(m_dir.size())
                                                            : path;
  m_manifest.artifacts.push_back(std::move(info));
  m_artifact_abs.push_back(path);
}

bool RunContext::start() { return write_manifest_atomic(m_manifest, m_path); }

bool RunContext::finalize(const std::string& status, int exit_code,
                          std::int64_t steps_done, double sim_time_s,
                          const std::string& reason) {
  m_manifest.status = status;
  m_manifest.exit_code = exit_code;
  m_manifest.steps_done = steps_done;
  m_manifest.sim_time_s = sim_time_s;
  m_manifest.reason = reason;
  m_manifest.end_unix = static_cast<std::int64_t>(std::time(nullptr));
  m_manifest.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - m_t0).count();
  for (std::size_t i = 0; i < m_manifest.artifacts.size(); ++i) {
    m_manifest.artifacts[i].bytes = file_size_bytes(m_artifact_abs[i]);
  }
  return write_manifest_atomic(m_manifest, m_path);
}

} // namespace mrpic::obs
