#include "src/insitu/streaming.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mrpic::insitu {

namespace {

// Same FNV-1a 64 as the checkpoint checksum (io/checkpoint.cpp); duplicated
// here so insitu does not pull in core/simulation.hpp through io.
std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
void put(std::string& buf, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.append(p, sizeof(T));
}

// Bounds-checked reads off an in-memory file image; false = ran off the end.
struct Cursor {
  const char* p;
  std::size_t n;
  std::size_t pos = 0;

  template <typename T>
  bool get(T& v) {
    if (pos + sizeof(T) > n) { return false; }
    std::memcpy(&v, p + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  bool get_bytes(void* dst, std::size_t k) {
    if (pos + k > n) { return false; }
    std::memcpy(dst, p + pos, k);
    pos += k;
    return true;
  }
};

std::string encode_frame(const Frame& f) {
  std::string buf;
  buf.reserve(96 + f.name.size() + f.payload_bytes());
  put(buf, stream_magic);
  put(buf, stream_version);
  put(buf, static_cast<std::uint32_t>(f.kind));
  put(buf, static_cast<std::uint32_t>(f.name.size()));
  buf.append(f.name);
  put(buf, f.step);
  put(buf, f.time);
  put(buf, f.nx);
  put(buf, f.ny);
  put(buf, f.x0);
  put(buf, f.x1);
  put(buf, f.y0);
  put(buf, f.y1);
  put(buf, static_cast<std::uint64_t>(f.payload_bytes()));
  if (!f.data.empty()) {
    buf.append(reinterpret_cast<const char*>(f.data.data()), f.payload_bytes());
  }
  put(buf, fnv1a64(buf.data(), buf.size()));
  return buf;
}

const char* kind_name(FrameKind k) {
  return k == FrameKind::PhaseSpace ? "phase_space" : "field_slice";
}

} // namespace

// --- frame producers -------------------------------------------------------

template <int DIM>
Frame downsample_slice(const mrpic::MultiFab<DIM>& mf, const mrpic::Geometry<DIM>& geom,
                       int comp, int factor, std::string name) {
  Frame fr;
  fr.kind = FrameKind::FieldSlice;
  fr.name = std::move(name);
  if (factor < 1) { factor = 1; }

  Box<DIM> bbox;
  for (int i = 0; i < mf.num_fabs(); ++i) { bbox = bounding(bbox, mf.valid_box(i)); }
  if (bbox.empty()) { return fr; }

  const int nxd = bbox.length(0);
  const int nyd = bbox.length(1);
  int kmid = 0;
  if constexpr (DIM >= 3) { kmid = (bbox.lo(2) + bbox.hi(2)) / 2; }

  // Gather the (mid-plane) slice onto one dense grid; the valid boxes tile
  // the level, so every cell is written exactly once.
  std::vector<double> full(static_cast<std::size_t>(nxd) * nyd, 0.0);
  for (int i = 0; i < mf.num_fabs(); ++i) {
    const auto& fab = mf.fab(i);
    fab.for_each_cell(mf.valid_box(i), [&](const IntVect<DIM>& p) {
      if constexpr (DIM >= 3) {
        if (p[2] != kmid) { return; }
      }
      const std::size_t ix = static_cast<std::size_t>(p[0] - bbox.lo(0));
      const std::size_t iy = static_cast<std::size_t>(p[1] - bbox.lo(1));
      full[iy * nxd + ix] = fab(p, comp);
    });
  }

  fr.nx = static_cast<std::uint32_t>((nxd + factor - 1) / factor);
  fr.ny = static_cast<std::uint32_t>((nyd + factor - 1) / factor);
  fr.data.assign(static_cast<std::size_t>(fr.nx) * fr.ny, 0.f);
  for (std::uint32_t by = 0; by < fr.ny; ++by) {
    for (std::uint32_t bx = 0; bx < fr.nx; ++bx) {
      const int ix0 = static_cast<int>(bx) * factor;
      const int iy0 = static_cast<int>(by) * factor;
      const int ix1 = std::min(ix0 + factor, nxd);
      const int iy1 = std::min(iy0 + factor, nyd);
      double s = 0;
      for (int iy = iy0; iy < iy1; ++iy) {
        for (int ix = ix0; ix < ix1; ++ix) { s += full[std::size_t(iy) * nxd + ix]; }
      }
      fr.data[std::size_t(by) * fr.nx + bx] =
          static_cast<float>(s / ((ix1 - ix0) * (iy1 - iy0)));
    }
  }

  fr.x0 = geom.cell_center(bbox.lo(0), 0) - 0.5 * geom.cell_size(0);
  fr.x1 = geom.cell_center(bbox.hi(0), 0) + 0.5 * geom.cell_size(0);
  fr.y0 = geom.cell_center(bbox.lo(1), 1) - 0.5 * geom.cell_size(1);
  fr.y1 = geom.cell_center(bbox.hi(1), 1) + 0.5 * geom.cell_size(1);
  return fr;
}

Frame phase_space_frame(const diag::PhaseSpace& ps, std::string name) {
  const auto& cfg = ps.config();
  Frame fr;
  fr.kind = FrameKind::PhaseSpace;
  fr.name = std::move(name);
  fr.nx = static_cast<std::uint32_t>(cfg.na);
  fr.ny = static_cast<std::uint32_t>(cfg.nb);
  fr.x0 = cfg.a_min;
  fr.x1 = cfg.a_max;
  fr.y0 = cfg.b_min;
  fr.y1 = cfg.b_max;
  fr.data.resize(static_cast<std::size_t>(fr.nx) * fr.ny);
  for (int ib = 0; ib < cfg.nb; ++ib) {
    for (int ia = 0; ia < cfg.na; ++ia) {
      fr.data[std::size_t(ib) * fr.nx + ia] = static_cast<float>(ps.at(ia, ib));
    }
  }
  return fr;
}

// --- writer ----------------------------------------------------------------

StreamWriter::StreamWriter(StreamConfig cfg) : m_cfg(std::move(cfg)) {}

StreamWriter::~StreamWriter() { delete static_cast<std::ofstream*>(m_os); }

std::string StreamWriter::manifest_path() const {
  return m_cfg.basename + ".manifest.json";
}

std::string StreamWriter::file_name(int index) const {
  char num[8];
  std::snprintf(num, sizeof(num), "%03d", index);
  const auto slash = m_cfg.basename.find_last_of('/');
  const std::string stem =
      slash == std::string::npos ? m_cfg.basename : m_cfg.basename.substr(slash + 1);
  return stem + "." + num + ".bin";
}

std::string StreamWriter::file_path(int index) const {
  const auto slash = m_cfg.basename.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string() : m_cfg.basename.substr(0, slash + 1);
  return dir + file_name(index);
}

bool StreamWriter::rotate() {
  delete static_cast<std::ofstream*>(m_os);
  m_os = nullptr;
  m_current = m_next_index++;
  auto* os = new std::ofstream(file_path(m_current), std::ios::binary | std::ios::trunc);
  if (!*os) {
    delete os;
    m_current = -1;
    return false;
  }
  m_os = os;
  m_current_bytes = 0;
  m_files.push_back(FileEntry{file_name(m_current), 0, 0, -1, -1});
  // Prune the oldest files out of the ring (and their manifest entries).
  while (m_cfg.max_files > 0 && static_cast<int>(m_files.size()) > m_cfg.max_files) {
    const std::string doomed = m_files.front().file;
    const auto slash = m_cfg.basename.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string() : m_cfg.basename.substr(0, slash + 1);
    std::remove((dir + doomed).c_str());
    m_files.erase(m_files.begin());
    m_frames.erase(std::remove_if(m_frames.begin(), m_frames.end(),
                                  [&](const FrameEntry& e) { return e.file == doomed; }),
                   m_frames.end());
  }
  return true;
}

bool StreamWriter::write(const Frame& f) {
  const std::string buf = encode_frame(f);
  // Steady "insitu.stream" account: the encode buffer of the frame in
  // flight plus the manifest index held in memory. The high-water mark is
  // the largest frame ever staged plus the index at its biggest.
  m_mem.update(static_cast<std::int64_t>(
      buf.size() + m_frames.capacity() * sizeof(FrameEntry) +
      m_files.capacity() * sizeof(FileEntry)));
  const bool fits = m_current >= 0 && m_current_bytes > 0 &&
                    m_current_bytes + buf.size() <= m_cfg.max_file_bytes;
  if (m_current < 0 || (!fits && m_current_bytes > 0)) {
    if (!rotate()) { return false; }
  }
  auto* os = static_cast<std::ofstream*>(m_os);
  const std::uint64_t offset = m_current_bytes;
  os->write(buf.data(), static_cast<std::streamsize>(buf.size()));
  os->flush();
  if (!*os) { return false; }

  m_current_bytes += buf.size();
  m_bytes_written += static_cast<std::int64_t>(buf.size());
  ++m_frames_written;
  auto& fe = m_files.back();
  ++fe.frames;
  fe.bytes = m_current_bytes;
  if (fe.first_step < 0) { fe.first_step = f.step; }
  fe.last_step = f.step;
  m_frames.push_back(
      FrameEntry{fe.file, offset, f.kind, f.name, f.step, f.time, f.nx, f.ny});
  return write_manifest();
}

bool StreamWriter::write_manifest() const {
  std::ostringstream os;
  {
    obs::json::Writer w(os);
    w.begin_object()
        .field("schema", "mrpic.insitu.stream.v1")
        .field("version", static_cast<std::int64_t>(stream_version))
        .field("basename", m_cfg.basename)
        .field("max_file_bytes", static_cast<std::int64_t>(m_cfg.max_file_bytes))
        .field("max_files", m_cfg.max_files)
        .field("total_frames", static_cast<std::int64_t>(m_frames.size()));
    w.begin_array("files");
    for (const auto& fe : m_files) {
      w.begin_object()
          .field("file", fe.file)
          .field("frames", fe.frames)
          .field("bytes", static_cast<std::int64_t>(fe.bytes))
          .field("first_step", fe.first_step)
          .field("last_step", fe.last_step)
          .end_object();
    }
    w.end_array();
    w.begin_array("frames");
    for (const auto& e : m_frames) {
      w.begin_object()
          .field("file", e.file)
          .field("offset", static_cast<std::int64_t>(e.offset))
          .field("kind", kind_name(e.kind))
          .field("name", e.name)
          .field("step", e.step)
          .field("time", e.time)
          .field("nx", static_cast<std::int64_t>(e.nx))
          .field("ny", static_cast<std::int64_t>(e.ny))
          .end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
  }
  return obs::json::write_atomic(manifest_path(), os.str());
}

// --- reader ----------------------------------------------------------------

std::vector<Frame> read_frames(const std::string& path, bool* truncated_tail) {
  if (truncated_tail != nullptr) { *truncated_tail = false; }
  std::ifstream is(path, std::ios::binary);
  if (!is) { throw std::runtime_error("insitu: cannot open stream file " + path); }
  std::string image((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());

  std::vector<Frame> out;
  Cursor c{image.data(), image.size()};
  while (c.pos < c.n) {
    const std::size_t start = c.pos;
    const auto bad_tail = [&]() {
      if (truncated_tail != nullptr) { *truncated_tail = true; }
    };
    std::uint32_t magic = 0, version = 0, kind = 0, name_len = 0;
    if (!c.get(magic) || !c.get(version) || !c.get(kind) || !c.get(name_len) ||
        magic != stream_magic || version != stream_version || kind > 1 ||
        name_len > 4096) {
      bad_tail();
      break;
    }
    Frame f;
    f.kind = static_cast<FrameKind>(kind);
    f.name.resize(name_len);
    std::uint64_t payload = 0;
    if (!c.get_bytes(f.name.data(), name_len) || !c.get(f.step) || !c.get(f.time) ||
        !c.get(f.nx) || !c.get(f.ny) || !c.get(f.x0) || !c.get(f.x1) || !c.get(f.y0) ||
        !c.get(f.y1) || !c.get(payload) ||
        payload != std::uint64_t(f.nx) * f.ny * sizeof(float)) {
      bad_tail();
      break;
    }
    f.data.resize(payload / sizeof(float));
    std::uint64_t sum = 0;
    if (!c.get_bytes(f.data.data(), payload) || !c.get(sum) ||
        sum != fnv1a64(image.data() + start, c.pos - sizeof(sum) - start)) {
      bad_tail();
      break;
    }
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<std::string> validate_manifest(const obs::json::Value& doc) {
  std::vector<std::string> errors;
  const auto err = [&](std::string m) { errors.push_back(std::move(m)); };
  if (!doc.is_object()) {
    err("manifest: root is not an object");
    return errors;
  }
  if (!doc.has("schema") || !doc["schema"].is_string() ||
      doc["schema"].as_string() != "mrpic.insitu.stream.v1") {
    err("manifest: missing/unknown schema tag");
  }
  for (const char* key : {"version", "max_file_bytes", "max_files", "total_frames"}) {
    if (!doc.has(key) || !doc[key].is_number()) {
      err(std::string("manifest: missing numeric field '") + key + "'");
    }
  }
  if (!doc.has("basename") || !doc["basename"].is_string()) {
    err("manifest: missing string field 'basename'");
  }
  std::int64_t files_frames = 0;
  if (!doc.has("files") || !doc["files"].is_array()) {
    err("manifest: missing array 'files'");
  } else {
    int i = 0;
    for (const auto& fv : doc["files"].as_array()) {
      const std::string at = "manifest: files[" + std::to_string(i++) + "]";
      if (!fv.is_object()) {
        err(at + " is not an object");
        continue;
      }
      if (!fv.has("file") || !fv["file"].is_string()) { err(at + ": missing 'file'"); }
      for (const char* key : {"frames", "bytes", "first_step", "last_step"}) {
        if (!fv.has(key) || !fv[key].is_number()) {
          err(at + ": missing numeric '" + key + "'");
        }
      }
      if (fv.has("frames") && fv["frames"].is_number()) {
        files_frames += fv["frames"].as_int();
      }
    }
  }
  if (!doc.has("frames") || !doc["frames"].is_array()) {
    err("manifest: missing array 'frames'");
  } else {
    int i = 0;
    for (const auto& ev : doc["frames"].as_array()) {
      const std::string at = "manifest: frames[" + std::to_string(i++) + "]";
      if (!ev.is_object()) {
        err(at + " is not an object");
        continue;
      }
      for (const char* key : {"file", "kind", "name"}) {
        if (!ev.has(key) || !ev[key].is_string()) {
          err(at + ": missing string '" + key + "'");
        }
      }
      for (const char* key : {"offset", "step", "time", "nx", "ny"}) {
        if (!ev.has(key) || !ev[key].is_number()) {
          err(at + ": missing numeric '" + key + "'");
        }
      }
      if (ev.has("kind") && ev["kind"].is_string() &&
          ev["kind"].as_string() != "field_slice" &&
          ev["kind"].as_string() != "phase_space") {
        err(at + ": unknown kind '" + ev["kind"].as_string() + "'");
      }
    }
    const auto n = static_cast<std::int64_t>(doc["frames"].as_array().size());
    if (doc.has("total_frames") && doc["total_frames"].is_number() &&
        doc["total_frames"].as_int() != n) {
      err("manifest: total_frames does not match frames[] length");
    }
    if (doc.has("files") && doc["files"].is_array() && files_frames != n) {
      err("manifest: per-file frame counts do not sum to frames[] length");
    }
  }
  return errors;
}

Manifest read_manifest(const std::string& path, std::vector<std::string>* errors) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("insitu: cannot open manifest " + path); }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const auto doc = obs::json::parse(text);
  auto errs = validate_manifest(doc);
  if (errors != nullptr) { *errors = errs; }

  Manifest m;
  if (!doc.is_object()) { return m; }
  if (doc["version"].is_number()) { m.version = static_cast<int>(doc["version"].as_int()); }
  if (doc["basename"].is_string()) { m.basename = doc["basename"].as_string(); }
  if (doc["total_frames"].is_number()) { m.total_frames = doc["total_frames"].as_int(); }
  if (doc["files"].is_array()) {
    for (const auto& fv : doc["files"].as_array()) {
      if (!fv.is_object()) { continue; }
      ManifestFile mf;
      if (fv["file"].is_string()) { mf.file = fv["file"].as_string(); }
      if (fv["frames"].is_number()) { mf.frames = fv["frames"].as_int(); }
      if (fv["first_step"].is_number()) { mf.first_step = fv["first_step"].as_int(); }
      if (fv["last_step"].is_number()) { mf.last_step = fv["last_step"].as_int(); }
      m.files.push_back(std::move(mf));
    }
  }
  return m;
}

template Frame downsample_slice<2>(const mrpic::MultiFab<2>&, const mrpic::Geometry<2>&,
                                   int, int, std::string);
template Frame downsample_slice<3>(const mrpic::MultiFab<3>&, const mrpic::Geometry<3>&,
                                   int, int, std::string);

} // namespace mrpic::insitu
