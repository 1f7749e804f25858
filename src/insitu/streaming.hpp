#pragma once

// insitu::streaming — the live-telemetry seam for campaign dashboards: a
// run's downsampled 2D field slices and phase-space histograms are appended
// as self-describing binary frames to rotating, size-bounded files, next to
// a JSON manifest that indexes every frame (file, offset, step, axes). A
// consumer tails the manifest + frame files without ever touching the
// checkpoints or the full field state — the in-situ/streaming IO model of
// the exascale design-workflow papers (Huebl et al.; Myers et al.).
//
// Frame format (little-endian):
//   u32 magic 'MRSF'  u32 version  u32 kind  u32 name_len  name bytes
//   i64 step  f64 time  u32 nx  u32 ny  f64 x0 x1 y0 y1
//   u64 payload_bytes  payload (nx*ny float32, row-major, y slowest)
//   u64 FNV-1a checksum over everything above
// Each frame is appended and flushed as it is produced (like health
// alerts), so a crashed run leaves at most one truncated tail frame —
// which the reader tolerates and drops.

#include <cstdint>
#include <string>
#include <vector>

#include "src/amr/multifab.hpp"
#include "src/diag/phase_space.hpp"
#include "src/obs/json.hpp"
#include "src/obs/memory.hpp"

namespace mrpic::insitu {

inline constexpr std::uint32_t stream_magic = 0x4653524dU; // "MRSF" little-endian
inline constexpr std::uint32_t stream_version = 1;

enum class FrameKind : std::uint32_t { FieldSlice = 0, PhaseSpace = 1 };

struct Frame {
  FrameKind kind = FrameKind::FieldSlice;
  std::string name;          // e.g. "Ex", "x_ux"
  std::int64_t step = -1;
  double time = 0;
  std::uint32_t nx = 0, ny = 0;
  double x0 = 0, x1 = 0;     // physical extent of axis 0 (or hist axis a)
  double y0 = 0, y1 = 0;     // physical extent of axis 1 (or hist axis b)
  std::vector<float> data;   // nx*ny, row-major (y slowest)

  std::size_t payload_bytes() const { return data.size() * sizeof(float); }
  float at(std::uint32_t ix, std::uint32_t iy) const {
    return data[std::size_t(iy) * nx + ix];
  }
};

// --- frame producers -------------------------------------------------------

// Block-average downsample of component `comp` over the level's valid
// domain. For DIM == 3 the mid-plane (k = domain center) is sliced first.
// Partial edge blocks (domain not divisible by `factor`) average over the
// cells they cover.
template <int DIM>
Frame downsample_slice(const mrpic::MultiFab<DIM>& mf, const mrpic::Geometry<DIM>& geom,
                       int comp, int factor, std::string name);

// A phase-space histogram as a frame (counts to float32).
Frame phase_space_frame(const diag::PhaseSpace& ps, std::string name);

// --- writer ----------------------------------------------------------------

struct StreamConfig {
  // Frame files are `<basename>.NNN.bin`, manifest `<basename>.manifest.json`.
  std::string basename;
  // Rotate to the next file once the current one reaches this size.
  std::uint64_t max_file_bytes = 4u << 20;
  // Keep at most this many frame files; the oldest is deleted (and dropped
  // from the manifest) when the ring is full. 0 = unbounded.
  int max_files = 8;
};

class StreamWriter {
public:
  explicit StreamWriter(StreamConfig cfg);
  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  const StreamConfig& config() const { return m_cfg; }

  // Append the frames of one streamed step (+ flush) to the current file,
  // rotating/pruning first whenever a frame would exceed the size bound,
  // then rewrite the manifest once. Returns false on I/O failure.
  bool write(const std::vector<Frame>& frames);

  std::int64_t frames_written() const { return m_frames_written; }
  std::int64_t bytes_written() const { return m_bytes_written; }
  std::int64_t files_rotated() const { return m_next_index; }
  std::string manifest_path() const;

private:
  struct FileEntry {
    std::string file;       // basename-relative file name
    std::int64_t frames = 0;
    std::uint64_t bytes = 0;
    std::int64_t first_step = -1, last_step = -1;
  };
  struct FrameEntry {
    std::string file;
    std::uint64_t offset = 0;
    FrameKind kind = FrameKind::FieldSlice;
    std::string name;
    std::int64_t step = -1;
    double time = 0;
    std::uint32_t nx = 0, ny = 0;
  };

  std::string file_path(int index) const;
  std::string file_name(int index) const;
  bool rotate();
  bool write_manifest() const;

  StreamConfig m_cfg;
  int m_next_index = 0;          // index the *next* rotation opens
  int m_current = -1;            // index of the open file (-1 = none yet)
  std::uint64_t m_current_bytes = 0;
  std::int64_t m_frames_written = 0;
  std::int64_t m_bytes_written = 0;
  std::vector<FileEntry> m_files;    // live (non-pruned) files, oldest first
  std::vector<FrameEntry> m_frames;  // frames in live files
  void* m_os = nullptr;              // std::ofstream*, kept opaque here
  obs::MemCharge m_mem{"insitu.stream"}; // encode buffer + manifest index
};

// --- reader ----------------------------------------------------------------

// Read every complete frame of one frame file. A truncated or corrupted
// tail (short header, short payload, checksum mismatch) ends the scan
// without error; *truncated_tail reports whether anything was dropped.
std::vector<Frame> read_frames(const std::string& path, bool* truncated_tail = nullptr);

struct ManifestFile {
  std::string file;
  std::int64_t frames = 0;
  std::int64_t first_step = -1, last_step = -1;
};

struct Manifest {
  int version = 0;
  std::string basename;
  std::vector<ManifestFile> files;
  std::int64_t total_frames = 0;
};

// Parse + validate `<basename>.manifest.json`. Throws std::runtime_error on
// unreadable/unparseable files; schema problems land in `errors`.
Manifest read_manifest(const std::string& path, std::vector<std::string>* errors = nullptr);

// Schema check of a parsed manifest document (shared by reader and tests).
std::vector<std::string> validate_manifest(const obs::json::Value& doc);

extern template Frame downsample_slice<2>(const mrpic::MultiFab<2>&,
                                          const mrpic::Geometry<2>&, int, int,
                                          std::string);
extern template Frame downsample_slice<3>(const mrpic::MultiFab<3>&,
                                          const mrpic::Geometry<3>&, int, int,
                                          std::string);

} // namespace mrpic::insitu
