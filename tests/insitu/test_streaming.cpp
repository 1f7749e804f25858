// insitu streaming exporter: frame round-trip (bit-exact float32 payload),
// file rotation + ring pruning, truncated-tail tolerance, manifest schema
// validation, and the downsample / phase-space frame producers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/insitu/streaming.hpp"
#include "src/obs/json.hpp"

using namespace mrpic;
using insitu::Frame;
using insitu::FrameKind;

namespace {

Frame make_frame(std::int64_t step, std::uint32_t nx, std::uint32_t ny,
                 const std::string& name) {
  Frame f;
  f.kind = FrameKind::FieldSlice;
  f.name = name;
  f.step = step;
  f.time = 1e-15 * static_cast<double>(step);
  f.nx = nx;
  f.ny = ny;
  f.x0 = 0;
  f.x1 = 1e-5;
  f.y0 = -2e-6;
  f.y1 = 2e-6;
  f.data.resize(std::size_t(nx) * ny);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    // Values that exercise the full float mantissa, sign and magnitude.
    f.data[i] = static_cast<float>(std::sin(0.1 * double(i) + double(step)) * 1e11);
  }
  return f;
}

void expect_frames_equal(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.x0, b.x0);
  EXPECT_EQ(a.x1, b.x1);
  EXPECT_EQ(a.y0, b.y0);
  EXPECT_EQ(a.y1, b.y1);
  ASSERT_EQ(a.data.size(), b.data.size());
  // Bit-exact: the payload is raw float32, no re-encoding allowed.
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(),
                           a.data.size() * sizeof(float)));
}

void cleanup(const std::string& basename, int nfiles = 16) {
  for (int i = 0; i < nfiles; ++i) {
    char path[256];
    std::snprintf(path, sizeof(path), "%s.%03d.bin", basename.c_str(), i);
    std::remove(path);
  }
  std::remove((basename + ".manifest.json").c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(InsituStreaming, RoundTripBitExact) {
  const std::string base = "stream_test_rt";
  cleanup(base);
  std::vector<Frame> written;
  {
    insitu::StreamConfig cfg;
    cfg.basename = base;
    insitu::StreamWriter w(cfg);
    for (int s = 0; s < 3; ++s) { written.push_back(make_frame(s * 10, 12, 7, "Ex")); }
    ASSERT_TRUE(w.write({written[0]}));
    ASSERT_TRUE(w.write({written[1], written[2]}));
    EXPECT_EQ(w.frames_written(), 3);
    EXPECT_GT(w.bytes_written(), 0);
  }

  bool truncated = true;
  const auto back = insitu::read_frames(base + ".000.bin", &truncated);
  EXPECT_FALSE(truncated);
  ASSERT_EQ(back.size(), 3u);
  for (int i = 0; i < 3; ++i) { expect_frames_equal(written[i], back[i]); }

  std::vector<std::string> errors;
  const auto man = insitu::read_manifest(base + ".manifest.json", &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(man.total_frames, 3);
  ASSERT_EQ(man.files.size(), 1u);
  EXPECT_EQ(man.files[0].frames, 3);
  EXPECT_EQ(man.files[0].first_step, 0);
  EXPECT_EQ(man.files[0].last_step, 20);
  cleanup(base);
}

TEST(InsituStreaming, RotationAndRingPruning) {
  const std::string base = "stream_test_rot";
  cleanup(base);
  {
    insitu::StreamConfig cfg;
    cfg.basename = base;
    cfg.max_file_bytes = 1; // every frame exceeds the bound -> one file each
    cfg.max_files = 2;
    insitu::StreamWriter w(cfg);
    // Frames 2 and 3 arrive as one streamed step and still rotate apart.
    ASSERT_TRUE(w.write({make_frame(0, 4, 4, "Ey")}));
    ASSERT_TRUE(w.write({make_frame(1, 4, 4, "Ey")}));
    ASSERT_TRUE(w.write({make_frame(2, 4, 4, "Ey"), make_frame(3, 4, 4, "Ey")}));
    EXPECT_EQ(w.frames_written(), 4);
    EXPECT_EQ(w.files_rotated(), 4);
  }

  // Ring of 2: the first two files were pruned from disk and manifest.
  EXPECT_FALSE(std::ifstream(base + ".000.bin").good());
  EXPECT_FALSE(std::ifstream(base + ".001.bin").good());
  EXPECT_TRUE(std::ifstream(base + ".002.bin").good());
  EXPECT_TRUE(std::ifstream(base + ".003.bin").good());

  std::vector<std::string> errors;
  const auto man = insitu::read_manifest(base + ".manifest.json", &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(man.total_frames, 2);
  ASSERT_EQ(man.files.size(), 2u);
  EXPECT_EQ(man.files[0].file, base + ".002.bin");
  EXPECT_EQ(man.files[1].file, base + ".003.bin");

  const auto f2 = insitu::read_frames(base + ".002.bin");
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_EQ(f2[0].step, 2);
  cleanup(base);
}

TEST(InsituStreaming, TruncatedTailIsDroppedWithoutError) {
  const std::string base = "stream_test_trunc";
  cleanup(base);
  {
    insitu::StreamConfig cfg;
    cfg.basename = base;
    insitu::StreamWriter w(cfg);
    ASSERT_TRUE(w.write({make_frame(0, 8, 8, "Ex")}));
    ASSERT_TRUE(w.write({make_frame(1, 8, 8, "Ex")}));
  }
  const std::string path = base + ".000.bin";
  const std::string bytes = slurp(path);

  // Chop into the second frame's payload: a crash mid-append.
  spit(path, bytes.substr(0, bytes.size() - 37));
  bool truncated = false;
  auto frames = insitu::read_frames(path, &truncated);
  EXPECT_TRUE(truncated);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].step, 0);

  // Corrupt one payload byte of the tail frame: checksum must reject it.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 20] ^= 0x5a;
  spit(path, corrupt);
  truncated = false;
  frames = insitu::read_frames(path, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(frames.size(), 1u);

  // The intact file reads both frames cleanly.
  spit(path, bytes);
  truncated = true;
  frames = insitu::read_frames(path, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(frames.size(), 2u);
  cleanup(base);
}

TEST(InsituStreaming, ManifestSchemaValidation) {
  const std::string good = R"({
    "schema": "mrpic.insitu.stream.v1",
    "version": 1,
    "basename": "run_stream",
    "max_file_bytes": 4194304,
    "max_files": 8,
    "total_frames": 1,
    "files": [{"file": "run_stream.000.bin", "frames": 1,
               "first_step": 0, "last_step": 0, "bytes": 100}],
    "frames": [{"file": "run_stream.000.bin", "offset": 0, "kind": "field_slice",
                "name": "Ex", "step": 0, "time": 0.0, "nx": 4, "ny": 4}]
  })";
  EXPECT_TRUE(insitu::validate_manifest(obs::json::parse(good)).empty());

  // Wrong schema tag.
  const std::string bad_tag = R"({"schema": "someone.else.v9", "version": 1,
    "basename": "x", "total_frames": 0, "files": [], "frames": []})";
  EXPECT_FALSE(insitu::validate_manifest(obs::json::parse(bad_tag)).empty());

  // total_frames disagrees with the frames list.
  const std::string bad_count = R"({
    "schema": "mrpic.insitu.stream.v1", "version": 1, "basename": "x",
    "total_frames": 5, "files": [], "frames": []})";
  EXPECT_FALSE(insitu::validate_manifest(obs::json::parse(bad_count)).empty());
}

TEST(InsituStreaming, DownsampleSliceBlockAverages) {
  // 8x8 single-box field, comp 1 filled with f(i,j) = i + 10 j; factor-2
  // block averages are exact: (2I + 0.5) + 10 (2J + 0.5).
  const Box2 domain(IntVect2(0, 0), IntVect2(7, 7));
  const mrpic::BoxArray<2> ba(domain);
  const mrpic::Geometry<2> geom(domain, RealVect2(0, 0), RealVect2(8e-6, 8e-6),
                                {false, false});
  mrpic::MultiFab<2> mf(ba, 3, 0);
  mf.set_val(0);
  auto& fab = mf.fab(0);
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 8; ++i) { fab(IntVect2(i, j), 1) = Real(i + 10 * j); }
  }

  const auto fr = insitu::downsample_slice<2>(mf, geom, 1, 2, "Ey");
  EXPECT_EQ(fr.kind, FrameKind::FieldSlice);
  EXPECT_EQ(fr.name, "Ey");
  ASSERT_EQ(fr.nx, 4u);
  ASSERT_EQ(fr.ny, 4u);
  for (std::uint32_t J = 0; J < 4; ++J) {
    for (std::uint32_t I = 0; I < 4; ++I) {
      const double expect = (2.0 * I + 0.5) + 10.0 * (2.0 * J + 0.5);
      EXPECT_NEAR(fr.at(I, J), expect, 1e-5) << "block " << I << "," << J;
    }
  }
  // Physical extents cover the sliced domain.
  EXPECT_NEAR(fr.x0, 0.0, 1e-12);
  EXPECT_NEAR(fr.x1, 8e-6, 1e-12);
}

TEST(InsituStreaming, PhaseSpaceFrameCarriesCounts) {
  diag::PhaseSpaceConfig cfg;
  cfg.ax = diag::Axis::X0;
  cfg.ay = diag::Axis::Ux;
  cfg.a_min = 0;
  cfg.a_max = 4;
  cfg.b_min = -1;
  cfg.b_max = 1;
  cfg.na = 4;
  cfg.nb = 2;
  diag::PhaseSpace ps(cfg);

  const mrpic::BoxArray<2> ba(Box2(IntVect2(0, 0), IntVect2(7, 7)));
  particles::ParticleContainer<2> pc(particles::Species::electron(), ba);
  pc.tile(0).push_back({0.5, 0.0}, {0.5, 0.0, 0.0}, 2.0);  // bin (0, 1)
  pc.tile(0).push_back({3.5, 0.0}, {-0.5, 0.0, 0.0}, 3.0); // bin (3, 0)
  ps.accumulate(pc);

  const auto fr = insitu::phase_space_frame(ps, "x_ux");
  EXPECT_EQ(fr.kind, FrameKind::PhaseSpace);
  ASSERT_EQ(fr.nx, 4u);
  ASSERT_EQ(fr.ny, 2u);
  EXPECT_NEAR(fr.at(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(fr.at(3, 0), 3.0, 1e-12);
  EXPECT_NEAR(fr.x0, 0.0, 1e-12);
  EXPECT_NEAR(fr.x1, 4.0, 1e-12);
  EXPECT_NEAR(fr.y0, -1.0, 1e-12);
  EXPECT_NEAR(fr.y1, 1.0, 1e-12);
}
