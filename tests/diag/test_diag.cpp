#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/diag/csv_writer.hpp"
#include "src/diag/spectrum.hpp"

namespace mrpic::diag {
namespace {

using namespace mrpic::constants;

mrpic::Geometry<2> make_geom() {
  return mrpic::Geometry<2>(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(15, 15)),
                            mrpic::RealVect2(0, 0), mrpic::RealVect2(1.6e-6, 1.6e-6),
                            {false, false});
}

// Proper velocity for a given kinetic energy [J].
Real u_of_energy(Real e_kin) {
  const Real gamma = 1 + e_kin / (m_e * c * c);
  return c * std::sqrt(gamma * gamma - 1);
}

TEST(Spectrum, HistogramBinsAndWeights) {
  const auto geom = make_geom();
  particles::ParticleContainer<2> pc(particles::Species::electron(),
                                     mrpic::BoxArray<2>(geom.domain()));
  const Real mev = 1e6 * q_e;
  pc.add_particle(geom, {1e-7, 1e-7}, {u_of_energy(50 * mev), 0, 0}, 2.0);
  pc.add_particle(geom, {2e-7, 1e-7}, {u_of_energy(51 * mev), 0, 0}, 3.0);
  pc.add_particle(geom, {3e-7, 1e-7}, {u_of_energy(150 * mev), 0, 0}, 1.0);
  pc.add_particle(geom, {4e-7, 1e-7}, {0, 0, 0}, 9.0); // below range

  const auto s = energy_spectrum<2>(pc, 10 * mev, 200 * mev, 19);
  Real total = 0;
  for (Real v : s.counts) { total += v; }
  EXPECT_NEAR(total, 6.0, 1e-9); // the cold particle is excluded
  // 50/51 MeV land in the same bin (bin width 10 MeV).
  const int bin_50 = static_cast<int>((50 * mev - s.e_min) / s.bin_width());
  EXPECT_NEAR(s.counts[bin_50], 5.0, 1e-9);
}

TEST(Spectrum, AnalyzeBeamPeakAndSpread) {
  // Synthetic Gaussian line: peak at 100 (arb. units), sigma 5.
  Spectrum s;
  s.e_min = 0;
  s.e_max = 200;
  s.counts.assign(200, 0.0);
  for (int b = 0; b < 200; ++b) {
    const Real e = s.bin_center(b);
    s.counts[b] = std::exp(-(e - 100) * (e - 100) / (2 * 25.0));
  }
  const auto q = analyze_beam(s, 1.0);
  EXPECT_NEAR(q.peak_energy, 100.0, 1.0);
  // FWHM of a Gaussian = 2.355 sigma = 11.8 -> spread ~ 11.8%.
  EXPECT_NEAR(q.energy_spread, 0.118, 0.02);
}

TEST(Spectrum, AnalyzeBeamOnEmptySpectrumHasNoPeak) {
  // No particle in the window: no peak (not the first bin's centre), no
  // spread, no charge.
  Spectrum s;
  s.e_min = 2;
  s.e_max = 20;
  s.counts.assign(9, 0.0);
  const auto q = analyze_beam(s, 1.0);
  EXPECT_TRUE(std::isnan(q.peak_energy));
  EXPECT_TRUE(std::isnan(q.energy_spread));
  EXPECT_EQ(q.charge, 0.0);
  s.counts.clear();
  EXPECT_TRUE(std::isnan(analyze_beam(s, 1.0).peak_energy));
}

TEST(Spectrum, ChargeAboveThreshold) {
  const auto geom = make_geom();
  particles::ParticleContainer<2> pc(particles::Species::electron(),
                                     mrpic::BoxArray<2>(geom.domain()));
  const Real mev = 1e6 * q_e;
  pc.add_particle(geom, {1e-7, 1e-7}, {u_of_energy(5 * mev), 0, 0}, 1.0);
  pc.add_particle(geom, {2e-7, 1e-7}, {u_of_energy(20 * mev), 0, 0}, 4.0);
  EXPECT_NEAR(charge_above<2>(pc, 10 * mev), 4.0 * q_e, 1e-25);
  EXPECT_NEAR(charge_above<2>(pc, 1 * mev), 5.0 * q_e, 1e-25);
}

TEST(CsvWriter, AddRowRejectsWidthMismatch) {
  CsvSeries s({"a", "b", "c"});
  EXPECT_THROW(s.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(s.add_row({1.0, 2.0, 3.0, 4.0}), std::invalid_argument);
  EXPECT_NO_THROW(s.add_row({1.0, 2.0, 3.0}));
  EXPECT_EQ(s.num_rows(), 1u);
}

TEST(CsvWriter, SeriesRoundTrip) {
  CsvSeries s({"step", "energy"});
  s.add_row({0, 1.5});
  s.add_row({1, 2.5});
  const std::string path = "test_series_tmp.csv";
  ASSERT_TRUE(s.write(path));
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "step,energy");
  std::getline(is, line);
  EXPECT_EQ(line, "0,1.5");
  std::getline(is, line);
  EXPECT_EQ(line, "1,2.5");
  is.close();
  std::remove(path.c_str());
}

TEST(CsvWriter, Field2D) {
  mrpic::MultiFab<2> mf(
      mrpic::BoxArray<2>(mrpic::Box2(mrpic::IntVect2(0, 0), mrpic::IntVect2(1, 1))), 1, 0);
  mf.fab(0)(mrpic::IntVect2(1, 0), 0) = 42.0;
  const std::string path = "test_field_tmp.csv";
  ASSERT_TRUE(write_field_2d(path, mf, 0));
  std::ifstream is(path);
  std::string all((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("1,0,42"), std::string::npos);
  is.close();
  std::remove(path.c_str());
}

} // namespace
} // namespace mrpic::diag
