#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/fields/yee.hpp"
#include "src/mr/interpolation.hpp"

namespace mrpic::mr {
namespace {

using mrpic::Box2;
using mrpic::FArrayBox;
using mrpic::IntVect2;

// Fill a fab (one component) with a linear function of the *staggered*
// physical coordinate, in the given index space resolution.
void fill_linear(FArrayBox<2>& fab, const Box2& region, const mrpic::IntVect2& stag,
                 double h /* cell size */, double a, double b) {
  fab.for_each_cell(region, [&](const IntVect2& p) {
    const double x = (p[0] + 0.5 * stag[0]) * h;
    const double y = (p[1] + 0.5 * stag[1]) * h;
    fab(p, 0) = a * x + b * y;
  });
}

TEST(Interpolation, InterpToFineReproducesLinear) {
  // Coarse cell size 1, ratio 2 -> fine cell size 0.5.
  const Box2 coarse_region(IntVect2(0, 0), IntVect2(15, 15));
  const Box2 fine_region = coarse_region.refined(2);
  for (int comp = 0; comp < 3; ++comp) {
    for (auto stag_fn : {&mrpic::fields::e_stag<2>, &mrpic::fields::b_stag<2>}) {
      const auto stag = stag_fn(comp);
      FArrayBox<2> coarse(coarse_region.grown(3), 1);
      FArrayBox<2> fine(fine_region.grown(3), 1);
      fill_linear(coarse, coarse_region.grown(3), stag, 1.0, 2.0, -3.0);
      interp_to_fine<2>(coarse, fine, fine_region, 0, 0, stag, 2, false);
      fine.for_each_cell(fine_region, [&](const IntVect2& p) {
        const double x = (p[0] + 0.5 * stag[0]) * 0.5;
        const double y = (p[1] + 0.5 * stag[1]) * 0.5;
        EXPECT_NEAR(fine(p, 0), 2.0 * x - 3.0 * y, 1e-12)
            << "comp " << comp << " at " << p;
      });
    }
  }
}

TEST(Interpolation, RestrictionReproducesLinear) {
  const Box2 coarse_region(IntVect2(0, 0), IntVect2(15, 15));
  const Box2 fine_region = coarse_region.refined(2);
  for (int comp = 0; comp < 3; ++comp) {
    const auto stag = mrpic::fields::j_stag<2>(comp);
    FArrayBox<2> fine(fine_region.grown(3), 1);
    FArrayBox<2> coarse(coarse_region.grown(3), 1);
    fill_linear(fine, fine_region.grown(3), stag, 0.5, 1.5, 0.5);
    restrict_to_coarse<2>(fine, coarse, coarse_region, 0, 0, stag, 2, false);
    coarse.for_each_cell(coarse_region, [&](const IntVect2& p) {
      const double x = (p[0] + 0.5 * stag[0]) * 1.0;
      const double y = (p[1] + 0.5 * stag[1]) * 1.0;
      EXPECT_NEAR(coarse(p, 0), 1.5 * x + 0.5 * y, 1e-12) << "comp " << comp;
    });
  }
}

TEST(Interpolation, RestrictThenInterpIsIdentityOnConstants) {
  const Box2 coarse_region(IntVect2(0, 0), IntVect2(7, 7));
  const Box2 fine_region = coarse_region.refined(2);
  const mrpic::IntVect2 stag(1, 0);
  FArrayBox<2> fine(fine_region.grown(3), 1);
  FArrayBox<2> coarse(coarse_region.grown(3), 1);
  FArrayBox<2> fine2(fine_region.grown(3), 1);
  fine.set_val(4.25);
  restrict_to_coarse<2>(fine, coarse, coarse_region.grown(1), 0, 0, stag, 2, false);
  interp_to_fine<2>(coarse, fine2, fine_region, 0, 0, stag, 2, false);
  fine2.for_each_cell(fine_region, [&](const IntVect2& p) {
    EXPECT_NEAR(fine2(p, 0), 4.25, 1e-13);
  });
}

TEST(Interpolation, AddModeAccumulates) {
  const Box2 coarse_region(IntVect2(0, 0), IntVect2(7, 7));
  const Box2 fine_region = coarse_region.refined(2);
  const mrpic::IntVect2 stag(0, 0);
  FArrayBox<2> coarse(coarse_region.grown(2), 1);
  FArrayBox<2> fine(fine_region.grown(2), 1);
  coarse.set_val(2.0);
  fine.set_val(1.0);
  interp_to_fine<2>(coarse, fine, fine_region, 0, 0, stag, 2, /*add=*/true);
  fine.for_each_cell(fine_region, [&](const IntVect2& p) {
    EXPECT_DOUBLE_EQ(fine(p, 0), 3.0);
  });
}

TEST(Interpolation, Restrict3DStaggered) {
  const mrpic::Box3 coarse_region(mrpic::IntVect3(0, 0, 0), mrpic::IntVect3(5, 5, 5));
  const auto fine_region = coarse_region.refined(2);
  const mrpic::IntVect3 stag(0, 1, 1); // Bx-like
  mrpic::FArrayBox<3> fine(fine_region.grown(2), 1);
  mrpic::FArrayBox<3> coarse(coarse_region.grown(2), 1);
  fine.for_each_cell(fine_region.grown(2), [&](const mrpic::IntVect3& p) {
    fine(p, 0) = (p[0] + 0.5 * stag[0]) * 0.5 + 2.0 * ((p[1] + 0.5 * stag[1]) * 0.5) -
                 ((p[2] + 0.5 * stag[2]) * 0.5);
  });
  restrict_to_coarse<3>(fine, coarse, coarse_region, 0, 0, stag, 2, false);
  coarse.for_each_cell(coarse_region, [&](const mrpic::IntVect3& p) {
    const double expect =
        (p[0] + 0.5 * stag[0]) + 2.0 * (p[1] + 0.5 * stag[1]) - (p[2] + 0.5 * stag[2]);
    EXPECT_NEAR(coarse(p, 0), expect, 1e-12);
  });
}

// The per-cell sampler the tabulated samples replaced: every cell derives
// its own per-axis samples. Kept here as the reference interp_to_fine and
// restrict_to_coarse must match bit for bit.
struct RefSample {
  int i0;
  Real w[3];
};

RefSample ref_restrict_sample(int I, int stag, int ratio) {
  if (ratio == 2 && stag == 0) {
    return {2 * I - 1, {Real(0.25), Real(0.5), Real(0.25)}};
  }
  const int t2 = 2 * ratio * I + stag * (ratio - 1);
  if (t2 % 2 == 0) { return {t2 / 2, {Real(1), Real(0), Real(0)}}; }
  return {(t2 - 1) / 2, {Real(0.5), Real(0.5), Real(0)}};
}

RefSample ref_interp_sample(int i, int stag, int ratio) {
  const Real xi = (2 * i + stag - ratio * stag) / Real(2 * ratio);
  const Real fl = std::floor(xi);
  const int I0 = static_cast<int>(fl);
  const Real w = xi - fl;
  return {I0, {1 - w, w, Real(0)}};
}

template <int DIM, typename SampleFn>
void ref_apply(const FArrayBox<DIM>& src, FArrayBox<DIM>& dst, const mrpic::Box<DIM>& region,
               int comp_src, int comp_dst, const mrpic::IntVect<DIM>& stag, int ratio,
               bool add, SampleFn&& sample_fn) {
  using IV = mrpic::IntVect<DIM>;
  dst.for_each_cell(region, [&](const IV& p) {
    RefSample s[DIM];
    for (int d = 0; d < DIM; ++d) { s[d] = sample_fn(p[d], stag[d], ratio); }
    Real acc = 0;
    if constexpr (DIM == 2) {
      for (int b = 0; b < 3; ++b) {
        const Real wb = s[1].w[b];
        if (wb == 0) { continue; }
        for (int a = 0; a < 3; ++a) {
          const Real wa = s[0].w[a];
          if (wa == 0) { continue; }
          acc += wa * wb * src(IV(s[0].i0 + a, s[1].i0 + b), comp_src);
        }
      }
    } else {
      for (int cc = 0; cc < 3; ++cc) {
        const Real wc = s[2].w[cc];
        if (wc == 0) { continue; }
        for (int b = 0; b < 3; ++b) {
          const Real wb = s[1].w[b];
          if (wb == 0) { continue; }
          for (int a = 0; a < 3; ++a) {
            const Real wa = s[0].w[a];
            if (wa == 0) { continue; }
            acc += wa * wb * wc * src(IV(s[0].i0 + a, s[1].i0 + b, s[2].i0 + cc), comp_src);
          }
        }
      }
    }
    if (add) {
      dst(p, comp_dst) += acc;
    } else {
      dst(p, comp_dst) = acc;
    }
  });
}

template <int DIM>
void fill_random(FArrayBox<DIM>& fab, std::mt19937_64& rng) {
  std::uniform_real_distribution<Real> u(-1, 1);
  for (std::size_t n = 0; n < fab.size(); ++n) { fab.data()[n] = u(rng); }
}

template <int DIM>
bool same_bits(const FArrayBox<DIM>& a, const FArrayBox<DIM>& b) {
  if (a.size() != b.size()) { return false; }
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (!(a.data()[n] == b.data()[n])) { return false; }
  }
  return true;
}

// Every staggering, ratios 2 and 3, assign and add: interp_to_fine and
// restrict_to_coarse against the per-cell reference on random two-component
// data, over regions off the index origin.
template <int DIM>
void expect_tabulated_matches_reference(const mrpic::Box<DIM>& coarse_region) {
  using IV = mrpic::IntVect<DIM>;
  std::mt19937_64 rng(2022 + DIM);
  for (const int ratio : {2, 3}) {
    const auto fine_region = coarse_region.refined(ratio);
    for (int code = 0; code < (1 << DIM); ++code) {
      IV stag;
      for (int d = 0; d < DIM; ++d) { stag[d] = (code >> d) & 1; }
      for (const bool add : {false, true}) {
        // Coarse -> fine over the fine region grown like the aux fields.
        FArrayBox<DIM> coarse(coarse_region.grown(3), 2);
        FArrayBox<DIM> fine(fine_region.grown(3), 2);
        fill_random(coarse, rng);
        fill_random(fine, rng);
        FArrayBox<DIM> fine_ref = fine;
        interp_to_fine<DIM>(coarse, fine, fine_region.grown(2), 1, 0, stag, ratio, add);
        ref_apply<DIM>(coarse, fine_ref, fine_region.grown(2), 1, 0, stag, ratio, add,
                       ref_interp_sample);
        EXPECT_TRUE(same_bits(fine, fine_ref))
            << "interp_to_fine ratio " << ratio << " stag " << stag << " add " << add;

        // Fine -> coarse over the coarse region grown by one cell.
        FArrayBox<DIM> fsrc(fine_region.grown(ratio + 2), 2);
        FArrayBox<DIM> cdst(coarse_region.grown(2), 2);
        fill_random(fsrc, rng);
        fill_random(cdst, rng);
        FArrayBox<DIM> cdst_ref = cdst;
        restrict_to_coarse<DIM>(fsrc, cdst, coarse_region.grown(1), 0, 1, stag, ratio, add);
        ref_apply<DIM>(fsrc, cdst_ref, coarse_region.grown(1), 0, 1, stag, ratio, add,
                       ref_restrict_sample);
        EXPECT_TRUE(same_bits(cdst, cdst_ref))
            << "restrict_to_coarse ratio " << ratio << " stag " << stag << " add " << add;
      }
    }
  }
}

TEST(Interpolation, TabulatedSamplesMatchPerCellSampler) {
  expect_tabulated_matches_reference<2>(Box2(IntVect2(-3, 2), IntVect2(9, 11)));
  expect_tabulated_matches_reference<3>(
      mrpic::Box3(mrpic::IntVect3(-2, 1, -4), mrpic::IntVect3(3, 5, 0)));
}

} // namespace
} // namespace mrpic::mr
