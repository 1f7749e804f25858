#include "src/mr/interpolation.hpp"

#include <array>
#include <cmath>
#include <vector>

namespace mrpic::mr {

namespace {

// A 1D up-to-three-point sample: value = sum_t w[t] * f(i0 + t).
struct Sample1D {
  int i0;
  Real w[3];
};

// Fine sample locations for a coarse staggered index I (restriction).
// Nodal directions (s = 0) at ratio 2 use full weighting (1/4, 1/2, 1/4):
// a pure point sample at even fine indices would silently drop any current
// living on odd fine indices (sub-coarse structure must be folded in, not
// aliased away). Half-staggered directions average the two straddling fine
// samples. Other ratios fall back to the point/average sample at the
// coarse location: fine index i = r I + s(r-1)/2.
inline Sample1D restrict_sample(int I, int stag, int ratio) {
  if (ratio == 2 && stag == 0) {
    return {2 * I - 1, {Real(0.25), Real(0.5), Real(0.25)}};
  }
  const int t2 = 2 * ratio * I + stag * (ratio - 1); // 2 * fine index target
  if (t2 % 2 == 0) { return {t2 / 2, {Real(1), Real(0), Real(0)}}; }
  return {(t2 - 1) / 2, {Real(0.5), Real(0.5), Real(0)}};
}

// Coarse sample for a fine staggered index i (interpolation): coarse
// coordinate xi = (2 i + s - r s) / (2 r) in coarse-index units.
inline Sample1D interp_sample(int i, int stag, int ratio) {
  const Real xi = (2 * i + stag - ratio * stag) / Real(2 * ratio);
  const Real fl = std::floor(xi);
  const int I0 = static_cast<int>(fl);
  const Real w = xi - fl;
  return {I0, {1 - w, w, Real(0)}};
}

// dst(p) (+)= sum_{a,b,c} wa wb wc src(i0a + a, i0b + b, i0c + c) over region,
// skipping zero weights. Each axis' samples depend on one index only, so
// they are tabulated once per call and the cells are walked row by row.
template <int DIM, typename SampleFn>
void apply(const mrpic::FArrayBox<DIM>& src, mrpic::FArrayBox<DIM>& dst,
           const mrpic::Box<DIM>& region, int comp_src, int comp_dst,
           const mrpic::IntVect<DIM>& stag, int ratio, bool add, SampleFn&& sample_fn) {
  if (region.empty()) { return; }
  std::array<std::vector<Sample1D>, DIM> s;
  for (int d = 0; d < DIM; ++d) {
    s[d].reserve(static_cast<std::size_t>(region.length(d)));
    for (int i = region.lo(d); i <= region.hi(d); ++i) {
      s[d].push_back(sample_fn(i, stag[d], ratio));
    }
  }
  const auto in = src.const_array();
  const auto out = dst.array();
  const int nx = region.length(0);
  dst.for_each_row(region, [&](int j, int k) {
    const Sample1D& sb = s[1][static_cast<std::size_t>(j - region.lo(1))];
    Real* row = &out(region.lo(0), j, k, comp_dst);
    for (int i = 0; i < nx; ++i) {
      const Sample1D& sa = s[0][static_cast<std::size_t>(i)];
      Real acc = 0;
      if constexpr (DIM == 2) {
        for (int b = 0; b < 3; ++b) {
          const Real wb = sb.w[b];
          if (wb == 0) { continue; }
          for (int a = 0; a < 3; ++a) {
            const Real wa = sa.w[a];
            if (wa == 0) { continue; }
            acc += wa * wb * in(sa.i0 + a, sb.i0 + b, 0, comp_src);
          }
        }
      } else {
        const Sample1D& sc = s[2][static_cast<std::size_t>(k - region.lo(2))];
        for (int cc = 0; cc < 3; ++cc) {
          const Real wc = sc.w[cc];
          if (wc == 0) { continue; }
          for (int b = 0; b < 3; ++b) {
            const Real wb = sb.w[b];
            if (wb == 0) { continue; }
            for (int a = 0; a < 3; ++a) {
              const Real wa = sa.w[a];
              if (wa == 0) { continue; }
              acc += wa * wb * wc * in(sa.i0 + a, sb.i0 + b, sc.i0 + cc, comp_src);
            }
          }
        }
      }
      if (add) {
        row[i] += acc;
      } else {
        row[i] = acc;
      }
    }
  });
}

} // namespace

template <int DIM>
void restrict_to_coarse(const mrpic::FArrayBox<DIM>& fine, mrpic::FArrayBox<DIM>& coarse,
                        const mrpic::Box<DIM>& region, int comp_src, int comp_dst,
                        const mrpic::IntVect<DIM>& stag, int ratio, bool add) {
  apply<DIM>(fine, coarse, region, comp_src, comp_dst, stag, ratio, add,
             [](int i, int s, int r) { return restrict_sample(i, s, r); });
}

template <int DIM>
void interp_to_fine(const mrpic::FArrayBox<DIM>& coarse, mrpic::FArrayBox<DIM>& fine,
                    const mrpic::Box<DIM>& region, int comp_src, int comp_dst,
                    const mrpic::IntVect<DIM>& stag, int ratio, bool add) {
  apply<DIM>(coarse, fine, region, comp_src, comp_dst, stag, ratio, add,
             [](int i, int s, int r) { return interp_sample(i, s, r); });
}

template void restrict_to_coarse<2>(const mrpic::FArrayBox<2>&, mrpic::FArrayBox<2>&,
                                    const mrpic::Box<2>&, int, int, const mrpic::IntVect<2>&,
                                    int, bool);
template void restrict_to_coarse<3>(const mrpic::FArrayBox<3>&, mrpic::FArrayBox<3>&,
                                    const mrpic::Box<3>&, int, int, const mrpic::IntVect<3>&,
                                    int, bool);
template void interp_to_fine<2>(const mrpic::FArrayBox<2>&, mrpic::FArrayBox<2>&,
                                const mrpic::Box<2>&, int, int, const mrpic::IntVect<2>&, int,
                                bool);
template void interp_to_fine<3>(const mrpic::FArrayBox<3>&, mrpic::FArrayBox<3>&,
                                const mrpic::Box<3>&, int, int, const mrpic::IntVect<3>&, int,
                                bool);

} // namespace mrpic::mr
