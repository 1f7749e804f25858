#include "src/obs/locality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace mrpic::obs {

namespace {

// Cell key of particle p — must match src/particles/sorting.cpp so the
// metrics predict exactly what sort_tile_by_cell would do.
template <int DIM>
std::int64_t cell_key(const particles::ParticleTile<DIM>& tile, std::size_t p,
                      const Geometry<DIM>& geom, const Box<DIM>& valid) {
  IntVect<DIM> cell;
  for (int d = 0; d < DIM; ++d) {
    int i = geom.cell_index(tile.x[d][p], d);
    i = std::clamp(i, valid.lo(d), valid.hi(d));
    cell[d] = i;
  }
  return valid.index(cell);
}

double reuse_fraction(const std::vector<std::int64_t>& keys) {
  if (keys.size() < 2) { return 0; }
  std::int64_t hits = 0;
  for (std::size_t p = 1; p < keys.size(); ++p) {
    if (std::llabs(keys[p] - keys[p - 1]) < kCellsPerCacheLine) { ++hits; }
  }
  return static_cast<double>(hits) / static_cast<double>(keys.size() - 1);
}

// reuse_fraction of the keys in sorted order, without sorting them when
// they span a narrow range (a tile's cell keys span at most its cell count):
// a count per key, walked in key order, visits exactly the sorted sequence.
// Repeats of a key are stride-0 hits; each step to the next present key is
// one pair of the sorted order. Wide ranges fall back to std::sort.
double sorted_reuse_fraction(const std::vector<std::int64_t>& keys) {
  if (keys.size() < 2) { return 0; }
  const auto [lo_it, hi_it] = std::minmax_element(keys.begin(), keys.end());
  const std::uint64_t span =
      static_cast<std::uint64_t>(*hi_it) - static_cast<std::uint64_t>(*lo_it);
  if (span >= 16 * static_cast<std::uint64_t>(keys.size())) {
    std::vector<std::int64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    return reuse_fraction(sorted);
  }
  const std::int64_t lo = *lo_it;
  std::vector<std::int32_t> count(static_cast<std::size_t>(span) + 1, 0);
  for (const std::int64_t k : keys) { ++count[static_cast<std::size_t>(k - lo)]; }
  std::int64_t hits = 0;
  std::int64_t prev = -1;
  for (std::size_t k = 0; k < count.size(); ++k) {
    if (count[k] == 0) { continue; }
    hits += count[k] - 1;
    const auto key = static_cast<std::int64_t>(k);
    if (prev >= 0 && key - prev < kCellsPerCacheLine) { ++hits; }
    prev = key;
  }
  return static_cast<double>(hits) / static_cast<double>(keys.size() - 1);
}

} // namespace

TileLocality locality_from_keys(const std::vector<std::int64_t>& keys) {
  TileLocality loc;
  loc.particles = static_cast<std::int64_t>(keys.size());
  if (keys.size() < 2) { return loc; }
  const std::size_t npairs = keys.size() - 1;
  loc.pairs = static_cast<std::int64_t>(npairs);

  std::vector<std::int64_t> strides(npairs);
  std::int64_t inversions = 0;
  double stride_sum = 0;
  for (std::size_t p = 1; p < keys.size(); ++p) {
    const std::int64_t d = keys[p] - keys[p - 1];
    if (d < 0) { ++inversions; }
    strides[p - 1] = std::llabs(d);
    stride_sum += static_cast<double>(strides[p - 1]);
  }
  loc.inversion_fraction =
      static_cast<double>(inversions) / static_cast<double>(npairs);
  loc.mean_stride_cells = stride_sum / static_cast<double>(npairs);
  // The p99 is one order statistic: selecting it is O(n), a full sort is not.
  const std::size_t p99_idx =
      static_cast<std::size_t>(std::floor(0.99 * static_cast<double>(npairs - 1)));
  std::nth_element(strides.begin(),
                   strides.begin() + static_cast<std::ptrdiff_t>(p99_idx), strides.end());
  loc.p99_stride_cells = static_cast<double>(strides[p99_idx]);
  loc.line_reuse = reuse_fraction(keys);
  loc.sorted_line_reuse = sorted_reuse_fraction(keys);

  const double miss_now = 1.0 - kLineReuseSaving * loc.line_reuse;
  const double miss_sorted = 1.0 - kLineReuseSaving * loc.sorted_line_reuse;
  loc.predicted_sort_speedup = miss_sorted > 0 ? miss_now / miss_sorted : 1.0;
  return loc;
}

void merge_locality(TileLocality& into, const TileLocality& add) {
  if (add.pairs <= 0) {
    into.particles += add.particles;
    return;
  }
  if (into.pairs <= 0) {
    const std::int64_t particles = into.particles + add.particles;
    into = add;
    into.particles = particles;
    return;
  }
  const double wa = static_cast<double>(into.pairs);
  const double wb = static_cast<double>(add.pairs);
  const double w = wa + wb;
  auto blend = [&](double a, double b) { return (wa * a + wb * b) / w; };
  into.inversion_fraction = blend(into.inversion_fraction, add.inversion_fraction);
  into.mean_stride_cells = blend(into.mean_stride_cells, add.mean_stride_cells);
  into.p99_stride_cells = std::max(into.p99_stride_cells, add.p99_stride_cells);
  into.line_reuse = blend(into.line_reuse, add.line_reuse);
  into.sorted_line_reuse = blend(into.sorted_line_reuse, add.sorted_line_reuse);
  const double miss_now = 1.0 - kLineReuseSaving * into.line_reuse;
  const double miss_sorted = 1.0 - kLineReuseSaving * into.sorted_line_reuse;
  into.predicted_sort_speedup = miss_sorted > 0 ? miss_now / miss_sorted : 1.0;
  into.particles += add.particles;
  into.pairs += add.pairs;
}

template <int DIM>
TileLocality tile_locality(const particles::ParticleTile<DIM>& tile,
                           const Geometry<DIM>& geom, const Box<DIM>& valid,
                           std::size_t max_sample) {
  const std::size_t n = std::min(tile.size(), max_sample);
  std::vector<std::int64_t> keys(n);
  for (std::size_t p = 0; p < n; ++p) { keys[p] = cell_key(tile, p, geom, valid); }
  return locality_from_keys(keys);
}

template TileLocality tile_locality<2>(const particles::ParticleTile<2>&,
                                       const Geometry<2>&, const Box<2>&, std::size_t);
template TileLocality tile_locality<3>(const particles::ParticleTile<3>&,
                                       const Geometry<3>&, const Box<3>&, std::size_t);

} // namespace mrpic::obs
