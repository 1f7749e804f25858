// Sec. V.A.1 reproduction: the paper's single-node kernel experiment, timed
// on the production particle kernels. The paper reports, on one A64FX node
// (order-3 shapes, single precision):
//
//     Routine      Reference (s)   Optimized (s)   Speed up
//     Gather           270.6          102.7          2.63x
//     Deposition       246.2           53.51         4.60x
//
// Its optimization works on cell-sorted particles ("grid tiling and particle
// sorting are used to improve data locality"). Here the step's own
// particles::gather_fields and particles::deposit_current (order 3,
// Esirkepov, double precision) run on the same particles twice: in arrival
// order, with uniform random positions (the "reference" column), and after
// particles::sort_tile_by_cell (the "optimized" column). The speedup is the
// measured locality payoff of the sort; the sort's own cost per particle is
// printed beside it. The paper's grouped, transposed SIMD kernels are not
// reproduced, and the paper ran in single precision where this runs in
// double.
//
// Two tiles: the paper's 3D tile (64^3 cells, 12 ppc) and one lwfa_mr box
// (2D, 150x50 cells, 2 ppc). Each kernel's time is the minimum over a few
// timing passes, each pass long enough to read on a wall clock.
//
// Self-check: every particle's x_old is x - v*dt from its own x and u, so
// both orders deposit the same currents. Per gathered component, the two
// orders' values, each sorted, must match element by element, and the two
// J fields must agree to <= 1e-12 of max|J|; otherwise the bench exits 1.
//
// Run: ./bench_kernels [--json] [--quick] [--outdir DIR]
//   --json   also write BENCH_kernels.json (into --outdir, default out/)
//   --quick  shrink the 3D tile to 16^3 x 2 ppc (bench_smoke)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/amr/multifab.hpp"
#include "src/diag/output_dir.hpp"
#include "src/diag/stopwatch.hpp"
#include "src/obs/json.hpp"
#include "src/particles/deposition.hpp"
#include "src/particles/gather.hpp"
#include "src/particles/sorting.hpp"

using namespace mrpic;

namespace {

constexpr int kOrder = 3;
constexpr Real kCell = 1e-7;          // cell size [m]; the timings are scale-free
constexpr double kJTolerance = 1e-12; // of max|J|
// Each timing pass covers at least this many particles: one call on the 3D
// tile, ~15 ms of back-to-back calls on the small ones.
constexpr std::int64_t kParticlesPerPass = 200000;
// Timing passes: a one-call pass of the large tile takes seconds, while the
// small tiles' short passes need more tries to ride out host noise.
constexpr int kPassesLarge = 3;
constexpr int kPassesSmall = 7;

struct TileResult {
  std::string tile;
  int dim = 0;
  std::string cells;
  int ppc = 0;
  std::int64_t particles = 0;
  double gather_arrival_s = 0, gather_sorted_s = 0;   // per call
  double deposit_arrival_s = 0, deposit_sorted_s = 0; // per call
  double sort_s = 0;                                  // one sort of the tile
  double j_rel_diff = 0;  // max|J_sorted - J_arrival| / max|J_arrival|
  bool gather_match = false;
  bool ok() const { return gather_match && j_rel_diff <= kJTolerance; }
};

// Minimum over `passes` of the seconds per call of `reps` back-to-back calls.
template <typename F>
double min_seconds_per_call(int passes, std::int64_t reps, F&& call) {
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < passes; ++pass) {
    diag::Stopwatch sw;
    for (std::int64_t r = 0; r < reps; ++r) { call(); }
    best = std::min(best, sw.seconds() / static_cast<double>(reps));
  }
  return best;
}

// x_old = x - v*dt for every particle, from its own x and u.
template <int DIM>
void old_positions(const particles::ParticleTile<DIM>& tile, Real dt,
                   std::array<std::vector<Real>, DIM>& x_old) {
  for (int d = 0; d < DIM; ++d) { x_old[d].resize(tile.size()); }
  for (std::size_t p = 0; p < tile.size(); ++p) {
    const Real ux = tile.u[0][p], uy = tile.u[1][p], uz = tile.u[2][p];
    const Real gamma =
        std::sqrt(1 + (ux * ux + uy * uy + uz * uz) / (constants::c * constants::c));
    for (int d = 0; d < DIM; ++d) { x_old[d][p] = tile.x[d][p] - tile.u[d][p] / gamma * dt; }
  }
}

// Each gathered component's values in ascending order (the order-free
// fingerprint both particle orders must share).
std::array<std::vector<Real>, 6> sorted_values(const particles::GatheredFields& g) {
  std::array<std::vector<Real>, 6> out;
  for (int c = 0; c < 3; ++c) {
    out[c] = g.E[c];
    out[3 + c] = g.B[c];
  }
  for (auto& v : out) { std::sort(v.begin(), v.end()); }
  return out;
}

template <int DIM>
TileResult run_tile(const std::string& name, const IntVect<DIM>& n, int ppc) {
  const Box<DIM> domain = Box<DIM>::from_extent(n);
  RealVect<DIM> hi;
  for (int d = 0; d < DIM; ++d) { hi[d] = n[d] * kCell; }
  const Geometry<DIM> geom(domain, RealVect<DIM>(Real(0)), hi);
  const BoxArray<DIM> ba(domain);
  MultiFab<DIM> E(ba, 3, default_num_ghost), B(ba, 3, default_num_ghost),
      J(ba, 3, default_num_ghost);

  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::normal_distribution<double> thermal(0.0, 0.1 * constants::c);
  for (MultiFab<DIM>* f : {&E, &B}) {
    const double amp = f == &E ? 1e9 : 1.0;
    Real* data = f->fab(0).data();
    for (std::size_t i = 0; i < f->fab(0).size(); ++i) { data[i] = amp * (2 * uni(rng) - 1); }
  }

  // Arrival order: uniform random positions, thermal momenta.
  particles::ParticleTile<DIM> tile;
  const std::int64_t np = domain.num_cells() * ppc;
  tile.reserve(static_cast<std::size_t>(np));
  for (std::int64_t p = 0; p < np; ++p) {
    std::array<Real, DIM> x;
    for (int d = 0; d < DIM; ++d) { x[d] = uni(rng) * hi[d]; }
    tile.push_back(x, {thermal(rng), thermal(rng), thermal(rng)}, Real(1e10));
  }
  const Real dt = Real(0.5) * kCell / constants::c;
  const Real q = -constants::q_e;
  const std::int64_t reps = std::max<std::int64_t>(1, kParticlesPerPass / np);
  const int passes = reps > 1 ? kPassesSmall : kPassesLarge;

  std::array<std::vector<Real>, DIM> x_old;
  particles::GatheredFields gathered;
  const auto gather = [&] {
    particles::gather_fields<DIM>(kOrder, tile, geom, E.const_array(0), B.const_array(0),
                                  gathered);
  };
  const auto deposit = [&] {
    particles::deposit_current<DIM>(particles::DepositionKind::Esirkepov, kOrder, tile,
                                    x_old, geom, J.array(0), q, dt);
  };
  // One checked launch of each kernel on zeroed J, then the timed passes.
  const auto run_order = [&](double& gather_s, double& deposit_s) {
    old_positions<DIM>(tile, dt, x_old);
    gather();
    J.set_val(0);
    deposit();
    std::vector<Real> j(J.fab(0).data(), J.fab(0).data() + J.fab(0).size());
    gather_s = min_seconds_per_call(passes, reps, gather);
    deposit_s = min_seconds_per_call(passes, reps, deposit);
    return j;
  };

  TileResult r;
  r.tile = name;
  r.dim = DIM;
  r.cells = std::to_string(n[0]);
  for (int d = 1; d < DIM; ++d) { r.cells += "x" + std::to_string(n[d]); }
  r.ppc = ppc;
  r.particles = np;

  const auto j_arrival = run_order(r.gather_arrival_s, r.deposit_arrival_s);
  const auto g_arrival = sorted_values(gathered);

  // The sort's cost: the fastest sort of `passes` arrival-order copies.
  r.sort_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < passes; ++pass) {
    auto sorted = tile;
    diag::Stopwatch sw;
    particles::sort_tile_by_cell(sorted, geom, domain);
    r.sort_s = std::min(r.sort_s, sw.seconds());
    if (pass + 1 == passes) { tile = std::move(sorted); }
  }

  const auto j_sorted = run_order(r.gather_sorted_s, r.deposit_sorted_s);
  r.gather_match = sorted_values(gathered) == g_arrival;
  double jmax = 0, jdiff = 0;
  for (std::size_t i = 0; i < j_arrival.size(); ++i) {
    jmax = std::max(jmax, std::abs(double(j_arrival[i])));
    jdiff = std::max(jdiff, std::abs(double(j_sorted[i] - j_arrival[i])));
  }
  r.j_rel_diff = jmax > 0 ? jdiff / jmax : (jdiff > 0 ? 1.0 : 0.0);
  return r;
}

void print_tile(const TileResult& r) {
  std::printf("\n%s: %dD, %s cells x %d ppc, %lld particles; sort %.1f ns/particle\n",
              r.tile.c_str(), r.dim, r.cells.c_str(), r.ppc,
              static_cast<long long>(r.particles), 1e9 * r.sort_s / double(r.particles));
  std::printf("  %-11s %14s %14s %9s %15s\n", "Routine", "Arrival (s)", "Sorted (s)",
              "Speed up", "paper (A64FX)");
  const bool paper = r.dim == 3;
  std::printf("  %-11s %14.6f %14.6f %8.2fx %15s\n", "Gather", r.gather_arrival_s,
              r.gather_sorted_s, r.gather_arrival_s / r.gather_sorted_s,
              paper ? "2.63x" : "-");
  std::printf("  %-11s %14.6f %14.6f %8.2fx %15s\n", "Deposition", r.deposit_arrival_s,
              r.deposit_sorted_s, r.deposit_arrival_s / r.deposit_sorted_s,
              paper ? "4.60x" : "-");
  std::printf("  self-check: gathered values %s, max|dJ|/max|J| = %.2e (limit %.0e) -> %s\n",
              r.gather_match ? "match" : "DIFFER", r.j_rel_diff, kJTolerance,
              r.ok() ? "ok" : "FAIL");
}

void write_json(const std::vector<TileResult>& tiles, const std::string& path) {
  std::ofstream os(path);
  obs::json::Writer w(os);
  w.begin_object();
  w.field("bench", "kernels");
  w.field("precision", "dp");
  w.field("shape_order", kOrder);
  w.field("reference", "arrival order");
  w.field("optimized", "cell-sorted");
  w.begin_array("routines");
  for (const auto& t : tiles) {
    const auto row = [&](const char* routine, double arrival_s, double sorted_s,
                         double paper) {
      w.begin_object()
          .field("routine", routine)
          .field("tile", t.tile)
          .field("reference_s", arrival_s)
          .field("optimized_s", sorted_s)
          .field("speedup", arrival_s / sorted_s);
      if (t.dim == 3) { w.field("paper_a64fx_speedup", paper); }
      w.end_object();
    };
    row("gather", t.gather_arrival_s, t.gather_sorted_s, 2.63);
    row("deposition", t.deposit_arrival_s, t.deposit_sorted_s, 4.60);
  }
  w.end_array();
  w.begin_array("tiles");
  for (const auto& t : tiles) {
    w.begin_object()
        .field("tile", t.tile)
        .field("dim", t.dim)
        .field("cells", t.cells)
        .field("ppc", t.ppc)
        .field("particles", t.particles)
        .field("sort_ns_per_particle", 1e9 * t.sort_s / double(t.particles))
        .field("j_rel_diff", t.j_rel_diff)
        .field("gather_match", t.gather_match)
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int main(int argc, char** argv) {
  const auto outdir = diag::OutputDir::from_args(argc, argv);
  bool json_out = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_out = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--quick] [--outdir DIR]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Sec. V.A.1 on the production kernels: order %d, Esirkepov, double precision;\n"
              "arrival order (uniform random positions) vs after sort_tile_by_cell\n",
              kOrder);
  const int n3 = quick ? 16 : 64;
  const std::vector<TileResult> tiles = {
      run_tile<3>("3d_tile", IntVect<3>(n3), quick ? 2 : 12),
      run_tile<2>("lwfa_mr_box", IntVect<2>(150, 50), 2),
  };
  bool ok = true;
  for (const auto& t : tiles) {
    print_tile(t);
    ok = ok && t.ok();
  }
  if (json_out) { write_json(tiles, outdir.path("BENCH_kernels.json")); }
  if (!ok) { std::fprintf(stderr, "bench_kernels: FAIL: the two orders disagree\n"); }
  return ok ? 0 : 1;
}
