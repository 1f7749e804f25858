#include <gtest/gtest.h>

#include "src/amr/multifab.hpp"

namespace mrpic {
namespace {

Geometry<2> geom_periodic(bool px, bool py) {
  return Geometry<2>(Box2(IntVect2(0, 0), IntVect2(31, 31)), RealVect2(0, 0),
                     RealVect2(1, 1), {px, py});
}

// Fill each fab's valid region with a function of the global index so that
// ghost correctness can be checked against the analytic value.
void fill_linear(MultiFab<2>& mf) {
  for (int m = 0; m < mf.num_fabs(); ++m) {
    auto& f = mf.fab(m);
    f.for_each_cell(mf.valid_box(m), [&](const IntVect2& p) {
      for (int n = 0; n < mf.num_comp(); ++n) {
        f(p, n) = 1000.0 * n + p[0] + 100.0 * p[1];
      }
    });
  }
}

TEST(MultiFab, FillBoundaryInterior) {
  const auto g = geom_periodic(false, false);
  const auto ba = BoxArray<2>::decompose(g.domain(), 16);
  MultiFab<2> mf(ba, 2, 2);
  fill_linear(mf);
  mf.fill_boundary(g);

  // Every ghost cell inside the domain must hold the owner's value.
  for (int m = 0; m < mf.num_fabs(); ++m) {
    const auto& f = mf.fab(m);
    const auto vb = mf.valid_box(m);
    f.for_each_cell(mf.grown_box(m), [&](const IntVect2& p) {
      if (vb.contains(p) || !g.domain().contains(p)) { return; }
      for (int n = 0; n < 2; ++n) {
        EXPECT_DOUBLE_EQ(f(p, n), 1000.0 * n + p[0] + 100.0 * p[1])
            << "fab " << m << " ghost " << p << " comp " << n;
      }
    });
  }
}

TEST(MultiFab, FillBoundaryPeriodicWrap) {
  const auto g = geom_periodic(true, true);
  const auto ba = BoxArray<2>::decompose(g.domain(), 16);
  MultiFab<2> mf(ba, 1, 2);
  fill_linear(mf);
  mf.fill_boundary(g);

  // Ghosts beyond the domain must hold the periodic image's value.
  const int L = 32;
  for (int m = 0; m < mf.num_fabs(); ++m) {
    const auto& f = mf.fab(m);
    const auto vb = mf.valid_box(m);
    f.for_each_cell(mf.grown_box(m), [&](const IntVect2& p) {
      if (vb.contains(p)) { return; }
      const int pi = ((p[0] % L) + L) % L;
      const int pj = ((p[1] % L) + L) % L;
      EXPECT_DOUBLE_EQ(f(p, 0), pi + 100.0 * pj) << "ghost " << p;
    });
  }

  // 3D, two components, ghosts wider than one cell: the row-wise copy walks
  // j and k rows, so wraps along y and z are checked cell by cell.
  const Geometry<3> g3(Box3(IntVect3(0, 0, 0), IntVect3(11, 9, 7)), RealVect3(0, 0, 0),
                       RealVect3(1, 1, 1), {true, true, true});
  const auto ba3 = BoxArray<3>::decompose(g3.domain(), 6);
  MultiFab<3> mf3(ba3, 2, 2);
  const auto value3 = [](const IntVect3& p, int n) {
    return 1000000.0 * n + p[0] + 100.0 * p[1] + 10000.0 * p[2];
  };
  for (int m = 0; m < mf3.num_fabs(); ++m) {
    auto& f = mf3.fab(m);
    f.for_each_cell(mf3.valid_box(m), [&](const IntVect3& p) {
      for (int n = 0; n < 2; ++n) { f(p, n) = value3(p, n); }
    });
  }
  mf3.fill_boundary(g3);
  const IntVect3 L3(12, 10, 8);
  for (int m = 0; m < mf3.num_fabs(); ++m) {
    const auto& f = mf3.fab(m);
    f.for_each_cell(mf3.grown_box(m), [&](const IntVect3& p) {
      IntVect3 q;
      for (int d = 0; d < 3; ++d) { q[d] = ((p[d] % L3[d]) + L3[d]) % L3[d]; }
      for (int n = 0; n < 2; ++n) {
        EXPECT_EQ(f(p, n), value3(q, n)) << "fab " << m << " cell " << p << " comp " << n;
      }
    });
  }
}

TEST(MultiFab, SingleBoxPeriodicSelfWrap) {
  // One box spanning the whole domain must wrap onto itself.
  const auto g = geom_periodic(true, false);
  MultiFab<2> mf(BoxArray<2>(g.domain()), 1, 1);
  fill_linear(mf);
  mf.fill_boundary(g);
  const auto& f = mf.fab(0);
  EXPECT_DOUBLE_EQ(f(IntVect2(-1, 5), 0), 31 + 100.0 * 5);
  EXPECT_DOUBLE_EQ(f(IntVect2(32, 5), 0), 0 + 100.0 * 5);
}

TEST(MultiFab, SumBoundaryConservesTotal) {
  const auto g = geom_periodic(true, true);
  const auto ba = BoxArray<2>::decompose(g.domain(), 16);
  MultiFab<2> mf(ba, 1, 2);

  // Deposit into valid + ghost cells of every fab.
  Real expected = 0;
  for (int m = 0; m < mf.num_fabs(); ++m) {
    auto& f = mf.fab(m);
    f.for_each_cell(mf.grown_box(m), [&](const IntVect2& p) {
      f(p, 0) = 1.0 + 0.01 * m;
      expected += 1.0 + 0.01 * m;
    });
  }
  mf.sum_boundary(g);
  EXPECT_NEAR(mf.sum(0), expected, 1e-9 * std::abs(expected));

  // Ghosts are zeroed afterwards.
  for (int m = 0; m < mf.num_fabs(); ++m) {
    const auto& f = mf.fab(m);
    const auto vb = mf.valid_box(m);
    f.for_each_cell(mf.grown_box(m), [&](const IntVect2& p) {
      if (!vb.contains(p)) { EXPECT_EQ(f(p, 0), 0.0); }
    });
  }
}

TEST(MultiFab, SumBoundaryMatchesManualStencil) {
  // Two boxes side by side, deposit 1.0 into a ghost cell of the left box
  // that lies in the right box's valid region: after sum_boundary the right
  // box owns it.
  const auto g = Geometry<2>(Box2(IntVect2(0, 0), IntVect2(15, 7)), RealVect2(0, 0),
                             RealVect2(1, 1), {false, false});
  const auto ba = BoxArray<2>::decompose(g.domain(), IntVect2(8, 8));
  ASSERT_EQ(ba.size(), 2);
  MultiFab<2> mf(ba, 1, 2);
  mf.fab(0)(IntVect2(8, 3), 0) = 1.0; // ghost of box 0, valid in box 1
  mf.fab(1)(IntVect2(8, 3), 0) = 0.5;
  mf.sum_boundary(g);
  EXPECT_DOUBLE_EQ(mf.fab(1)(IntVect2(8, 3), 0), 1.5);
  EXPECT_DOUBLE_EQ(mf.fab(0)(IntVect2(8, 3), 0), 0.0);
}

TEST(MultiFab, ParallelCopyAcrossBoxArrays) {
  const auto g = geom_periodic(false, false);
  const auto ba_a = BoxArray<2>::decompose(g.domain(), 16);
  const auto ba_b = BoxArray<2>::decompose(g.domain(), IntVect2(8, 32));
  MultiFab<2> a(ba_a, 1, 2);
  MultiFab<2> b(ba_b, 1, 2);
  fill_linear(a);
  b.parallel_copy(a, 0, 0, 1);
  for (int m = 0; m < b.num_fabs(); ++m) {
    const auto& f = b.fab(m);
    f.for_each_cell(b.valid_box(m), [&](const IntVect2& p) {
      EXPECT_DOUBLE_EQ(f(p, 0), p[0] + 100.0 * p[1]);
    });
  }
}

TEST(MultiFab, ParallelCopyAdd) {
  const auto g = geom_periodic(false, false);
  const auto ba = BoxArray<2>::decompose(g.domain(), 16);
  MultiFab<2> a(ba, 1, 0), b(ba, 1, 0);
  a.set_val(2.0);
  b.set_val(3.0);
  b.parallel_copy(a, 0, 0, 1, 0, 0, /*add=*/true);
  EXPECT_DOUBLE_EQ(b.fab(0)(IntVect2(0, 0), 0), 5.0);
  EXPECT_DOUBLE_EQ(b.sum(0), 5.0 * 32 * 32);
}

TEST(MultiFab, Reductions) {
  const auto g = geom_periodic(false, false);
  MultiFab<2> mf(BoxArray<2>(g.domain()), 1, 1);
  mf.set_val(0.0);
  mf.fab(0)(IntVect2(3, 3), 0) = -7.0;
  mf.fab(0)(IntVect2(4, 4), 0) = 2.0;
  EXPECT_DOUBLE_EQ(mf.max_abs(0), 7.0);
  EXPECT_DOUBLE_EQ(mf.sum(0), -5.0);
  EXPECT_DOUBLE_EQ(mf.sum_sq(0), 49.0 + 4.0);
}

TEST(MultiFab, ShiftDataScrolls) {
  const auto g = geom_periodic(false, false);
  MultiFab<2> mf(BoxArray<2>(g.domain()), 1, 2);
  fill_linear(mf);
  mf.fill_boundary(g);
  mf.shift_data(0, 2, -1.0);
  const auto& f = mf.fab(0);
  // value(i) == old value(i+2) wherever that was in the allocation.
  EXPECT_DOUBLE_EQ(f(IntVect2(0, 5), 0), 2 + 100.0 * 5);
  EXPECT_DOUBLE_EQ(f(IntVect2(29, 5), 0), 31 + 100.0 * 5);
  // freshly exposed cells at the high end get the fill value.
  EXPECT_DOUBLE_EQ(f(IntVect2(33, 5), 0), -1.0);

  // 3D, two components, every direction: value(p) == old value(p + n e_d)
  // wherever that lies in the allocation, the fill value elsewhere.
  const Box3 dom3(IntVect3(-2, 1, 3), IntVect3(6, 7, 8));
  const auto value3 = [](const IntVect3& p, int n) {
    return 1000000.0 * n + p[0] + 100.0 * p[1] + 10000.0 * p[2];
  };
  for (int d = 0; d < 3; ++d) {
    for (const int ncells : {1, 3}) {
      MultiFab<3> mf3(BoxArray<3>(dom3), 2, 2);
      auto& f3 = mf3.fab(0);
      const Box3 gb = mf3.grown_box(0);
      f3.for_each_cell(gb, [&](const IntVect3& p) {
        for (int n = 0; n < 2; ++n) { f3(p, n) = value3(p, n); }
      });
      mf3.shift_data(d, ncells, -1.0);
      f3.for_each_cell(gb, [&](const IntVect3& p) {
        IntVect3 q = p;
        q[d] += ncells;
        for (int n = 0; n < 2; ++n) {
          EXPECT_EQ(f3(p, n), gb.contains(q) ? value3(q, n) : -1.0)
              << "dir " << d << " shift " << ncells << " cell " << p << " comp " << n;
        }
      });
    }
  }
}

TEST(MultiFab, LinComb) {
  const auto g = geom_periodic(false, false);
  const auto ba = BoxArray<2>::decompose(g.domain(), 16);
  MultiFab<2> a(ba, 1, 1), b(ba, 1, 1);
  a.set_val(10.0);
  b.set_val(4.0);
  a.lin_comb(0.5, 2.0, b, 0, 0, 1); // a = 0.5 a + 2 b = 5 + 8
  EXPECT_DOUBLE_EQ(a.fab(0)(IntVect2(0, 0), 0), 13.0);
}

} // namespace
} // namespace mrpic
