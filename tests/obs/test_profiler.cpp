#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "src/obs/profiler.hpp"

namespace mrpic::obs {
namespace {

void spin_for(double seconds) {
  const auto end = Profiler::clock::now() +
                   std::chrono::duration_cast<Profiler::clock::duration>(
                       std::chrono::duration<double>(seconds));
  while (Profiler::clock::now() < end) {}
}

TEST(Profiler, NestedInclusiveExclusiveAccounting) {
  Profiler p;
  for (int i = 0; i < 3; ++i) {
    auto outer = p.scope("outer");
    spin_for(2e-3);
    {
      auto inner = p.scope("inner");
      spin_for(1e-3);
    }
    {
      auto inner2 = p.scope("inner2");
      spin_for(1e-3);
    }
  }

  const auto outer = p.stats("outer");
  const auto inner = p.stats("outer/inner");
  const auto inner2 = p.stats("outer/inner2");
  EXPECT_EQ(outer.count, 3);
  EXPECT_EQ(inner.count, 3);
  EXPECT_EQ(inner2.count, 3);

  // Inclusive of the parent covers both children plus its own work.
  EXPECT_GE(outer.inclusive_s, inner.inclusive_s + inner2.inclusive_s);
  // Exclusive = inclusive - children inclusive; outer spins ~2ms per call.
  EXPECT_NEAR(outer.exclusive_s,
              outer.inclusive_s - inner.inclusive_s - inner2.inclusive_s, 1e-12);
  EXPECT_GE(outer.exclusive_s, 3 * 1.5e-3); // ~6ms of own spinning
  // Leaves have no children: exclusive == inclusive.
  EXPECT_DOUBLE_EQ(inner.exclusive_s, inner.inclusive_s);

  // min <= mean <= max and all positive.
  EXPECT_GT(inner.min_s, 0.0);
  EXPECT_LE(inner.min_s, inner.mean_s());
  EXPECT_LE(inner.mean_s(), inner.max_s);
}

TEST(Profiler, SameNameUnderDifferentParentsIsDistinct) {
  Profiler p;
  {
    auto a = p.scope("a");
    auto x = p.scope("sync");
  }
  {
    auto b = p.scope("b");
    auto x = p.scope("sync");
    auto y = p.scope("deeper");
  }
  EXPECT_EQ(p.stats("a/sync").count, 1);
  EXPECT_EQ(p.stats("b/sync").count, 1);
  EXPECT_EQ(p.stats("b/sync/deeper").count, 1);
  EXPECT_EQ(p.stats("sync").count, 0);        // not a root
  EXPECT_EQ(p.stats("a/missing").count, 0);   // unknown path

  // Flat totals merge by leaf name across parents.
  const auto flat = p.flat_totals();
  EXPECT_EQ(flat.at("sync").count, 2);

  // So do the per-node inclusive deltas: from an empty baseline they are
  // the flat totals, and after a baseline only the nodes that advanced.
  std::map<std::string, double> since;
  p.add_inclusive_since({}, since);
  EXPECT_DOUBLE_EQ(since.at("sync"), flat.at("sync").inclusive_s);
  const auto before = p.inclusive_by_node();
  const double b_sync_before = p.stats("b/sync").inclusive_s;
  {
    auto b = p.scope("b");
    auto x = p.scope("sync");
  }
  since.clear();
  p.add_inclusive_since(before, since);
  EXPECT_EQ(since.count("a"), 0u);
  EXPECT_DOUBLE_EQ(since.at("sync"), p.stats("b/sync").inclusive_s - b_sync_before);
}

TEST(Profiler, FlatTotalsAggregateNestedScopes) {
  Profiler p;
  for (int i = 0; i < 2; ++i) {
    auto s = p.scope("step");
    auto q = p.scope("particles");
  }
  const auto flat = p.flat_totals();
  EXPECT_EQ(flat.at("step").count, 2);
  EXPECT_EQ(flat.at("particles").count, 2);
  EXPECT_GE(flat.at("step").inclusive_s, flat.at("particles").inclusive_s);
}

TEST(Profiler, ReportPrintsTreeSortedByInclusive) {
  Profiler p;
  {
    auto s = p.scope("root");
    {
      auto big = p.scope("big");
      spin_for(3e-3);
    }
    {
      auto small = p.scope("small");
      spin_for(5e-4);
    }
  }
  std::ostringstream os;
  p.report(os);
  const std::string out = os.str();
  // Children indented under the root, sorted by measured inclusive time:
  // "big" prints first exactly when its scope took longer (a preemption
  // can stretch the short scope past the long one on a loaded host).
  const auto pos_root = out.find("root");
  const auto pos_big = out.find("big");
  const auto pos_small = out.find("small");
  ASSERT_NE(pos_root, std::string::npos);
  ASSERT_NE(pos_big, std::string::npos);
  ASSERT_NE(pos_small, std::string::npos);
  EXPECT_LT(pos_root, pos_big);
  EXPECT_LT(pos_root, pos_small);
  EXPECT_EQ(pos_big < pos_small,
            p.stats("root/big").inclusive_s > p.stats("root/small").inclusive_s)
      << out;
  EXPECT_NE(out.find("incl(s)"), std::string::npos);
  EXPECT_NE(out.find("count"), std::string::npos);
}

TEST(Profiler, ResetClearsEverything) {
  Profiler p;
  p.set_tracing(true);
  {
    auto s = p.scope("x");
  }
  EXPECT_EQ(p.stats("x").count, 1);
  EXPECT_EQ(p.trace_events().size(), 1u);
  p.reset();
  EXPECT_EQ(p.stats("x").count, 0);
  EXPECT_TRUE(p.trace_events().empty());
  // Usable again after reset.
  {
    auto s = p.scope("x");
  }
  EXPECT_EQ(p.stats("x").count, 1);
}

TEST(Profiler, RecursiveScopesNestIntoDistinctNodes) {
  Profiler p;
  // Direct recursion: each re-entry nests under the previous instance, so
  // the tree records f, f/f, f/f/f as distinct nodes with one instance each.
  std::function<void(int)> recurse = [&](int depth) {
    auto s = p.scope("f");
    spin_for(5e-4);
    if (depth > 1) { recurse(depth - 1); }
  };
  recurse(3);

  const auto d1 = p.stats("f");
  const auto d2 = p.stats("f/f");
  const auto d3 = p.stats("f/f/f");
  EXPECT_EQ(d1.count, 1);
  EXPECT_EQ(d2.count, 1);
  EXPECT_EQ(d3.count, 1);
  // Inclusive telescopes: outer covers inner.
  EXPECT_GE(d1.inclusive_s, d2.inclusive_s);
  EXPECT_GE(d2.inclusive_s, d3.inclusive_s);
  // Exclusive strips the recursive child, so each level keeps only its own
  // ~0.5 ms of spinning and never goes negative; the levels' exclusive
  // times sum back to the root's inclusive.
  for (const auto& s : {d1, d2, d3}) {
    EXPECT_GE(s.exclusive_s, 0.0);
    EXPECT_GE(s.exclusive_s, 2.5e-4);
  }
  EXPECT_NEAR(d1.exclusive_s + d2.exclusive_s + d3.exclusive_s, d1.inclusive_s, 1e-9);
  // The innermost level is a leaf: exclusive == inclusive.
  EXPECT_DOUBLE_EQ(d3.exclusive_s, d3.inclusive_s);
  // Flat totals merge the recursion chain under the shared leaf name.
  EXPECT_EQ(p.flat_totals().at("f").count, 3);
}

TEST(Profiler, ReenteredScopeMergesIntoOneNode) {
  Profiler p;
  {
    auto outer = p.scope("outer");
    for (int i = 0; i < 4; ++i) {
      auto inner = p.scope("work"); // sequential re-entry, same parent
      spin_for(2e-4);
    }
  }
  const auto inner = p.stats("outer/work");
  EXPECT_EQ(inner.count, 4);
  EXPECT_DOUBLE_EQ(inner.exclusive_s, inner.inclusive_s); // leaf
  EXPECT_LE(inner.min_s, inner.max_s);
  // Parent exclusive strips all four instances at once.
  const auto outer = p.stats("outer");
  EXPECT_NEAR(outer.exclusive_s, outer.inclusive_s - inner.inclusive_s, 1e-12);
  EXPECT_GE(outer.exclusive_s, 0.0);
}

TEST(Profiler, ScopeSpanningStepBoundaryIsTaggedWithClosingStep) {
  Profiler p;
  p.set_tracing(true);
  p.set_step(0);
  {
    auto before = p.scope("inside_step0");
  }
  {
    auto spanning = p.scope("spans_boundary"); // opened in step 0...
    spin_for(1e-4);
    p.set_step(1);                             // ...boundary crossed...
  }                                            // ...closed in step 1
  {
    auto after = p.scope("inside_step1");
  }

  std::int64_t step_of_span = -2, step_of_before = -2, step_of_after = -2;
  for (const auto& ev : p.trace_events()) {
    if (ev.name == "spans_boundary") { step_of_span = ev.step; }
    if (ev.name == "inside_step0") { step_of_before = ev.step; }
    if (ev.name == "inside_step1") { step_of_after = ev.step; }
  }
  EXPECT_EQ(step_of_before, 0);
  // Events record at close, so a spanning scope lands in the step that saw
  // it finish — the invariant the per-step trace grouping relies on.
  EXPECT_EQ(step_of_span, 1);
  EXPECT_EQ(step_of_after, 1);
  // Aggregated stats are step-agnostic and unaffected by the boundary.
  EXPECT_EQ(p.stats("spans_boundary").count, 1);
  EXPECT_GE(p.stats("spans_boundary").inclusive_s, 1e-4);
}

TEST(Profiler, ScopeElapsedAndMoveSemantics) {
  Profiler p;
  {
    auto s = p.scope("moved");
    auto s2 = std::move(s);
    spin_for(1e-4);
    EXPECT_GT(s2.elapsed(), 0.0);
  }
  // A moved-from scope must not double-close: exactly one instance recorded.
  EXPECT_EQ(p.stats("moved").count, 1);
}

} // namespace
} // namespace mrpic::obs
