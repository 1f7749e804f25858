#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "src/obs/bench_diff.hpp"
#include "src/obs/json.hpp"

namespace mrpic::obs::benchdiff {
namespace {

json::Value J(const std::string& text) { return json::parse(text); }

TEST(BenchDiff, FlattenPathsAndArrays) {
  std::map<std::string, json::Value> flat;
  flatten(J(R"({"bench":"x","a":{"b":1.5},"arr":[{"v":2},3,"s"],"flag":true})"), "", flat);
  ASSERT_EQ(flat.size(), 6u);
  EXPECT_DOUBLE_EQ(flat.at("a.b").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(flat.at("arr[0].v").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("arr[1]").as_number(), 3.0);
  EXPECT_EQ(flat.at("arr[2]").as_string(), "s");
  EXPECT_TRUE(flat.at("flag").as_bool());
  EXPECT_EQ(flat.at("bench").as_string(), "x");
}

TEST(BenchDiff, IdenticalInputsPass) {
  const auto doc = J(R"({"bench":"b","v":[{"t":1.0},{"t":2.0}]})");
  const auto report = compare(doc, doc);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.num_fail, 0);
  EXPECT_EQ(report.num_missing, 0);
  EXPECT_EQ(report.num_pass, 3);
}

TEST(BenchDiff, ToleranceGatesNumericDrift) {
  const auto base = J(R"({"bench":"b","t":100.0})");
  Options opt;
  opt.rel_tol = 0.05;
  // 4% drift passes, 6% fails.
  EXPECT_TRUE(compare(base, J(R"({"bench":"b","t":104.0})"), opt).ok());
  const auto bad = compare(base, J(R"({"bench":"b","t":106.0})"), opt);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.num_fail, 1);
  // abs_tol floors near-zero baselines.
  Options tight;
  tight.rel_tol = 0;
  tight.abs_tol = 1e-9;
  EXPECT_TRUE(compare(J(R"({"v":0.0})"), J(R"({"v":1e-10})"), tight).ok());
  EXPECT_FALSE(compare(J(R"({"v":0.0})"), J(R"({"v":1e-8})"), tight).ok());
}

TEST(BenchDiff, MissingMetricIsFailureExtraIsNot) {
  const auto base = J(R"({"a":1.0,"b":2.0})");
  const auto cur = J(R"({"a":1.0,"c":3.0})");
  const auto report = compare(base, cur);
  EXPECT_FALSE(report.ok()); // "b" vanished -> gate trips
  EXPECT_EQ(report.num_missing, 1);
  EXPECT_EQ(report.num_extra, 1); // "c" is informational only
  const auto rev = compare(J(R"({"a":1.0})"), J(R"({"a":1.0,"c":3.0})"));
  EXPECT_TRUE(rev.ok());
}

TEST(BenchDiff, IgnoreSubstringsSkipMetrics) {
  Options opt;
  opt.ignore = {"comm_s"};
  const auto report = compare(J(R"({"comm_s":1.0,"total_s":5.0})"),
                              J(R"({"comm_s":99.0,"total_s":5.0})"), opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.num_ignored, 1);
}

TEST(BenchDiff, StringMismatchFails) {
  const auto report =
      compare(J(R"({"bench":"weak_scaling"})"), J(R"({"bench":"kernels"})"));
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].note.empty());
}

TEST(BenchDiff, PrintReportSummarizes) {
  const auto report = compare(J(R"({"a":1.0,"b":2.0})"), J(R"({"a":1.0,"b":9.0})"));
  std::ostringstream os;
  print_report(report, os);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  // Passing rows only show up in verbose mode.
  EXPECT_EQ(os.str().find("PASS"), std::string::npos);
  std::ostringstream vs;
  print_report(report, vs, /*verbose=*/true);
  EXPECT_NE(vs.str().find("PASS"), std::string::npos);
}

TEST(BenchDiff, SchemaAcceptsWellFormedDocs) {
  const auto weak = J(R"({
    "bench": "weak_scaling",
    "model": [{"machine": "Summit", "nodes": 2, "efficiency": 0.9}],
    "simulated_cluster": [{"nodes": 8, "compute_s": 1.0, "comm_s": 0.1,
      "total_s": 1.1, "imbalance": 1.0, "bytes": 100, "messages": 5,
      "efficiency": 0.95}]})");
  EXPECT_TRUE(validate_schema(weak).empty());
  const auto kernels = J(R"({
    "bench": "kernels",
    "routines": [{"routine": "gather", "reference_s": 1.0,
      "optimized_s": 0.5, "speedup": 2.0}]})");
  EXPECT_TRUE(validate_schema(kernels).empty());
  const auto observers = J(R"({
    "bench": "observers", "scenario": "lwfa_mr", "steps": 60, "threads": 1,
    "observers": [{"observer": "memory", "seconds": 0.001, "step_s": 1.5,
      "overhead_frac": 0.0007, "gated": 1, "overhead_ok": 1}]})");
  EXPECT_TRUE(validate_schema(observers).empty());
  // Unknown bench kinds only need the name.
  EXPECT_TRUE(validate_schema(J(R"({"bench":"custom"})")).empty());
}

TEST(BenchDiff, SchemaRejectsMalformedDocs) {
  EXPECT_FALSE(validate_schema(J(R"([1,2,3])")).empty());
  EXPECT_FALSE(validate_schema(J(R"({"nobench":1})")).empty());
  // Empty or missing required arrays are errors (a bench that stops
  // emitting records must not shrink the contract silently).
  EXPECT_FALSE(validate_schema(J(R"({"bench":"kernels","routines":[]})")).empty());
  EXPECT_FALSE(validate_schema(J(R"({"bench":"kernels"})")).empty());
  // A record lacking a required numeric field.
  const auto bad = J(R"({
    "bench": "kernels",
    "routines": [{"routine": "gather", "reference_s": "fast"}]})");
  const auto errors = validate_schema(bad);
  EXPECT_GE(errors.size(), 2u); // bad reference_s + missing optimized_s/speedup
  // An observer row without its share.
  EXPECT_FALSE(validate_schema(J(R"({"bench": "observers", "observers": [
    {"observer": "memory", "seconds": 0.001, "step_s": 1.5, "gated": 1,
     "overhead_ok": 1}]})")).empty());
}

} // namespace
} // namespace mrpic::obs::benchdiff
