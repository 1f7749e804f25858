#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/obs/json.hpp"

namespace mrpic::obs::json {
namespace {

// --- \uXXXX decoding beyond the writer's own escape subset ------------------

TEST(JsonUnicode, BmpEscapesDecodeToUtf8) {
  // 1-, 2- and 3-byte UTF-8 from BMP codepoints.
  EXPECT_EQ(parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xC3\xA9");      // é
  EXPECT_EQ(parse("\"\\u20ac\"").as_string(), "\xE2\x82\xAC");  // €
  // Hex digits are case-insensitive.
  EXPECT_EQ(parse("\"\\u20AC\"").as_string(), "\xE2\x82\xAC");
}

TEST(JsonUnicode, SurrogatePairsDecodeToAstralUtf8) {
  // U+1F600 (😀) = D83D DE00 -> F0 9F 98 80.
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(), "\xF0\x9F\x98\x80");
  // U+10000, the first astral codepoint (lowest surrogate pair).
  EXPECT_EQ(parse("\"\\ud800\\udc00\"").as_string(), "\xF0\x90\x80\x80");
  // U+10FFFF, the last codepoint (highest surrogate pair).
  EXPECT_EQ(parse("\"\\udbff\\udfff\"").as_string(), "\xF4\x8F\xBF\xBF");
  // Pairs embedded mid-string keep their neighbors.
  EXPECT_EQ(parse("\"a\\ud83d\\ude00b\"").as_string(), "a\xF0\x9F\x98\x80" "b");
}

TEST(JsonUnicode, LoneAndMispairedSurrogatesFail) {
  EXPECT_THROW(parse("\"\\ud800\""), std::runtime_error);       // lone high
  EXPECT_THROW(parse("\"\\udc00\""), std::runtime_error);       // lone low
  EXPECT_THROW(parse("\"\\ud800x\""), std::runtime_error);      // high + text
  EXPECT_THROW(parse("\"\\ud800\\n\""), std::runtime_error);    // high + escape
  EXPECT_THROW(parse("\"\\ud800\\ud800\""), std::runtime_error);  // high + high
  EXPECT_THROW(parse("\"\\ud800\\u0041\""), std::runtime_error);  // high + BMP
  EXPECT_THROW(parse("\"\\ud83d\""), std::runtime_error);       // truncated pair
}

TEST(JsonUnicode, MalformedEscapesFail) {
  EXPECT_THROW(parse("\"\\u12\""), std::runtime_error);    // truncated hex
  EXPECT_THROW(parse("\"\\u12g4\""), std::runtime_error);  // bad hex digit
  EXPECT_THROW(parse("\"\\q\""), std::runtime_error);      // unknown escape
  EXPECT_THROW(parse("\"\\u123"), std::runtime_error);     // EOF inside escape
}

// --- nesting depth limit ----------------------------------------------------

std::string nested_arrays(int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) { s += '['; }
  s += '1';
  for (int i = 0; i < depth; ++i) { s += ']'; }
  return s;
}

TEST(JsonDepth, DeepButLegalNestingParses) {
  const Value v = parse(nested_arrays(150));
  const Value* p = &v;
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(p->is_array());
    ASSERT_EQ(p->as_array().size(), 1u);
    p = &p->as_array()[0];
  }
  EXPECT_DOUBLE_EQ(p->as_number(), 1.0);
}

TEST(JsonDepth, HostileNestingFailsInsteadOfOverflowing) {
  // Well beyond the 200-level bound: must throw, not crash the process.
  EXPECT_THROW(parse(nested_arrays(100000)), std::runtime_error);
  EXPECT_THROW(parse(nested_arrays(201)), std::runtime_error);
  // Objects count toward the same bound as arrays.
  std::string objs;
  for (int i = 0; i < 300; ++i) { objs += "{\"k\":"; }
  objs += "0";
  for (int i = 0; i < 300; ++i) { objs += '}'; }
  EXPECT_THROW(parse(objs), std::runtime_error);
  // Sibling containers do NOT accumulate: depth is per-branch.
  std::string siblings = "[";
  for (int i = 0; i < 500; ++i) { siblings += "[1],"; }
  siblings += "[1]]";
  EXPECT_NO_THROW(parse(siblings));
}

// --- number round-trip through the writer's formatting ----------------------

TEST(JsonNumber, WriterOutputRoundTrips) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.1,
                          1.0 / 3.0,
                          6.02214076e23,
                          1.602176634e-19,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          9.007199254740991e15,  // 2^53 - 1
                          0.0072973525693};
  for (const double v : cases) {
    const std::string text = number(v);
    const Value back = parse(text);
    ASSERT_TRUE(back.is_number()) << text;
    EXPECT_EQ(back.as_number(), v) << text;
  }
  // Non-finite values serialize as null (JSON has no NaN/Inf) and come back
  // as null, not as a number.
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_TRUE(parse(number(std::nan(""))).is_null());
}

TEST(JsonNumber, IntegersSurviveExactly) {
  const std::int64_t cases[] = {0, 1, -1, 42, -1754600000, 1099511627776};
  for (const std::int64_t v : cases) {
    const Value back = parse(number(v));
    ASSERT_TRUE(back.is_number());
    EXPECT_EQ(static_cast<std::int64_t>(back.as_number()), v);
  }
}

TEST(JsonString, QuoteRoundTripsControlCharacters) {
  const std::string nasty = "a\"b\\c\nd\re\tf\x01g";
  EXPECT_EQ(parse(quote(nasty)).as_string(), nasty);
  // UTF-8 passes through the writer raw and the parser untouched.
  const std::string utf8 = "émittance \xE2\x82\xAC \xF0\x9F\x98\x80";
  EXPECT_EQ(parse(quote(utf8)).as_string(), utf8);
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  try {
    parse("{\"a\": }");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(parse("[1] trailing"), std::runtime_error);
}

// --- atomic file replacement -------------------------------------------------

TEST(JsonWriteAtomic, FailedWriteReturnsFalseAndLeavesNoTmp) {
  // Into a missing directory: the .tmp cannot even be opened.
  const std::string missing = "json_write_atomic_missing_dir/doc.json";
  ASSERT_FALSE(std::filesystem::exists("json_write_atomic_missing_dir"));
  EXPECT_FALSE(write_atomic(missing, "{}\n"));
  EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(missing));

  // Onto a non-empty directory: the .tmp is written and flushed, then the
  // rename fails, and the .tmp must not stay behind.
  const std::string dir = "json_write_atomic_target_dir";
  std::filesystem::create_directories(dir + "/occupied");
  EXPECT_FALSE(write_atomic(dir, "{}\n"));
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/occupied"));
  std::filesystem::remove_all(dir);

  // A successful write replaces the document whole.
  const std::string path = "json_write_atomic_doc.json";
  ASSERT_TRUE(write_atomic(path, "{\"v\":1}\n"));
  ASSERT_TRUE(write_atomic(path, "{\"v\":2}\n"));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), "{\"v\":2}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

} // namespace
} // namespace mrpic::obs::json
