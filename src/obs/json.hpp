#pragma once

// Minimal JSON support for the observability layer: a writer with correct
// string escaping / number formatting (Chrome traces, metrics JSONL, bench
// --json output) and a small recursive-descent parser used by tests and
// tooling to re-load what we emit — plus foreign telemetry documents: the
// parser decodes the full \uXXXX range (including UTF-16 surrogate pairs,
// rejecting lone surrogates) to UTF-8 and bounds container nesting at 200
// levels (a hostile "[[[[..." fails cleanly instead of overflowing the
// stack). Still not a general-purpose JSON library: numbers parse as
// double, and objects are sorted maps (duplicate keys keep the first).
// The file helpers at the end are the two idioms every artifact uses: an
// atomic whole-document replace, and a durable JSONL series (one writer,
// one tolerant reader).

#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mrpic::obs::json {

// --- writing --------------------------------------------------------------

// Escape and double-quote a string for embedding in a JSON document.
std::string quote(std::string_view s);

// Format a double with enough digits to round-trip; maps non-finite values
// to null (JSON has no NaN/Inf).
std::string number(double v);
inline std::string number(std::int64_t v) { return std::to_string(v); }

// Incremental writer for flat-ish documents (objects/arrays of scalars),
// handling the comma bookkeeping. Nesting is supported via begin/end pairs.
class Writer {
public:
  explicit Writer(std::ostream& os) : m_os(os) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  // Keyed variants (inside an object).
  Writer& begin_object(std::string_view key) { return member(key).open_raw('{'); }
  Writer& begin_array(std::string_view key) { return member(key).open_raw('['); }

  Writer& field(std::string_view key, std::string_view v) {
    member(key).m_os << quote(v);
    return *this;
  }
  Writer& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  Writer& field(std::string_view key, double v) {
    member(key).m_os << number(v);
    return *this;
  }
  Writer& field(std::string_view key, std::int64_t v) {
    member(key).m_os << number(v);
    return *this;
  }
  Writer& field(std::string_view key, int v) { return field(key, std::int64_t(v)); }
  Writer& field(std::string_view key, bool v) {
    member(key).m_os << (v ? "true" : "false");
    return *this;
  }

  // Array elements.
  Writer& value(double v) {
    comma().m_os << number(v);
    return *this;
  }
  Writer& value(std::int64_t v) {
    comma().m_os << number(v);
    return *this;
  }
  Writer& value(std::string_view v) {
    comma().m_os << quote(v);
    return *this;
  }

private:
  Writer& comma() {
    if (m_need_comma) { m_os << ','; }
    m_need_comma = true;
    return *this;
  }
  Writer& member(std::string_view key) {
    comma().m_os << quote(key) << ':';
    return *this;
  }
  Writer& open(char c) {
    comma();
    return open_raw(c);
  }
  Writer& open_raw(char c) {
    m_os << c;
    m_need_comma = false;
    return *this;
  }
  Writer& close(char c) {
    m_os << c;
    m_need_comma = true;
    return *this;
  }

  std::ostream& m_os;
  bool m_need_comma = false;
};

// --- parsing --------------------------------------------------------------

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() = default;
  explicit Value(bool b) : m_type(Type::Bool), m_bool(b) {}
  explicit Value(double d) : m_type(Type::Number), m_num(d) {}
  explicit Value(std::string s) : m_type(Type::String), m_str(std::move(s)) {}
  explicit Value(Array a) : m_type(Type::Array), m_arr(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : m_type(Type::Object), m_obj(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return m_type; }
  bool is_null() const { return m_type == Type::Null; }
  bool is_bool() const { return m_type == Type::Bool; }
  bool is_number() const { return m_type == Type::Number; }
  bool is_string() const { return m_type == Type::String; }
  bool is_array() const { return m_type == Type::Array; }
  bool is_object() const { return m_type == Type::Object; }

  bool as_bool() const { return m_bool; }
  double as_number() const { return m_num; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(m_num); }
  const std::string& as_string() const { return m_str; }
  const Array& as_array() const { return *m_arr; }
  const Object& as_object() const { return *m_obj; }

  // Object member access; returns a shared Null for missing keys.
  const Value& operator[](const std::string& key) const;
  bool has(const std::string& key) const {
    return is_object() && m_obj->count(key) > 0;
  }

private:
  Type m_type = Type::Null;
  bool m_bool = false;
  double m_num = 0;
  std::string m_str;
  std::shared_ptr<Array> m_arr;
  std::shared_ptr<Object> m_obj;
};

// Parse a complete JSON document. Throws std::runtime_error (with byte
// offset) on malformed input or trailing garbage.
Value parse(std::string_view text);

// --- files ------------------------------------------------------------------

// Replace the file at `path` with `text` atomically: write `path`.tmp,
// flush, rename it over `path`, so a concurrent reader sees the old
// document or the new one, never a torn one. Returns false when any step
// fails, and then leaves no .tmp behind.
bool write_atomic(const std::string& path, std::string_view text);

// A durable series: an append-only JSONL file (one JSON document per line)
// whose every line is flushed as it is written, so each complete record
// survives a run that dies; a reader sees at most a torn last line.
class JsonlWriter {
public:
  // Truncate `path` (a fresh series) or, with append, continue it. Closes
  // any file opened before. Returns false when `path` cannot be opened.
  bool open(const std::string& path, bool append = false);
  bool is_open() const { return m_os.is_open(); }
  // Write `line` and a newline, then flush. Returns false when no file is
  // open or the write fails.
  bool append(std::string_view line);

private:
  std::ofstream m_os;
};

// Tolerant reader of a JSONL file: `parse` maps each non-empty line to a
// record. A line whose parse throws (a torn tail, a corrupt or foreign
// line) is skipped and counted into *skipped when given. Throws
// std::runtime_error only when the file cannot be opened.
template <typename Parse>
auto read_jsonl(const std::string& path, Parse&& parse, std::size_t* skipped = nullptr) {
  std::ifstream is(path);
  if (!is) { throw std::runtime_error("cannot open " + path); }
  std::vector<std::decay_t<std::invoke_result_t<Parse&, const std::string&>>> out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) { continue; }
    try {
      out.push_back(parse(line));
    } catch (const std::exception&) {
      ++bad;
    }
  }
  if (skipped != nullptr) { *skipped = bad; }
  return out;
}

} // namespace mrpic::obs::json
