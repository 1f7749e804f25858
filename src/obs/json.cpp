#include "src/obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace mrpic::obs::json {

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) { return "null"; }
  // Integers print without a fractional part; everything else with
  // round-trip precision.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const Value& Value::operator[](const std::string& key) const {
  static const Value null_value;
  if (!is_object()) { return null_value; }
  const auto it = m_obj->find(key);
  return it == m_obj->end() ? null_value : it->second;
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : m_text(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (m_pos != m_text.size()) { fail("trailing characters after document"); }
    return v;
  }

private:
  // Container-nesting bound: parse_value recurses per level, so a hostile
  // "[[[[..." document would otherwise overflow the stack. 200 levels is
  // far beyond any telemetry document and costs a few KB of stack.
  static constexpr int kMaxDepth = 200;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(m_pos) + ": " +
                             what);
  }

  void skip_ws() {
    while (m_pos < m_text.size() &&
           (m_text[m_pos] == ' ' || m_text[m_pos] == '\t' || m_text[m_pos] == '\n' ||
            m_text[m_pos] == '\r')) {
      ++m_pos;
    }
  }

  char peek() {
    if (m_pos >= m_text.size()) { fail("unexpected end of input"); }
    return m_text[m_pos];
  }

  void expect(char c) {
    if (peek() != c) { fail(std::string("expected '") + c + "'"); }
    ++m_pos;
  }

  bool consume(char c) {
    if (m_pos < m_text.size() && m_text[m_pos] == c) {
      ++m_pos;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (m_text.substr(m_pos, w.size()) == w) {
      m_pos += w.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') { return parse_object(); }
    if (c == '[') { return parse_array(); }
    if (c == '"') { return Value(parse_string()); }
    if (consume_word("true")) { return Value(true); }
    if (consume_word("false")) { return Value(false); }
    if (consume_word("null")) { return Value(); }
    return parse_number();
  }

  Value parse_object() {
    if (++m_depth > kMaxDepth) { fail("nesting deeper than 200 levels"); }
    expect('{');
    Object obj;
    skip_ws();
    if (consume('}')) { return Value(std::move(obj)); }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) { continue; }
      expect('}');
      --m_depth;
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    if (++m_depth > kMaxDepth) { fail("nesting deeper than 200 levels"); }
    expect('[');
    Array arr;
    skip_ws();
    if (consume(']')) {
      --m_depth;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) { continue; }
      expect(']');
      --m_depth;
      return Value(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (m_pos >= m_text.size()) { fail("unterminated string"); }
      char c = m_text[m_pos++];
      if (c == '"') { return out; }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (m_pos >= m_text.size()) { fail("unterminated escape"); }
      c = m_text[m_pos++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Our own writer only emits control-character escapes, but foreign
          // producers may use the full \uXXXX range including UTF-16
          // surrogate pairs for astral codepoints; decode everything to
          // UTF-8. A lone/mispaired surrogate is a hard error (RFC 8259
          // leaves it undefined; silently passing it through would put
          // invalid UTF-8 in downstream files).
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
            if (m_pos + 2 > m_text.size() || m_text[m_pos] != '\\' ||
                m_text[m_pos + 1] != 'u') {
              fail("high surrogate not followed by \\u low surrogate");
            }
            m_pos += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("high surrogate followed by a non-low-surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (m_pos + 4 > m_text.size()) { fail("truncated \\u escape"); }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = m_text[m_pos++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += h - '0';
      } else if (h >= 'a' && h <= 'f') {
        code += 10 + h - 'a';
      } else if (h >= 'A' && h <= 'F') {
        code += 10 + h - 'A';
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  Value parse_number() {
    const std::size_t start = m_pos;
    if (consume('-')) {}
    while (m_pos < m_text.size() &&
           (std::isdigit(static_cast<unsigned char>(m_text[m_pos])) || m_text[m_pos] == '.' ||
            m_text[m_pos] == 'e' || m_text[m_pos] == 'E' || m_text[m_pos] == '+' ||
            m_text[m_pos] == '-')) {
      ++m_pos;
    }
    if (m_pos == start) { fail("expected a value"); }
    double v = 0;
    const auto res = std::from_chars(m_text.data() + start, m_text.data() + m_pos, v);
    if (res.ec != std::errc() || res.ptr != m_text.data() + m_pos) {
      fail("malformed number");
    }
    return Value(v);
  }

  std::string_view m_text;
  std::size_t m_pos = 0;
  int m_depth = 0;
};

} // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

bool write_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) { return false; } // nothing was created
    os << text;
    os.flush();
    ok = static_cast<bool>(os);
  }
  if (ok) {
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) { std::remove(tmp.c_str()); }
  return ok;
}

bool JsonlWriter::open(const std::string& path, bool append) {
  m_os.close();
  m_os.clear();
  m_os.open(path, append ? std::ios::app : std::ios::trunc);
  return m_os.is_open();
}

bool JsonlWriter::append(std::string_view line) {
  if (!m_os.is_open()) { return false; }
  m_os << line << '\n';
  m_os.flush();
  return m_os.good();
}

} // namespace mrpic::obs::json
