#include "harness/jsonl.h"

namespace ssbft::jsonl {

namespace {

class LineScanner {
 public:
  explicit LineScanner(const std::string& s) : s_(s) {}

  bool parse(LineValues& out, std::string& err) {
    if (!lit('{')) return fail(err, "expected '{'");
    ws();
    if (peek() == '}') {
      ++i_;
      return finish(err);
    }
    while (true) {
      std::string key;
      if (!parse_string(key, err)) return false;
      if (out.has(key)) return fail(err, "duplicate key '" + key + "'");
      if (!lit(':')) return fail(err, "expected ':' after key '" + key + "'");
      ws();
      const char c = peek();
      if (c == '"') {
        std::string v;
        if (!parse_string(v, err)) return false;
        out.strs.emplace_back(std::move(key), std::move(v));
      } else if (c == '[') {
        ++i_;
        std::vector<std::uint64_t> v;
        ws();
        if (peek() == ']') {
          ++i_;
        } else {
          while (true) {
            std::uint64_t u = 0;
            if (!parse_uint(u, err)) return false;
            v.push_back(u);
            if (lit(',')) continue;
            if (lit(']')) break;
            return fail(err, "expected ',' or ']' in array");
          }
        }
        out.arrs.emplace_back(std::move(key), std::move(v));
      } else if (c >= '0' && c <= '9') {
        std::uint64_t u = 0;
        if (!parse_uint(u, err)) return false;
        out.ints.emplace_back(std::move(key), u);
      } else {
        return fail(err, "unsupported value (only strings, unsigned "
                         "integers and integer arrays are legal)");
      }
      if (lit(',')) continue;
      if (lit('}')) break;
      return fail(err, "expected ',' or '}'");
    }
    return finish(err);
  }

 private:
  bool finish(std::string& err) {
    ws();
    if (i_ != s_.size()) return fail(err, "trailing characters after '}'");
    return true;
  }

  static bool fail(std::string& err, std::string msg) {
    err = std::move(msg);
    return false;
  }

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
  }
  bool lit(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out, std::string& err) {
    if (!lit('"')) return fail(err, "expected '\"'");
    out.clear();
    while (true) {
      if (i_ >= s_.size()) return fail(err, "unterminated string");
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(err, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return fail(err, "unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return fail(err, "truncated \\u escape");
          std::uint32_t code = 0;
          for (int j = 0; j < 4; ++j) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<std::uint32_t>(h - 'A' + 10);
            else return fail(err, "bad hex digit in \\u escape");
          }
          // The writers only escape control bytes; anything wider is noise.
          if (code > 0xFF) return fail(err, "\\u escape out of byte range");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return fail(err, "unsupported escape");
      }
    }
  }

  bool parse_uint(std::uint64_t& out, std::string& err) {
    ws();
    if (peek() == '-') return fail(err, "negative numbers are not legal");
    if (!(peek() >= '0' && peek() <= '9')) return fail(err, "expected digit");
    out = 0;
    while (peek() >= '0' && peek() <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s_[i_++] - '0');
      if (out > (UINT64_MAX - d) / 10) return fail(err, "integer overflow");
      out = out * 10 + d;
    }
    const char c = peek();
    if (c == '.' || c == 'e' || c == 'E') {
      return fail(err, "non-integer numbers are not legal");
    }
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool parse_line(const std::string& line, LineValues& out, std::string& err) {
  return LineScanner(line).parse(out, err);
}

const std::uint64_t* find_int(const LineValues& v, const char* key) {
  for (const auto& [k, val] : v.ints) {
    if (k == key) return &val;
  }
  return nullptr;
}

const std::string* find_str(const LineValues& v, const char* key) {
  for (const auto& [k, val] : v.strs) {
    if (k == key) return &val;
  }
  return nullptr;
}

namespace {

bool listed(const std::string& key, KeyList keys) {
  for (const char* k : keys) {
    if (key == k) return true;
  }
  return false;
}

// One value kind of check_shape: no key outside required + optional, and
// every required key present.
template <class Pairs>
bool check_kind(const Pairs& have, KeyList required, KeyList optional,
                std::string& err) {
  for (const auto& kv : have) {
    if (!listed(kv.first, required) && !listed(kv.first, optional)) {
      err = "unknown key '" + kv.first + "'";
      return false;
    }
  }
  for (const char* want : required) {
    bool present = false;
    for (const auto& kv : have) present = present || kv.first == want;
    if (!present) {
      err = std::string("missing key '") + want + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool check_shape(const LineValues& v, const Shape& shape, std::string& err) {
  return check_kind(v.ints, shape.ints, shape.opt_ints, err) &&
         check_kind(v.strs, shape.strs, shape.opt_strs, err) &&
         check_kind(v.arrs, shape.arrs, {}, err);
}

}  // namespace ssbft::jsonl
