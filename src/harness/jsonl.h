// Strict flat-JSON line decoding, shared by the offline trace checker
// (harness/checker.cpp) and the unit-record codec behind shard reports
// and checkpoints (harness/checkpoint.cpp). One small flat object per
// line whose values are strings, unsigned integers or arrays of unsigned
// integers; anything else — nested containers, floats, negative numbers,
// duplicate keys, loose escapes — is rejected with a structured error,
// never UB. Both consumers decode hostile bytes (fuzzed traces,
// kill-9-torn files), so the scanner is deliberately minimal: no
// recursion, no allocation surprises, overflow-checked integer parsing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace ssbft::jsonl {

struct LineValues {
  std::vector<std::pair<std::string, std::uint64_t>> ints;
  std::vector<std::pair<std::string, std::string>> strs;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> arrs;

  bool has(const std::string& key) const {
    for (const auto& [k, v] : ints) {
      if (k == key) return true;
    }
    for (const auto& [k, v] : strs) {
      if (k == key) return true;
    }
    for (const auto& [k, v] : arrs) {
      if (k == key) return true;
    }
    return false;
  }
};

// Decodes one line into key/value lists. Returns false and sets `err` on
// any deviation from the strict flat schema.
bool parse_line(const std::string& line, LineValues& out, std::string& err);

// Lookup helpers; nullptr when the key is absent (or of another kind).
const std::uint64_t* find_int(const LineValues& v, const char* key);
const std::string* find_str(const LineValues& v, const char* key);

// The keys one kind of line carries, per value kind: every key in `ints`,
// `strs` and `arrs` is required, the `opt_*` keys may appear, and any
// other key is an error.
using KeyList = std::initializer_list<const char*>;
struct Shape {
  KeyList ints;
  KeyList strs;
  KeyList arrs = {};
  KeyList opt_ints = {};
  KeyList opt_strs = {};
};

// False with err = "unknown key '<k>'" or "missing key '<k>'" (integer
// keys checked first, then strings, then arrays) when `v` breaks `shape`.
bool check_shape(const LineValues& v, const Shape& shape, std::string& err);

}  // namespace ssbft::jsonl
