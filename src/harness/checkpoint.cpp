#include "harness/checkpoint.h"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <set>

#include "harness/jsonl.h"
#include "harness/report.h"

namespace ssbft {

namespace {

// Strict digits-only uint64 (no sign, no whitespace, overflow-checked):
// the loose strtoull contract would let " -3" wrap to ~2^64.
bool parse_u64_strict(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool is_hex_lower(const std::string& s, std::size_t len) {
  if (s.size() != len) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::string hex8(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

constexpr char kShardSchema[] = "ssbft-shard-v2";
// First-line magic of the retired line-oriented checkpoint format, matched
// only to refuse such files with their version named.
constexpr char kCkptV1Magic[] = "ssbft-ckpt-v1";

// Every unit line ends `,"crc":"<8hex>"}`; the CRC covers the bytes
// before that suffix.
constexpr char kCrcKey[] = ",\"crc\":\"";
constexpr std::size_t kCrcKeyLen = sizeof kCrcKey - 1;
constexpr std::size_t kCrcSuffixLen = kCrcKeyLen + 8 + 2;  // key, hex, "}

bool crc_seal_ok(const std::string& line) {
  if (line.size() < kCrcSuffixLen) return false;
  const std::size_t body = line.size() - kCrcSuffixLen;
  return line.compare(body, kCrcKeyLen, kCrcKey) == 0 &&
         line.compare(body + kCrcKeyLen, 8, hex8(crc32(line.data(), body))) ==
             0 &&
         line.compare(line.size() - 2, 2, "\"}") == 0;
}

}  // namespace

std::optional<ShardSpec> parse_shard_spec(const std::string& s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) return std::nullopt;
  ShardSpec spec;
  if (!parse_u64_strict(s.substr(0, slash), &spec.index)) return std::nullopt;
  if (!parse_u64_strict(s.substr(slash + 1), &spec.count)) return std::nullopt;
  if (spec.count == 0 || spec.index >= spec.count) return std::nullopt;
  return spec;
}

std::string double_to_hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool hex_to_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  // strtod skips leading whitespace and accepts '+'; the writer emits
  // neither, so reject both outright.
  const char first = s[0];
  if (!(first == '-' || (first >= '0' && first <= '9'))) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& s) { return crc32(s.data(), s.size()); }

// ---------------------------------------------------------------------------
// Unit-record codec.

std::string encode_shard_header(const ShardHeader& h) {
  std::string out = "{\"type\":\"shard\",\"schema\":\"";
  out += kShardSchema;
  out += "\",\"pattern\":\"" + json_escape(h.pattern) + "\"";
  out += ",\"shard\":" + std::to_string(h.shard.index);
  out += ",\"shards\":" + std::to_string(h.shard.count);
  out += ",\"fingerprint\":\"" + h.fingerprint + "\"";
  out += ",\"total_units\":" + std::to_string(h.total_units);
  out += ",\"cells\":" + std::to_string(h.cells.size());
  out += ",\"seed\":" + std::to_string(h.cli_seed);
  out += ",\"trials\":" + std::to_string(h.cli_trials);
  out += "}\n";
  for (std::size_t i = 0; i < h.cells.size(); ++i) {
    const ShardCellInfo& c = h.cells[i];
    out += "{\"type\":\"cell\",\"index\":" + std::to_string(i);
    out += ",\"name\":\"" + json_escape(c.name) + "\"";
    out += ",\"trials\":" + std::to_string(c.trials);
    out += ",\"base_seed\":" + std::to_string(c.base_seed);
    out += "}\n";
  }
  return out;
}

std::string encode_shard_unit(const ShardUnitRow& row) {
  std::string out = "{\"type\":\"unit\",\"unit\":" + std::to_string(row.unit);
  out += ",\"cell\":" + std::to_string(row.cell);
  out += ",\"trial\":" + std::to_string(row.trial);
  out += ",\"converged\":";
  out += row.outcome.converged ? "1" : "0";
  out += ",\"synced_at\":" + std::to_string(row.outcome.synced_at);
  out += ",\"msgs\":\"" + double_to_hex(row.outcome.msgs_per_beat) + "\"";
  if (!row.outcome.trace_commitment.empty()) {
    out += ",\"commitment\":\"" + row.outcome.trace_commitment + "\"";
  }
  if (row.outcome.check_violations != 0) {
    out += ",\"violations\":" + std::to_string(row.outcome.check_violations);
  }
  const std::uint32_t crc = crc32(out);
  out += kCrcKey + hex8(crc) + "\"}\n";
  return out;
}

ShardParse parse_shard_file(std::istream& in) {
  ShardParse res;
  ShardFile& file = res.file;
  ShardHeader& h = file.header;
  std::string line;
  std::size_t lineno = 0;
  bool have_header = false;
  bool in_units = false;  // the preamble is complete and validated
  std::uint64_t want_cells = 0;
  // prefix[c] = trials of the cells before c: unit u of cell c, trial t
  // must satisfy u == prefix[c] + t — the canonical flattening the sweep
  // uses.
  std::vector<std::uint64_t> prefix;
  std::uint64_t running = 0;
  std::set<std::uint64_t> seen_units;

  auto fail = [&](std::string msg) {
    res.ok = false;
    res.error = std::move(msg);
    res.error_line = lineno;
    return res;
  };
  const auto total_mismatch = [&] {
    return "header total_units " + std::to_string(h.total_units) +
           " != sum of cell trials " + std::to_string(running);
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (file.torn()) {
      ++file.discarded_lines;
      continue;
    }
    if (!in_units && have_header && h.cells.size() == want_cells) {
      if (running != h.total_units) return fail(total_mismatch());
      in_units = true;
    }
    jsonl::LineValues v;
    std::string err;

    if (in_units) {
      // Bytes that do not decode or do not match their CRC are what a
      // crash leaves behind: tear the file here. Everything past this
      // point was written intact, so a wrong fact is a wrong file.
      if (!jsonl::parse_line(line, v, err) || !crc_seal_ok(line)) {
        file.discarded_lines = 1;
        continue;
      }
      const std::string* type = jsonl::find_str(v, "type");
      if (type == nullptr || *type != "unit") {
        return fail("expected a unit line after the preamble");
      }
      if (!jsonl::check_shape(v,
                              {{"unit", "cell", "trial", "converged",
                                "synced_at"},
                               {"type", "msgs", "crc"},
                               {},
                               {"violations"},
                               {"commitment"}},
                              err)) {
        return fail(err);
      }
      ShardUnitRow row;
      row.unit = *jsonl::find_int(v, "unit");
      const std::uint64_t cell = *jsonl::find_int(v, "cell");
      if (cell >= h.cells.size()) return fail("cell index out of range");
      row.cell = static_cast<std::uint32_t>(cell);
      row.trial = *jsonl::find_int(v, "trial");
      if (row.trial >= h.cells[cell].trials) {
        return fail("trial " + std::to_string(row.trial) +
                    " out of range for cell '" + h.cells[cell].name + "'");
      }
      if (row.unit != prefix[cell] + row.trial) {
        return fail("unit " + std::to_string(row.unit) +
                    " does not match (cell, trial) flattening (want " +
                    std::to_string(prefix[cell] + row.trial) + ")");
      }
      if (row.unit % h.shard.count != h.shard.index) {
        return fail("unit " + std::to_string(row.unit) + " outside shard " +
                    std::to_string(h.shard.index) + "/" +
                    std::to_string(h.shard.count));
      }
      if (!seen_units.insert(row.unit).second) {
        return fail("duplicate unit " + std::to_string(row.unit));
      }
      const std::uint64_t conv = *jsonl::find_int(v, "converged");
      if (conv > 1) return fail("bad converged flag");
      row.outcome.converged = conv == 1;
      row.outcome.synced_at = *jsonl::find_int(v, "synced_at");
      if (!hex_to_double(*jsonl::find_str(v, "msgs"),
                         &row.outcome.msgs_per_beat)) {
        return fail("bad msgs/beat value");
      }
      if (const std::string* c = jsonl::find_str(v, "commitment")) {
        if (!is_hex_lower(*c, 64)) return fail("bad trace commitment");
        row.outcome.trace_commitment = *c;
      }
      if (const std::uint64_t* vio = jsonl::find_int(v, "violations")) {
        // The writer omits the key when zero, so an explicit 0 is a
        // malformed file, not an empty result.
        if (*vio == 0) return fail("bad violation count");
        row.outcome.check_violations = *vio;
      }
      file.units.push_back(std::move(row));
      continue;
    }

    // The preamble: no CRC, every deviation is a hard error.
    if (lineno == 1 && line.compare(0, sizeof kCkptV1Magic - 1,
                                    kCkptV1Magic) == 0) {
      return fail(std::string(kCkptV1Magic) +
                  " checkpoints are no longer read (want " + kShardSchema +
                  "); delete the file and rerun the sweep");
    }
    if (line.empty()) return fail("empty line");
    if (!jsonl::parse_line(line, v, err)) return fail(err);

    const std::string* type = jsonl::find_str(v, "type");
    if (type == nullptr) return fail("missing key 'type'");

    if (*type == "shard") {
      if (have_header) return fail("duplicate shard header");
      if (!jsonl::check_shape(
              v,
              {{"shard", "shards", "total_units", "cells", "seed", "trials"},
               {"type", "schema", "pattern", "fingerprint"}},
              err)) {
        return fail(err);
      }
      if (*jsonl::find_str(v, "schema") != kShardSchema) {
        return fail("unsupported schema '" + *jsonl::find_str(v, "schema") +
                    "' (want " + kShardSchema + ")");
      }
      h.pattern = *jsonl::find_str(v, "pattern");
      h.fingerprint = *jsonl::find_str(v, "fingerprint");
      if (!is_hex_lower(h.fingerprint, 64)) return fail("bad fingerprint");
      h.shard.index = *jsonl::find_int(v, "shard");
      h.shard.count = *jsonl::find_int(v, "shards");
      if (h.shard.count == 0 || h.shard.index >= h.shard.count) {
        return fail("bad shard spec " + std::to_string(h.shard.index) + "/" +
                    std::to_string(h.shard.count));
      }
      h.total_units = *jsonl::find_int(v, "total_units");
      h.cli_seed = *jsonl::find_int(v, "seed");
      h.cli_trials = *jsonl::find_int(v, "trials");
      want_cells = *jsonl::find_int(v, "cells");
      have_header = true;
      continue;
    }

    if (!have_header) return fail("record before shard header");

    if (*type == "cell") {
      if (!jsonl::check_shape(v, {{"index", "trials", "base_seed"},
                                  {"type", "name"}},
                              err)) {
        return fail(err);
      }
      if (*jsonl::find_int(v, "index") != h.cells.size()) {
        return fail("cell index " +
                    std::to_string(*jsonl::find_int(v, "index")) +
                    " out of order");
      }
      ShardCellInfo c;
      c.name = *jsonl::find_str(v, "name");
      c.trials = *jsonl::find_int(v, "trials");
      c.base_seed = *jsonl::find_int(v, "base_seed");
      if (running > UINT64_MAX - c.trials) return fail("trial count overflow");
      prefix.push_back(running);
      running += c.trials;
      h.cells.push_back(std::move(c));
      continue;
    }

    if (*type == "unit") {
      return fail("unit line before the preamble's " +
                  std::to_string(want_cells) + " cell lines completed");
    }

    return fail("unknown type '" + *type + "'");
  }

  if (!have_header) return fail("missing shard header");
  if (h.cells.size() != want_cells) {
    return fail("truncated preamble: " + std::to_string(h.cells.size()) +
                " of " + std::to_string(want_cells) + " cell lines");
  }
  if (running != h.total_units) return fail(total_mismatch());
  res.ok = true;
  return res;
}

ShardMerge merge_shard_files(std::vector<ShardFile> files) {
  ShardMerge res;
  if (files.empty()) {
    res.error = "no shard files to merge";
    return res;
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].torn()) {
      res.error = "shard file " + std::to_string(i + 1) +
                  " is torn (a unit line failed its decode or CRC; " +
                  std::to_string(files[i].discarded_lines) +
                  " line(s) discarded) — a merge input must be complete";
      return res;
    }
  }
  const ShardHeader& h0 = files[0].header;
  for (std::size_t i = 1; i < files.size(); ++i) {
    const ShardHeader& h = files[i].header;
    const char* mismatch = nullptr;
    if (h.fingerprint != h0.fingerprint) mismatch = "grid fingerprint";
    else if (h.pattern != h0.pattern) mismatch = "pattern";
    else if (h.shard.count != h0.shard.count) mismatch = "shard count";
    else if (h.total_units != h0.total_units) mismatch = "total unit count";
    else if (h.cli_seed != h0.cli_seed) mismatch = "--seed override";
    else if (h.cli_trials != h0.cli_trials) mismatch = "--trials override";
    else if (!(h.cells == h0.cells)) mismatch = "cell list";
    if (mismatch != nullptr) {
      res.error = std::string("shard file ") + std::to_string(i + 1) + " " +
                  mismatch + " differs from file 1 (different grid or "
                  "invocation — refusing to merge)";
      return res;
    }
  }

  // Every unit exactly once across all files; duplicates mean overlapping
  // shards (or the same shard supplied twice).
  std::map<std::uint64_t, const ShardUnitRow*> by_unit;
  std::uint64_t with_commitment = 0, without_commitment = 0;
  for (const ShardFile& f : files) {
    for (const ShardUnitRow& row : f.units) {
      if (!by_unit.emplace(row.unit, &row).second) {
        res.error = "unit " + std::to_string(row.unit) +
                    " appears more than once (overlapping shard files)";
        return res;
      }
      if (row.outcome.trace_commitment.empty()) ++without_commitment;
      else ++with_commitment;
    }
  }
  if (by_unit.size() != h0.total_units) {
    // First missing unit, for a pointable error message.
    std::uint64_t missing = 0;
    for (const auto& [unit, row] : by_unit) {
      if (unit != missing) break;
      ++missing;
    }
    res.error = "incomplete merge: " + std::to_string(by_unit.size()) +
                " of " + std::to_string(h0.total_units) +
                " units present (first missing: unit " +
                std::to_string(missing) + " — supply all " +
                std::to_string(h0.shard.count) + " shards)";
    return res;
  }
  if (with_commitment != 0 && without_commitment != 0) {
    res.error = "mixed trace-commitment coverage (" +
                std::to_string(with_commitment) + " units with, " +
                std::to_string(without_commitment) +
                " without) — rerun the shards uniformly";
    return res;
  }

  res.header = h0;
  res.header.shard = ShardSpec{0, 1};  // the merge is the whole grid
  res.have_commitments = with_commitment != 0;
  res.per_cell.resize(h0.cells.size());
  for (std::size_t c = 0; c < h0.cells.size(); ++c) {
    res.per_cell[c].resize(h0.cells[c].trials);
  }
  if (res.have_commitments) res.commitments.reserve(h0.total_units);
  for (const auto& [unit, row] : by_unit) {
    res.per_cell[row->cell][row->trial] = row->outcome;
    if (res.have_commitments) {
      res.commitments.push_back(row->outcome.trace_commitment);
    }
  }
  res.ok = true;
  return res;
}

}  // namespace ssbft
