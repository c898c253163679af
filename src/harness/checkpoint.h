// Crash-safe distributed sweeps: the persistence layer behind
// `ssbft_bench run --shard i/k`, `ssbft_bench merge` and
// `--checkpoint/--resume` (harness/sweep.h drives it).
//
// One on-disk format persists every unit outcome, and it is read back
// from hostile bytes (a kill -9 can cut anything; a fleet merge must never
// silently corrupt statistics):
//
// ## Unit-record file (ssbft-shard-v2, flat JSONL)
//
//   {"type":"shard","schema":"ssbft-shard-v2","pattern":…,"shard":i,
//    "shards":k,"fingerprint":…,"total_units":N,"cells":C,
//    "seed":S,"trials":T}
//   {"type":"cell","index":0,"name":…,"trials":…,"base_seed":…}
//   {"type":"unit","unit":u,"cell":c,"trial":t,"converged":0|1,
//    "synced_at":…,"msgs":"<hexfloat>"[,"commitment":"<64hex>"]
//    [,"violations":V],"crc":"<8hex>"}
//
// The header line and one line per cell form the preamble; one unit line
// per completed (cell, trial) unit follows, in any order. `crc` is the
// last key of every unit line: the CRC-32 of the line's bytes before
// `,"crc"`. The preamble needs none — a cut header or cell line already
// fails the JSON scan or the cell-count and total_units checks. msgs/beat
// round-trips through C99 hexfloat, so restored TrialStats are
// bit-identical to the originals, doubles included. `fingerprint` is the
// sweep's identity (sweep_fingerprint), so a file can never be replayed
// against, or merged into, a different grid.
//
// The one reader, parse_shard_file, serves both uses of the format:
//
//   * Shard report (`run --shard i/k --out FILE`): the interchange a
//     fleet's shards ship home. merge_shard_files is strict — torn files,
//     schema/fingerprint/grid mismatches, overlapping and missing units are
//     structured errors, so a merged TrialStats either equals the unsharded
//     run bit for bit or the merge refuses.
//   * Checkpoint (`--checkpoint FILE`): the sweep publishes the preamble
//     tmp-then-rename, then appends and flushes one unit line per
//     completed unit. A kill can leave a cut last line, so everything from
//     the first unit line that fails its JSON decode or its CRC is
//     discarded (`torn`) and --resume recomputes those units. Its preamble
//     carries no pattern or CLI seed/trials stamps.
//
// Either way, a CRC-valid line whose facts contradict the preamble's grid
// (cell or trial out of range, wrong unit flattening, outside the shard,
// duplicate unit) is a hard error: intact bytes carrying wrong facts mean a
// wrong file, not a crash artifact. Files in the retired ssbft-ckpt-v1 and
// ssbft-shard-v1 formats are refused with the version named. Decoding
// rides the same strict flat-JSON scanner as the trace checker
// (harness/jsonl.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ssbft {

// What one (cell, trial) unit contributes to its cell's TrialStats —
// captured per unit so workers never contend, unit-record files persist
// exactly this, and shard merges refold it in trial order.
struct TrialOutcome {
  bool converged = false;
  std::uint64_t synced_at = 0;
  double msgs_per_beat = 0.0;
  // SHA-256 trace commitment of the unit's execution trace (64 hex
  // chars) when the sweep collected commitments; empty otherwise.
  std::string trace_commitment;
  // Invariant violations found by the streaming checker when the sweep
  // ran with live checking (SweepOptions::live_check); 0 otherwise.
  // Persisted (optional "violations" key) only when nonzero.
  std::uint64_t check_violations = 0;
  // The checker's retained violation messages (CheckResult::violations).
  // In memory only: never persisted, so a unit restored from a file
  // carries its count but no messages.
  std::vector<std::string> violations;
};

// --shard i/k: run only units u with u % count == index.
struct ShardSpec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
  bool active() const { return count > 1; }
  bool operator==(const ShardSpec& o) const {
    return index == o.index && count == o.count;
  }
};

// "i/k" -> spec (k >= 1, i < k); nullopt on anything else.
std::optional<ShardSpec> parse_shard_spec(const std::string& s);

// Exact double <-> text round trip via C99 hexfloat ("%a" / strtod):
// decimal formatting would break the bit-identical-recovery guarantee.
// hex_to_double rejects non-finite values and loose formats (leading
// whitespace, '+', trailing bytes).
std::string double_to_hex(double v);
bool hex_to_double(const std::string& s, double* out);

// CRC-32 (IEEE 802.3, reflected) — the per-unit-line integrity check.
std::uint32_t crc32(const void* data, std::size_t len);
std::uint32_t crc32(const std::string& s);

struct ShardCellInfo {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 0;
  bool operator==(const ShardCellInfo& o) const {
    return name == o.name && trials == o.trials && base_seed == o.base_seed;
  }
};

struct ShardHeader {
  std::string pattern;      // the glob the sweep ran ("" in checkpoints)
  ShardSpec shard;
  std::string fingerprint;  // sweep_fingerprint of the grid
  std::uint64_t total_units = 0;
  // CLI-level overrides, carried so a merged report stamps the same
  // RunMeta the originating run would have (0 in checkpoints).
  std::uint64_t cli_seed = 0;
  std::uint64_t cli_trials = 0;
  std::vector<ShardCellInfo> cells;  // grid cells, in sweep order
};

struct ShardUnitRow {
  std::uint64_t unit = 0;  // global unit index
  std::uint32_t cell = 0;  // index into ShardHeader::cells
  std::uint64_t trial = 0;
  TrialOutcome outcome;    // trace_commitment empty = untraced run
};

// The preamble (header + per-cell lines), then one CRC-sealed line per
// unit; each returns whole '\n'-terminated lines.
std::string encode_shard_header(const ShardHeader& header);
std::string encode_shard_unit(const ShardUnitRow& row);

struct ShardFile {
  ShardHeader header;
  std::vector<ShardUnitRow> units;  // the valid prefix, in file order
  // Lines discarded from the first unit line that failed its JSON decode
  // or its CRC on; nonzero means the file is torn.
  std::uint64_t discarded_lines = 0;
  bool torn() const { return discarded_lines != 0; }
};

struct ShardParse {
  bool ok = false;
  std::string error;           // set iff !ok
  std::size_t error_line = 0;  // 1-based line of the first error
  ShardFile file;
};

// Strict decode of one ssbft-shard-v2 stream. Preamble errors and
// CRC-valid unit lines that contradict the grid are hard errors; a unit
// line failing its decode or CRC tears the file there (ShardFile::torn).
// Never throws on bad input.
ShardParse parse_shard_file(std::istream& in);

struct ShardMerge {
  bool ok = false;
  std::string error;   // set iff !ok
  ShardHeader header;  // the (validated-equal) grid description
  // Outcomes per cell in trial order — feed straight into merge_outcomes
  // for TrialStats bit-identical to the unsharded run.
  std::vector<std::vector<TrialOutcome>> per_cell;
  // All units carried trace commitments (all-or-none is enforced).
  bool have_commitments = false;
  std::vector<std::string> commitments;  // per unit, global unit order
};

// Folds complete shard files back into one grid. Errors (never silent
// corruption): no inputs, torn files, header/grid/fingerprint mismatches,
// unit overlap across files, missing units, mixed commitment coverage.
ShardMerge merge_shard_files(std::vector<ShardFile> files);

}  // namespace ssbft
