// Tests for the crash-safe distributed-sweep persistence layer
// (harness/checkpoint.h): the codec primitives (shard specs, hexfloat
// round trips, CRC-32), the ssbft-shard-v2 reader's torn-tail-vs-hard-
// error split and strictness, merge's refusal of torn files, the
// checkpoint's atomic preamble and per-unit appends, and the headline
// recovery guarantees — a sweep resumed after truncation or a real SIGKILL
// produces TrialStats and trace commitments bit-identical to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/checkpoint.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "support/check.h"

namespace ssbft {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- primitives

TEST(ShardSpecParse, AcceptsStrictIOverK) {
  const auto s = parse_shard_spec("0/1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 0u);
  EXPECT_EQ(s->count, 1u);
  EXPECT_FALSE(s->active());
  const auto t = parse_shard_spec("2/7");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->index, 2u);
  EXPECT_EQ(t->count, 7u);
  EXPECT_TRUE(t->active());
}

TEST(ShardSpecParse, RejectsEverythingElse) {
  for (const char* bad : {"", "/", "1", "1/", "/2", "2/2", "3/2", "0/0",
                          "-1/2", "1/+2", "a/b", "1/2/3", " 1/2", "1/2 ",
                          "0x1/2", "1.0/2"}) {
    EXPECT_FALSE(parse_shard_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(HexFloat, RoundTripsBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           3.141592653589793,
                           1.0 / 3.0,
                           123456.789,
                           -2.5e-10,
                           5e-324,                    // min denormal
                           1.7976931348623157e308};   // max finite
  for (const double v : values) {
    double back = 99.0;
    ASSERT_TRUE(hex_to_double(double_to_hex(v), &back)) << double_to_hex(v);
    // Bit-exact, including the sign of zero.
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << double_to_hex(v);
  }
}

TEST(HexFloat, RejectsLooseFormats) {
  double out = 0.0;
  for (const char* bad : {"", " 0x1p0", "+0x1p0", "0x1p0 ", "0x1p0junk",
                          "inf", "-inf", "nan", "abc"}) {
    EXPECT_FALSE(hex_to_double(bad, &out)) << "'" << bad << "'";
  }
  // Plain decimal is acceptable input (strtod parses it); only loose
  // surroundings are rejected.
  EXPECT_TRUE(hex_to_double("1.5", &out));
  EXPECT_EQ(out, 1.5);
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 (IEEE 802.3) check vector.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0x00000000u);
  EXPECT_NE(crc32(std::string("a")), crc32(std::string("b")));
}

// ------------------------------------------------------ unit-record codec

ShardParse parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse_shard_file(in);
}

// A checkpoint-style file: shard 1/3 of a 40-unit grid, no pattern or CLI
// stamps, one unit line per slice unit.
ShardHeader sample_ckpt_header() {
  ShardHeader h;
  h.shard = ShardSpec{1, 3};
  h.fingerprint = std::string(64, 'a');
  h.total_units = 40;
  h.cells.push_back(ShardCellInfo{"cell-a", 16, 100});
  h.cells.push_back(ShardCellInfo{"cell-b", 24, 200});
  return h;
}

ShardUnitRow sample_row(std::uint64_t u) {
  ShardUnitRow row;
  row.unit = u;
  row.cell = u < 16 ? 0u : 1u;
  row.trial = u < 16 ? u : u - 16;
  row.outcome.converged = (u % 2) == 0;
  row.outcome.synced_at = u * 7;
  row.outcome.msgs_per_beat = 3.25 + static_cast<double>(u) * 0.1;
  if (u % 6 == 1) row.outcome.trace_commitment = std::string(64, 'b');
  if (u % 5 == 2) row.outcome.check_violations = u;
  return row;
}

std::vector<ShardUnitRow> sample_rows() {
  std::vector<ShardUnitRow> rows;
  for (std::uint64_t u = 1; u < 40; u += 3) rows.push_back(sample_row(u));
  return rows;
}

std::string sample_checkpoint() {
  std::string text = encode_shard_header(sample_ckpt_header());
  for (const ShardUnitRow& row : sample_rows()) text += encode_shard_unit(row);
  return text;
}

// Seals a hand-written unit line body the way the encoder does.
std::string sealed(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", crc32(body));
  return body + ",\"crc\":\"" + crc + "\"}\n";
}

void expect_same_row(const ShardUnitRow& a, const ShardUnitRow& b) {
  EXPECT_EQ(a.unit, b.unit);
  EXPECT_EQ(a.cell, b.cell) << "unit " << a.unit;
  EXPECT_EQ(a.trial, b.trial) << "unit " << a.unit;
  EXPECT_EQ(a.outcome.converged, b.outcome.converged) << "unit " << a.unit;
  EXPECT_EQ(a.outcome.synced_at, b.outcome.synced_at) << "unit " << a.unit;
  EXPECT_EQ(a.outcome.msgs_per_beat, b.outcome.msgs_per_beat)
      << "unit " << a.unit;
  EXPECT_EQ(a.outcome.trace_commitment, b.outcome.trace_commitment)
      << "unit " << a.unit;
  EXPECT_EQ(a.outcome.check_violations, b.outcome.check_violations)
      << "unit " << a.unit;
}

TEST(CheckpointCodec, RoundTrips) {
  const ShardParse p = parse_text(sample_checkpoint());
  ASSERT_TRUE(p.ok) << p.error_line << ": " << p.error;
  EXPECT_FALSE(p.file.torn());
  EXPECT_EQ(p.file.discarded_lines, 0u);
  const ShardHeader want = sample_ckpt_header();
  EXPECT_EQ(p.file.header.fingerprint, want.fingerprint);
  EXPECT_TRUE(p.file.header.shard == want.shard);
  EXPECT_EQ(p.file.header.total_units, want.total_units);
  EXPECT_TRUE(p.file.header.cells == want.cells);
  const std::vector<ShardUnitRow> rows = sample_rows();
  ASSERT_EQ(p.file.units.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_same_row(rows[i], p.file.units[i]);
  }
}

TEST(CheckpointCodec, EveryUnitLineEndsWithItsCrc) {
  const std::string line = encode_shard_unit(sample_row(4));
  const std::size_t key = line.rfind(",\"crc\":\"");
  ASSERT_NE(key, std::string::npos);
  EXPECT_EQ(line.size(), key + 19) << line;  // ,"crc":"<8hex>"}\n
  EXPECT_EQ(line, sealed(line.substr(0, key)));
}

// Cut the file at EVERY byte boundary: inside the preamble the result is a
// hard error (a cut header or cell line fails the JSON scan or the cell
// count), from the first unit line on it parses with torn set iff the cut
// is mid-line, and the surviving units are exactly the complete-line
// prefix.
TEST(CheckpointCodec, TruncationAtEveryByteDegradesGracefully) {
  const std::string full = sample_checkpoint();
  const std::size_t preamble_end =
      encode_shard_header(sample_ckpt_header()).size();
  const std::vector<ShardUnitRow> rows = sample_rows();

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const ShardParse p = parse_text(full.substr(0, len));
    // A cut that only drops the preamble's final newline leaves every
    // preamble byte intact.
    if (len + 1 < preamble_end) {
      EXPECT_FALSE(p.ok) << "cut at " << len;
      EXPECT_FALSE(p.error.empty()) << "cut at " << len;
      continue;
    }
    ASSERT_TRUE(p.ok) << "cut at " << len << ": " << p.error;
    std::size_t complete = 0;
    for (std::size_t i = preamble_end; i < len; ++i) {
      if (full[i] == '\n') ++complete;
    }
    const bool has_fragment = len > preamble_end && full[len - 1] != '\n';
    // A fragment that is an entire line minus its newline still carries a
    // valid CRC, so the reader rightly keeps it; any shorter cut is torn.
    const bool fragment_is_whole_line =
        has_fragment && len < full.size() && full[len] == '\n';
    if (fragment_is_whole_line) ++complete;
    const bool torn = has_fragment && !fragment_is_whole_line;
    EXPECT_EQ(p.file.torn(), torn) << "cut at " << len;
    EXPECT_EQ(p.file.discarded_lines, torn ? 1u : 0u) << "cut at " << len;
    ASSERT_EQ(p.file.units.size(), complete) << "cut at " << len;
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(p.file.units[i].unit, rows[i].unit) << "cut at " << len;
    }
  }
}

TEST(CheckpointCodec, ByteFlipInAUnitLineDiscardsTheTail) {
  const std::string full = sample_checkpoint();
  const std::size_t preamble_end =
      encode_shard_header(sample_ckpt_header()).size();
  const std::size_t lines = sample_rows().size();
  // Flip one byte inside each field of unit line 3 in turn.
  std::size_t line3 = preamble_end;
  for (int k = 0; k < 2; ++k) line3 = full.find('\n', line3) + 1;
  const std::size_t line3_end = full.find('\n', line3);
  for (std::size_t target = line3; target < line3_end; ++target) {
    std::string flipped = full;
    flipped[target] = static_cast<char>(flipped[target] ^ 0x20);
    const ShardParse p = parse_text(flipped);
    ASSERT_TRUE(p.ok) << "flip at " << target << ": " << p.error;
    EXPECT_TRUE(p.file.torn()) << "flip at " << target;
    EXPECT_EQ(p.file.units.size(), 2u);  // the two lines before the flip
    EXPECT_EQ(p.file.discarded_lines, lines - 2);
  }
}

TEST(CheckpointCodec, CrcValidButWrongFactsAreHardErrors) {
  const std::string preamble = encode_shard_header(sample_ckpt_header());
  const auto expect_hard = [&](const std::string& units,
                               const std::string& needle) {
    const ShardParse p = parse_text(preamble + units);
    EXPECT_FALSE(p.ok) << "wanted rejection with '" << needle << "'";
    EXPECT_NE(p.error.find(needle), std::string::npos)
        << p.error << " (wanted '" << needle << "')";
  };
  const std::string one = encode_shard_unit(sample_row(1));
  expect_hard(one + one, "duplicate unit 1");
  {
    ShardUnitRow row = sample_row(1);
    row.cell = 2;  // the grid has two cells
    expect_hard(encode_shard_unit(row), "cell index out of range");
  }
  {
    ShardUnitRow row = sample_row(37);
    row.trial = 24;  // cell-b has 24 trials
    expect_hard(encode_shard_unit(row), "out of range for cell 'cell-b'");
  }
  {
    ShardUnitRow row = sample_row(4);
    row.unit = 7;  // (cell 0, trial 4) is unit 4
    expect_hard(encode_shard_unit(row), "does not match");
  }
  // Unit 3 belongs to shard 0/3, not this file's 1/3.
  expect_hard(encode_shard_unit(sample_row(3)), "outside shard 1/3");
  const std::string base =
      "{\"type\":\"unit\",\"unit\":1,\"cell\":0,\"trial\":1,";
  expect_hard(sealed(base + "\"converged\":2,\"synced_at\":7,"
                            "\"msgs\":\"0x1p+0\""),
              "bad converged flag");
  expect_hard(sealed(base + "\"converged\":1,\"synced_at\":7,"
                            "\"msgs\":\"1e0x\""),
              "bad msgs/beat value");
  expect_hard(sealed(base + "\"converged\":1,\"synced_at\":7,"
                            "\"msgs\":\"0x1p+0\",\"violations\":0"),
              "bad violation count");
  expect_hard(sealed(base + "\"converged\":1,\"synced_at\":7,"
                            "\"msgs\":\"0x1p+0\",\"commitment\":\"zz\""),
              "bad trace commitment");
  expect_hard(sealed(base + "\"converged\":1,\"msgs\":\"0x1p+0\""),
              "missing key 'synced_at'");
  expect_hard(sealed(base + "\"converged\":1,\"synced_at\":7,"
                            "\"msgs\":\"0x1p+0\",\"extra\":1"),
              "unknown key 'extra'");
  expect_hard(sealed("{\"type\":\"cell\",\"index\":2,\"name\":\"x\","
                     "\"trials\":1,\"base_seed\":1"),
              "expected a unit line");
}

TEST(CheckpointCodec, GarbledPreambleIsAHardError) {
  const std::string header = encode_shard_header(sample_ckpt_header());
  const std::string first_line = header.substr(0, header.find('\n') + 1);
  std::string wrong_schema = header;
  wrong_schema.replace(wrong_schema.find("ssbft-shard-v2"), 14,
                       "ssbft-shard-v3");
  std::string wrong_total = header;
  wrong_total.replace(wrong_total.find("\"total_units\":40"), 16,
                      "\"total_units\":41");
  for (const std::string& bad :
       {std::string(""), std::string("\n"), std::string("not a checkpoint\n"),
        std::string("{\"type\":\"shard\"}\n"), first_line, wrong_schema,
        wrong_total, header.substr(0, header.size() / 2)}) {
    const ShardParse p = parse_text(bad);
    EXPECT_FALSE(p.ok) << "'" << bad << "'";
    EXPECT_FALSE(p.error.empty()) << "'" << bad << "'";
  }
  // A complete preamble with no unit lines is a valid (empty) checkpoint.
  const ShardParse p = parse_text(header);
  EXPECT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.file.units.empty());
  EXPECT_FALSE(p.file.torn());
}

TEST(CheckpointCodec, RetiredFormatsAreRefusedByVersion) {
  // The old line-oriented checkpoint, header and one CRC'd record.
  const ShardParse ckpt = parse_text(
      "ssbft-ckpt-v1 fp=" + std::string(64, 'a') +
      " shard=0/1 units=5\nu=0 c=1 s=9 m=0x1.8p+0 t=- crc=00000000\n");
  EXPECT_FALSE(ckpt.ok);
  EXPECT_EQ(ckpt.error_line, 1u);
  EXPECT_NE(ckpt.error.find("ssbft-ckpt-v1"), std::string::npos)
      << ckpt.error;
  // An old shard report: the v2 preamble under the v1 schema string.
  std::string v1 = sample_checkpoint();
  v1.replace(v1.find("ssbft-shard-v2"), 14, "ssbft-shard-v1");
  const ShardParse shard = parse_text(v1);
  EXPECT_FALSE(shard.ok);
  EXPECT_NE(shard.error.find("'ssbft-shard-v1'"), std::string::npos)
      << shard.error;
}

// ------------------------------------------------------ shard file parser

ShardHeader sample_header() {
  ShardHeader h;
  h.pattern = "gallery/*";
  h.shard = ShardSpec{0, 2};
  h.fingerprint = std::string(64, 'c');
  h.total_units = 8;
  h.cli_seed = 7;
  h.cli_trials = 3;
  h.cells.push_back(ShardCellInfo{"cell \"a\"", 3, 100});
  h.cells.push_back(ShardCellInfo{"cell/b", 5, 200});
  return h;
}

// Shard `index` of 2 over sample_header's grid. With commitments, every
// unit but 4 carries one (so the optional key is exercised both ways).
std::string sample_shard_text(std::uint64_t index = 0,
                              bool commitments = true) {
  ShardHeader h = sample_header();
  h.shard.index = index;
  std::string text = encode_shard_header(h);
  for (std::uint64_t u = index; u < 8; u += 2) {
    ShardUnitRow row;
    row.unit = u;
    row.cell = u < 3 ? 0u : 1u;
    row.trial = u < 3 ? u : u - 3;
    row.outcome.converged = true;
    row.outcome.synced_at = 10 + u;
    row.outcome.msgs_per_beat = 0.5 + static_cast<double>(u) * 0.3;
    if (commitments && u != 4) {
      row.outcome.trace_commitment = std::string(64, 'd');
    }
    text += encode_shard_unit(row);
  }
  return text;
}

TEST(ShardCodec, RoundTripsThroughTheParser) {
  const ShardParse p = parse_text(sample_shard_text());
  ASSERT_TRUE(p.ok) << p.error_line << ": " << p.error;
  EXPECT_TRUE(p.file.header.cells == sample_header().cells);
  EXPECT_EQ(p.file.header.pattern, "gallery/*");
  EXPECT_EQ(p.file.header.cli_seed, 7u);
  EXPECT_EQ(p.file.header.cli_trials, 3u);
  ASSERT_EQ(p.file.units.size(), 4u);
  EXPECT_EQ(p.file.units[0].unit, 0u);
  EXPECT_EQ(p.file.units[3].unit, 6u);
  EXPECT_EQ(p.file.units[3].cell, 1u);
  EXPECT_EQ(p.file.units[3].trial, 3u);
  EXPECT_FALSE(p.file.units[1].outcome.trace_commitment.empty());
  EXPECT_TRUE(p.file.units[2].outcome.trace_commitment.empty());  // u=4
}

TEST(ShardCodec, RejectsBrokenFiles) {
  const std::string good = sample_shard_text();
  const auto expect_reject = [](const std::string& text,
                                const std::string& needle) {
    const ShardParse p = parse_text(text);
    EXPECT_FALSE(p.ok) << "wanted rejection with '" << needle << "'";
    EXPECT_NE(p.error.find(needle), std::string::npos)
        << p.error << " (wanted '" << needle << "')";
  };
  expect_reject("", "missing shard header");
  expect_reject("{\"type\":\"unit\"}\n", "before shard header");
  // Truncate mid-preamble: header line only.
  expect_reject(good.substr(0, good.find('\n') + 1), "truncated preamble");
  {
    // A duplicated unit line.
    const std::size_t first_unit = good.find("{\"type\":\"unit\"");
    const std::size_t next = good.find('\n', first_unit) + 1;
    expect_reject(good + good.substr(first_unit, next - first_unit),
                  "duplicate unit");
  }
  {
    // A CRC-valid unit index that disagrees with the (cell, trial)
    // flattening: (cell 1, trial 3) is unit 6.
    ShardUnitRow row;
    row.unit = 8;
    row.cell = 1;
    row.trial = 3;
    expect_reject(good + encode_shard_unit(row), "does not match");
  }

  // Torn files parse (their valid prefix is what --resume restores), but
  // a merge input must be complete: merge refuses them outright.
  const auto parsed = [](const std::string& text) {
    ShardParse p = parse_text(text);
    EXPECT_TRUE(p.ok) << p.error;
    return std::move(p.file);
  };
  const std::string a = sample_shard_text(0, false);
  const ShardFile b = parsed(sample_shard_text(1, false));
  {
    std::vector<ShardFile> files{parsed(a), b};
    const ShardMerge m = merge_shard_files(std::move(files));
    ASSERT_TRUE(m.ok) << m.error;  // the intact pair merges
  }
  const auto expect_merge_refuses_torn = [&](const std::string& text) {
    ShardFile torn = parsed(text);
    EXPECT_TRUE(torn.torn());
    std::vector<ShardFile> files{std::move(torn), b};
    const ShardMerge m = merge_shard_files(std::move(files));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("torn"), std::string::npos) << m.error;
  };
  // The final line cut in half (a shard report is published atomically,
  // so a torn one was copied badly).
  expect_merge_refuses_torn(a.substr(0, a.size() - 10));
  {
    // One CRC-failing unit line: a flipped byte in the second unit's
    // synced_at value.
    std::string bad = a;
    const std::size_t pos = bad.find("\"synced_at\":12");
    ASSERT_NE(pos, std::string::npos);
    bad[pos + 13] = '3';
    expect_merge_refuses_torn(bad);
  }
}

// ------------------------------------------------- sweep-level recovery

void expect_identical(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean_msgs_per_beat, b.mean_msgs_per_beat);
}

std::vector<SweepCell> small_grid() {
  const char* names[] = {"gallery/split", "net/lossy"};
  std::vector<SweepCell> cells;
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    EXPECT_NE(spec, nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = 6 - cells.size();  // 6 and 5: unequal cell sizes
    rc.convergence.max_beats = 400;
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }
  return cells;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           (tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void expect_same_run(const SweepResult& ref, const SweepResult& res) {
  ASSERT_EQ(ref.stats.size(), res.stats.size());
  for (std::size_t c = 0; c < ref.stats.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expect_identical(ref.stats[c], res.stats[c]);
  }
  ASSERT_EQ(ref.units.size(), res.units.size());
  for (std::size_t j = 0; j < ref.units.size(); ++j) {
    SCOPED_TRACE("unit " + std::to_string(ref.units[j].unit));
    EXPECT_EQ(ref.units[j].unit, res.units[j].unit);
    EXPECT_EQ(ref.units[j].outcome.converged, res.units[j].outcome.converged);
    EXPECT_EQ(ref.units[j].outcome.synced_at, res.units[j].outcome.synced_at);
    EXPECT_EQ(ref.units[j].outcome.msgs_per_beat,
              res.units[j].outcome.msgs_per_beat);
    EXPECT_EQ(ref.units[j].outcome.trace_commitment,
              res.units[j].outcome.trace_commitment);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ShardParse parse_path(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return parse_shard_file(in);
}

// A checkpoint is an ssbft-shard-v2 file: the sweep's own preamble (no
// pattern or CLI stamps), published atomically, then one unit line per
// completed unit — in completion order, so --jobs 2 may interleave them.
TEST(CheckpointRecovery, CheckpointIsAShardFileCoveringTheSlice) {
  TempDir dir("ssbft_ckfile");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();
  SweepOptions opts;
  opts.jobs = 2;
  opts.shard = ShardSpec{1, 2};
  opts.checkpoint_path = ckpt;
  const SweepResult res = run_sweep_ex(small_grid(), opts);
  EXPECT_FALSE(fs::exists(ckpt + ".tmp"));  // staged preamble renamed away

  const ShardParse p = parse_path(ckpt);
  ASSERT_TRUE(p.ok) << p.error_line << ": " << p.error;
  EXPECT_FALSE(p.file.torn());
  const ShardHeader want = shard_header_for(small_grid(), opts, "");
  EXPECT_EQ(p.file.header.fingerprint, want.fingerprint);
  EXPECT_TRUE(p.file.header.shard == opts.shard);
  EXPECT_EQ(p.file.header.total_units, res.total_units);
  EXPECT_TRUE(p.file.header.cells == want.cells);
  EXPECT_TRUE(p.file.header.pattern.empty());
  ASSERT_EQ(p.file.units.size(), res.units.size());
  for (const ShardUnitRow& row : p.file.units) {
    const ShardUnitRow& u = res.units[(row.unit - 1) / 2];
    ASSERT_EQ(row.unit, u.unit);
    EXPECT_EQ(row.outcome.converged, u.outcome.converged);
    EXPECT_EQ(row.outcome.synced_at, u.outcome.synced_at);
    EXPECT_EQ(row.outcome.msgs_per_beat, u.outcome.msgs_per_beat);
  }
}

TEST(CheckpointRecovery, TornCheckpointRecomputesTheTailBitIdentically) {
  TempDir dir("ssbft_torn");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();

  // Uninterrupted reference (traced, with commitments).
  SweepOptions ref_opts;
  ref_opts.jobs = 1;
  ref_opts.trace_dir = (dir.path / "traces_ref").string();
  ref_opts.collect_commitments = true;
  const SweepResult ref = run_sweep_ex(small_grid(), ref_opts);

  // A completed checkpointed run, then mutilate the checkpoint: keep the
  // preamble and the first unit lines, cut a later one mid-line (what a
  // kill during an append, or a bad copy, leaves behind).
  SweepOptions run_opts = ref_opts;
  run_opts.trace_dir = (dir.path / "traces_res").string();
  run_opts.checkpoint_path = ckpt;
  run_sweep_ex(small_grid(), run_opts);
  std::string text = read_file(ckpt);
  const std::size_t units_begin = text.find("{\"type\":\"unit\"");
  ASSERT_NE(units_begin, std::string::npos);
  std::size_t cut = units_begin + (text.size() - units_begin) * 2 / 3;
  if (text[cut - 1] == '\n') cut += 5;  // land inside a unit line
  ASSERT_GT(cut, units_begin);
  ASSERT_LT(cut, text.size());
  text.resize(cut);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << text;
  }
  {
    const ShardParse p = parse_path(ckpt);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.file.torn());
  }

  SweepOptions resume_opts = run_opts;
  resume_opts.resume = true;
  const SweepResult res = run_sweep_ex(small_grid(), resume_opts);
  EXPECT_GT(res.resumed_units, 0u);
  EXPECT_LT(res.resumed_units, res.units.size());
  expect_same_run(ref, res);

  // The resumed run re-published the valid prefix and appended the rest.
  const ShardParse p = parse_path(ckpt);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_FALSE(p.file.torn());
  EXPECT_EQ(p.file.units.size(), res.units.size());
}

TEST(CheckpointRecovery, ResumeRefusesForeignCheckpoints) {
  TempDir dir("ssbft_foreign");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();
  SweepOptions run_opts;
  run_opts.jobs = 1;
  run_opts.checkpoint_path = ckpt;
  run_sweep_ex(small_grid(), run_opts);

  // A different grid (one extra trial) must refuse the checkpoint.
  auto other = small_grid();
  other[0].cfg.trials += 1;
  SweepOptions resume_opts = run_opts;
  resume_opts.resume = true;
  EXPECT_THROW(run_sweep_ex(other, resume_opts), contract_error);

  // Same grid, different shard: also a refusal.
  SweepOptions shard_opts = resume_opts;
  shard_opts.shard = ShardSpec{0, 2};
  EXPECT_THROW(run_sweep_ex(small_grid(), shard_opts), contract_error);

  // Missing checkpoint file: structured refusal, not a silent cold start.
  SweepOptions missing_opts = resume_opts;
  missing_opts.checkpoint_path = (dir.path / "absent.ckpt").string();
  EXPECT_THROW(run_sweep_ex(small_grid(), missing_opts), contract_error);

  // A checkpoint in the retired line-oriented format is refused, not
  // converted.
  SweepOptions v1_opts = resume_opts;
  v1_opts.checkpoint_path = (dir.path / "v1.ckpt").string();
  {
    std::ofstream out(v1_opts.checkpoint_path, std::ios::binary);
    out << "ssbft-ckpt-v1 fp=" << std::string(64, 'a')
        << " shard=0/1 units=11\n";
  }
  EXPECT_THROW(run_sweep_ex(small_grid(), v1_opts), contract_error);

  // The intact checkpoint still resumes: every unit restored.
  const SweepResult res = run_sweep_ex(small_grid(), resume_opts);
  EXPECT_EQ(res.resumed_units, res.units.size());
}

// A live-checked sweep's verdicts depend on its CheckOptions, so resuming
// its checkpoint under another bound (or without live checking) would mix
// verdicts from different rules: the sweep identity covers them.
TEST(CheckpointRecovery, ResumeRefusesADifferentLiveCheckBound) {
  TempDir dir("ssbft_livecheck");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();
  SweepOptions run_opts;
  run_opts.jobs = 2;
  run_opts.live_check = true;
  run_opts.checkpoint_path = ckpt;
  run_sweep_ex(small_grid(), run_opts);

  SweepOptions bound_opts = run_opts;
  bound_opts.resume = true;
  bound_opts.live_check_opts.bound = 400;
  EXPECT_THROW(run_sweep_ex(small_grid(), bound_opts), contract_error);

  SweepOptions unchecked_opts = run_opts;
  unchecked_opts.resume = true;
  unchecked_opts.live_check = false;
  EXPECT_THROW(run_sweep_ex(small_grid(), unchecked_opts), contract_error);

  // The same settings resume every unit.
  SweepOptions same_opts = run_opts;
  same_opts.resume = true;
  const SweepResult res = run_sweep_ex(small_grid(), same_opts);
  EXPECT_EQ(res.resumed_units, res.units.size());
}

// The headline robustness claim, end to end: fork a child sweeping with
// a checkpoint (one appended line per unit), SIGKILL it mid-flight (no
// destructors, no flushes — a real crash), then resume in the parent and
// require stats AND per-unit SHA-256 trace commitments bit-identical to a
// run that was never interrupted.
TEST(CheckpointRecovery, SigkillMidSweepThenResumeBitIdentical) {
  TempDir dir("ssbft_kill");
  const std::string ckpt = (dir.path / "sweep.ckpt").string();

  SweepOptions ref_opts;
  ref_opts.jobs = 1;
  ref_opts.trace_dir = (dir.path / "traces_ref").string();
  ref_opts.collect_commitments = true;
  const SweepResult ref = run_sweep_ex(small_grid(), ref_opts);

  SweepOptions child_opts;
  child_opts.jobs = 1;
  child_opts.trace_dir = (dir.path / "traces_res").string();
  child_opts.collect_commitments = true;
  child_opts.checkpoint_path = ckpt;

  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: plain serial sweep; _exit keeps gtest/atexit machinery out.
    try {
      run_sweep_ex(small_grid(), child_opts);
    } catch (...) {
      _exit(3);
    }
    _exit(0);
  }

  // Parent: wait until at least 3 units are durably checkpointed, then
  // kill -9. The preamble is published via rename and a line caught
  // mid-append only tears the tail, so polling the file is race-free.
  bool child_exited = false;
  for (int i = 0; i < 30000; ++i) {
    const ShardParse p = parse_path(ckpt);
    if (p.ok && p.file.units.size() >= 3) break;
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;  // finished before we could kill it: still fine
      EXPECT_EQ(status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!child_exited) {
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }

  SweepOptions resume_opts = child_opts;
  resume_opts.resume = true;
  const SweepResult res = run_sweep_ex(small_grid(), resume_opts);
  EXPECT_GE(res.resumed_units, 3u);
  expect_same_run(ref, res);

  // And the recovered checkpoint now covers the whole slice.
  const ShardParse final_ckpt = parse_path(ckpt);
  ASSERT_TRUE(final_ckpt.ok) << final_ckpt.error;
  EXPECT_FALSE(final_ckpt.file.torn());
  EXPECT_EQ(final_ckpt.file.units.size(), res.units.size());
}

}  // namespace
}  // namespace ssbft
