// Structured experiment reporting: one row model behind every bench.
// An experiment emits prose and tables into a Report; the Report renders
// them as the classic ASCII tables (the default, byte-compatible with the
// historical bench output), RFC-4180 CSV, or JSONL — each row stamped with
// the run metadata (experiment name, seed offset, trial override, jobs).
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>

#include "harness/table.h"

namespace ssbft {

enum class ReportFormat { kAscii, kCsv, kJsonl };

// "ascii" | "csv" | "jsonl" -> format; nullopt on anything else.
std::optional<ReportFormat> parse_report_format(const std::string& s);
const char* report_format_name(ReportFormat f);

// Run metadata stamped onto every structured row. trials/seed/jobs carry
// the CLI-level values (0 = per-scenario defaults / one job per CPU), so
// a row is traceable back to the exact invocation that produced it.
struct RunMeta {
  std::string experiment;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  std::uint64_t jobs = 0;
};

// JSON string-literal escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

// Crash-safe report/artifact output: writes "<path>.tmp" and renames it
// onto the target at commit(), so readers (and a merge picking up shard
// reports) never observe a half-written file. Non-regular targets — pipes,
// /dev/null, character devices — cannot be renamed onto, so those are
// written directly. An AtomicOutFile destroyed without commit() removes
// its temporary and leaves any previous version of the target untouched.
class AtomicOutFile {
 public:
  AtomicOutFile() = default;
  ~AtomicOutFile();
  AtomicOutFile(const AtomicOutFile&) = delete;
  AtomicOutFile& operator=(const AtomicOutFile&) = delete;

  // Opens the output; false on I/O failure. Calling open twice is a bug.
  bool open(const std::string& path);
  bool is_open() const { return out_.is_open(); }
  std::ostream& stream() { return out_; }

  // Flushes and publishes (renames tmp onto the target when staged).
  // False + *error on failure; the temporary is cleaned up either way.
  bool commit(std::string* error = nullptr);

 private:
  std::ofstream out_;
  std::string final_path_;
  std::string tmp_path_;  // empty = direct (non-atomic) write
};

class Report {
 public:
  Report(RunMeta meta, ReportFormat format, std::ostream& out);

  // Free-form prose (section headers, notes). ASCII rendering only; the
  // structured formats carry rows, not narrative.
  void text(const std::string& s);

  // A named table. ASCII: classic fitted-width rendering. CSV: one header
  // line `experiment,table,seed,trials,jobs,<headers...>` then the rows.
  // JSONL: one object per row with the metadata inline and the cells
  // keyed by header under "columns".
  void table(const std::string& id, const AsciiTable& t);

  // The historical trailing "CSV follows:" block of the experiment tables.
  // ASCII mode only — the structured formats already carried the rows.
  void csv_trailer(const AsciiTable& t);

  const RunMeta& meta() const { return meta_; }
  ReportFormat format() const { return format_; }
  std::ostream& out() { return out_; }

 private:
  RunMeta meta_;
  ReportFormat format_;
  std::ostream& out_;
};

}  // namespace ssbft
