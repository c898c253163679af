// The experiment registry behind the `ssbft_bench` driver: each
// experiment (table1, resiliency, kclock_scaling, ...) is one registered
// table writer over the scenario registry, and the driver runs any of them
// (or any registry scenario cell, by glob).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/sweep.h"

namespace ssbft::bench {

// The driver's `run` / `soak` / `sim` options, parsed in ssbft_bench.cpp.
// A value of 0 means "keep the experiment's per-cell default" (for
// --jobs, 0 means one worker per available CPU, the default).
struct BenchOptions {
  std::uint64_t trials = 0;  // override every cell's trial count
  std::uint64_t seed = 0;    // offset added to every cell's base seed
  std::uint64_t jobs = 0;    // sweep worker threads
  ReportFormat format = ReportFormat::kAscii;
  bool format_set = false;   // --format was given explicitly
  std::string out;           // --out FILE (empty = stdout)
  bool progress = false;     // stderr units-done progress line
  std::string trace;         // --trace DIR: per-(cell, trial) JSONL traces
  // --shard i/k: run only the slice u % k == i of the sweep's global
  // (cell, trial) unit sequence and emit an ssbft-shard-v2 report
  // (scenario globs only; merge the k reports with `ssbft_bench merge`).
  ShardSpec shard;
  // --checkpoint FILE [--resume]: crash-safe sweeps that append one line
  // per completed unit (scenario globs only; see harness/checkpoint.h).
  std::string checkpoint;
  bool resume = false;
};

// --trials / --seed overrides layered on an experiment's defaults.
std::uint64_t trials_or(const BenchOptions& o, std::uint64_t def);
// --seed shifts, rather than replaces, each cell's base seed: the
// per-table offsets (e.g. 2000 + n) keep rows statistically independent
// while a nonzero S yields a fresh independent replication.
std::uint64_t shifted_seed(const BenchOptions& o, std::uint64_t def);

// SweepOptions carrying --jobs, --progress and --trace (the experiment
// tables' and `sim`'s sweeps; scenario globs add the crash-safety knobs).
SweepOptions sweep_options(const BenchOptions& o);

// RunnerConfig for a registry cell: the spec's defaults + the overrides.
RunnerConfig cell_config(const BenchOptions& o, const ScenarioSpec& spec);

// Fetches a registry cell as a SweepCell (REQUIREs the name to exist —
// experiment grids reference only registered scenarios).
SweepCell registry_cell(const BenchOptions& o, const std::string& name);

// Statistic cells shared by the table writers.
std::string stat_cell(const TrialStats& s);
std::string converged_cell(const TrialStats& s);

struct Experiment {
  const char* name;
  const char* summary;
  void (*run)(const BenchOptions&, Report&);
};

// All experiments, in registration (display) order.
const std::vector<Experiment>& experiments();
const Experiment* find_experiment(const std::string& name);

// Resolves --out into the stream the report writes to: stdout when empty,
// else `file` opened at o.out (staged to o.out + ".tmp" and published by
// commit_report_out, so a crashed run never leaves a half-written
// report). Returns nullptr after printing an error when the file cannot
// be opened — callers must validate everything else (e.g. the run
// target) *before* calling, so a failed run never clobbers an existing
// results file.
std::ostream* open_report_out(const BenchOptions& o, AtomicOutFile& file,
                              const char* prog);

// Publishes a report opened by open_report_out (no-op for stdout).
// False after printing an error on I/O failure.
bool commit_report_out(AtomicOutFile& file, const char* prog);

// Driver helper: run an already-matched, non-empty set of registry
// scenarios (see match_scenarios) as one sweep and report a generic
// per-cell table. Taking the matched set lets the driver validate the
// pattern *before* opening/truncating --out. Honors --checkpoint /
// --resume (but not --shard — that is run_shard_cells).
void run_scenario_cells(const std::string& pattern,
                        const std::vector<const ScenarioSpec*>& matched,
                        const BenchOptions& o, Report& report);

// The per-cell scenario table shared by run_scenario_cells and
// merge_shard_reports, so a merged report is byte-identical to the
// unsharded run's. specs and stats are parallel, in cell order.
void render_scenario_table(const std::string& pattern,
                           const std::vector<const ScenarioSpec*>& specs,
                           const std::vector<TrialStats>& stats,
                           Report& report);

// Driver helper: run one shard of a scenario sweep and write the
// ssbft-shard-v2 JSONL report (with per-unit trace commitments when
// --trace is on) to `out`.
void run_shard_cells(const std::string& pattern,
                     const std::vector<const ScenarioSpec*>& matched,
                     const BenchOptions& o, std::ostream& out);

// `ssbft_bench merge`: parse + validate + fold shard reports, then render
// the standard scenario table (or, with commitment_only, print just the
// aggregate trace commitment — `ssbft_bench check --commitment-only`'s
// shape).
// Returns the process exit code; every rejection is one structured
// stderr line.
int merge_shard_reports(const std::vector<std::string>& paths,
                        const BenchOptions& o, bool commitment_only);

// `ssbft_bench soak` knobs (harness/chaos.h drives the sampling).
struct SoakOptions {
  std::uint64_t campaign_seed = 1;
  std::uint64_t units = 64;  // chaos units sampled across the matched cells
  std::uint64_t bound = 0;   // re-convergence bound to enforce (0 = off)
  bool minimize = false;     // delta-debug each violating plan
};

// Driver helper: run a chaos campaign over the matched registry cells —
// unit i perturbs matched[i % matched.size()] with the FaultPlan sampled
// from (campaign_seed, i) — through the sweep scheduler with streaming
// invariant checking, then print one structured repro line per violating
// unit (deterministic across --jobs/--shard/--resume). With
// SoakOptions::minimize, each violating plan is delta-debugged to a
// minimal registrable spec. Returns 0 (green), 1 (violations) or 2
// (environment error).
int run_soak_campaign(const std::string& pattern,
                      const std::vector<const ScenarioSpec*>& matched,
                      const BenchOptions& o, const SoakOptions& soak);

}  // namespace ssbft::bench
