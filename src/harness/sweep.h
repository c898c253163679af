// Cross-cell sweep scheduler: one global work queue of (cell, trial)
// units feeding a worker pool, so a multi-row table runs at the speed of
// its aggregate work instead of barriering on the slowest cell of each
// row. Determinism contract: trial t of cell c is always seeded
// cell.cfg.base_seed + t and outcomes are merged per cell in trial order,
// so every cell's TrialStats is bit-identical to running that cell alone
// in a single-cell sweep at jobs = 1 — for every jobs value and any
// interleaving.
//
// The same contract extends across processes: `shard` restricts a run to
// the units u with u % count == index, so k shard runs (on k machines)
// merged back together are bit-identical to one serial run; and
// `checkpoint_path`/`resume` persist completed units so a killed sweep
// continues where it stopped, with TrialStats and trace commitments
// bit-identical to an uninterrupted run (harness/checkpoint.h holds the
// one on-disk unit-record format both use).
#pragma once

#include <string>
#include <vector>

#include "harness/checker.h"
#include "harness/checkpoint.h"
#include "harness/runner.h"

namespace ssbft {

// One cell of a sweep grid: a named engine-builder plus its trial config.
struct SweepCell {
  std::string name;
  EngineBuilder builder;
  RunnerConfig cfg;
};

struct SweepOptions {
  // Worker threads over the global unit queue. 1 = serial; 0 = one per
  // available CPU (available_cpus(), sim/engine.h); clamped to 4x that
  // count and to the total unit count. Each unit's engine may run a heavy
  // beat's nodes on up to max(1, available CPUs / jobs) beat workers, so a
  // sweep never oversubscribes the cores.
  std::uint64_t jobs = 1;
  // Opt-in stderr progress line ("sweep: u/N units done" — under an
  // active shard, the slice's units) for long sweeps.
  bool progress = false;
  // When non-empty, every (cell, trial) unit writes a JSONL execution
  // trace (sim/trace.h) to "<trace_dir>/<cell>.t<trial>.jsonl" (cell names
  // sanitized for the filesystem). The directory is created. Tracing never
  // affects results: the same seeds, the same beats, the same TrialStats.
  std::string trace_dir;
  // Run only this slice of the global unit sequence (u % count == index).
  // Seeding stays per-cell (base_seed + trial), so any sharding merges
  // bit-identical to the serial run.
  ShardSpec shard;
  // Compute each unit's SHA-256 trace commitment (requires trace_dir) and
  // return it in SweepUnitResult — the replay-exactness oracle shard
  // reports and checkpoints carry.
  bool collect_commitments = false;
  // When non-empty, record completed units in this ssbft-shard-v2 file:
  // the preamble (shard_header_for(cells, *this, "")) is published
  // tmp-then-rename, then each completed unit appends and flushes one
  // CRC-sealed line, in completion order — so a killed sweep loses at
  // most the unit it was writing and can continue with `resume`.
  std::string checkpoint_path;
  // Replay `checkpoint_path` before running: its valid units are restored
  // (not re-run) and re-published as the new file's prefix, a torn tail
  // is discarded with a warning and recomputed, and a checkpoint whose
  // preamble differs from this sweep's (grid, live-check settings, shard)
  // is a contract_error.
  bool resume = false;
  // Streaming invariant checking (harness/live_check.h): attach a
  // StreamingChecker to every unit and run the *full* beat budget (not
  // stopping at confirmed convergence, so post-convergence closure and
  // late scheduled corruptions stay under scrutiny). converged/synced_at
  // come from the checker's verdict and TrialOutcome::check_violations
  // carries its violation count. Composes with trace_dir (the records tee
  // to both sinks).
  bool live_check = false;
  CheckOptions live_check_opts;
};

// One completed unit, in global unit order within the shard's slice.
struct SweepUnitResult {
  std::uint64_t unit = 0;  // global unit index
  std::uint32_t cell = 0;  // index into the cells vector
  std::uint64_t trial = 0;
  TrialOutcome outcome;
};

struct SweepResult {
  // One TrialStats per cell, in cell order, folded from this run's units
  // in trial order. With an inactive shard this covers every trial; with
  // an active shard, only the slice's (useful for smoke checks — the real
  // cross-shard fold is merge_shard_files).
  std::vector<TrialStats> stats;
  std::vector<SweepUnitResult> units;  // the slice, in unit order
  std::uint64_t total_units = 0;       // whole grid, all shards
  std::uint64_t resumed_units = 0;     // restored from the checkpoint
};

// Runs every (cell, trial) unit of the shard's slice and returns stats
// plus per-unit outcomes. Throws contract_error on unusable options or a
// checkpoint that cannot be resumed safely.
SweepResult run_sweep_ex(const std::vector<SweepCell>& cells,
                         const SweepOptions& opts);

// Runs every (cell, trial) unit and returns one TrialStats per cell, in
// cell order (run_sweep_ex's stats).
std::vector<TrialStats> run_sweep(const std::vector<SweepCell>& cells,
                                  const SweepOptions& opts);

// SHA-256 fingerprint of the sweep's identity: the grid (cell names,
// trial counts, seeds, convergence budgets) and, when live checking is on,
// every CheckOptions setting that can change a verdict (bound,
// require_convergence, coin_agreement, confirm_window) — everything that
// determines unit results. Checkpoints and shard reports embed it so they
// can never be replayed against, or merged into, a different sweep.
// Sweeps without live checking hash the grid alone. Deliberately excludes
// the shard spec: all k shards of one grid share one fingerprint.
std::string sweep_fingerprint(const std::vector<SweepCell>& cells,
                              const SweepOptions& opts);

// The ssbft-shard-v2 preamble describing this sweep and its opts.shard
// slice (cli_seed / cli_trials are left 0 for the caller to stamp).
ShardHeader shard_header_for(const std::vector<SweepCell>& cells,
                             const SweepOptions& opts,
                             const std::string& pattern);

// Folds one cell's outcomes (trial order) into TrialStats — the exact
// fold run_sweep uses, exported so shard merges cannot drift from it.
TrialStats merge_outcomes(const std::vector<TrialOutcome>& outcomes);

}  // namespace ssbft
