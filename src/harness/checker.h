// Offline trace verification (the engine of `ssbft_bench check`).
//
// Input: JSONL execution traces written by JsonlTraceSink (sim/trace.h).
// The pipeline is parse -> merge -> check/commit:
//
//   * parse_trace: strict line-by-line decoding of one file. Anything the
//     sink would not emit — malformed JSON, unknown types or keys, missing
//     keys, out-of-range nodes, records from faulty nodes (clock/phase/
//     coin/corrupt are statements about *correct* nodes; a faulty-node
//     record is a forgery), coin bits > 1, non-monotone beats, records
//     before the header — is a decode error, never UB.
//
//   * merge_traces: groups parsed files by (scenario, trial, seed),
//     requires their headers (each a decoded TraceMeta) to be equal, and
//     folds each group into one canonical stream under a total record
//     order (beat, node, event, stream, payload) — independent of how the
//     run was split across files. Post-merge, any beat carrying clock
//     records must carry exactly one per correct node, and every clock
//     record must agree on the modulus.
//
//   * check_trace verifies the paper's invariants on one merged trace:
//       1. convergence: measure_convergence's own streak step
//          (ConvergenceStreak, harness/convergence.h) run over the
//          recorded clocks;
//       2. closure: after a confirmed convergence, every beat's common
//          clock must be previous + 1 (mod k); a recorded transient
//          corruption withdraws the converged claim at its own beat (the
//          randomized internal state may surface as a clock break only
//          beats later), so any break without a preceding corruption is a
//          violation;
//       3. re-convergence bound: with CheckOptions::bound set, the final
//          convergence must start within `bound` beats of its origin: the
//          later of the last corruption and network quiescence
//          (CheckOptions::fault_horizon), or genesis when there is
//          neither — the violation message names which;
//       4. coin agreement: post-convergence, per-(beat, stream) groups of
//          coin records from >= 2 correct nodes must be all-equal at a
//          rate >= CheckOptions::coin_agreement (the common coin's
//          p0 + p1 guarantee, Definition 2.7).
//     A trace that never converges within its budget is *censored*, not
//     failing (Table 1's exponential baselines legitimately time out);
//     CheckOptions::require_convergence upgrades censoring to a violation.
//
//   * trace_commitment / aggregate_commitment: SHA-256 over a canonical
//     re-serialization of the merged stream ("ssbft-trace-v1"). Identical
//     executions yield identical commitments regardless of file naming,
//     formatting, or --jobs scheduling — the replay-exactness oracle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "support/types.h"

namespace ssbft {

// Field-for-field equality: the parts of one run merge only when their
// header lines describe the same run.
bool operator==(const TraceMeta& a, const TraceMeta& b);

struct ParsedTrace {
  TraceMeta header;  // the run's TraceMeta, decoded from its header line
  std::vector<TraceRecord> records;
};

struct ParseResult {
  bool ok = false;
  std::string error;           // empty iff ok
  std::size_t error_line = 0;  // 1-based line of the first error
  ParsedTrace trace;
};

// Decodes one JSONL trace stream. Never throws on bad input; every
// rejection is a structured (error, line) pair.
ParseResult parse_trace(std::istream& in);

struct MergeResult {
  bool ok = false;
  std::string error;  // empty iff ok
  // One canonical trace per (scenario, trial, seed), sorted by that key.
  std::vector<ParsedTrace> traces;
};

MergeResult merge_traces(std::vector<ParsedTrace> parts);

// Opens, parse_traces and merge_traces the files at `paths`: the one
// reader behind `ssbft_bench check` and the sweep's per-unit commitments.
// The first failure is the result's one-line error: "cannot open PATH",
// "PATH:LINE: msg" for a decode error, or merge_traces' own message.
MergeResult read_traces(const std::vector<std::string>& paths);

struct CheckOptions {
  // Required re-convergence bound in beats after the last corruption or
  // fault_horizon, whichever is later (genesis when neither; 0 = don't
  // enforce). Implies the trace must end converged.
  std::uint64_t bound = 0;
  // Treat a censored (never-converged) trace as a violation.
  bool require_convergence = false;
  // Minimum post-convergence all-equal rate for coin groups.
  double coin_agreement = 0.5;
  // Override the header's confirmation window (0 = use the header's,
  // falling back to 12 when the header carries 0).
  std::uint64_t confirm_window = 0;
  // Declared network-fault horizon: beats before this are treated like
  // corruption beats (converged claims withdrawn, no convergence-streak
  // accrual, no closure enforcement) because the run's declared
  // lossy/phantom window or delivery adversary was still active — the
  // synchronous-network assumption the invariants rest on does not hold
  // there. 0 = clean network. FaultPlan::network_quiescence derives the
  // value; live-checked sweeps (harness/sweep.h) set it per unit from the
  // engine's own plan. The re-convergence bound measures from
  // max(last corruption, this horizon).
  std::uint64_t fault_horizon = 0;
};

struct CheckResult {
  bool ok = true;  // no violations
  bool converged = false;  // the trace *ends* in a confirmed converged run
  bool censored = false;   // never converged within the recorded beats
  Beat synced_at = 0;      // start of the final convergence streak
  std::uint64_t beats = 0;  // beats covered by the trace
  Beat last_corruption = 0;
  bool had_corruption = false;
  double coin_agreement_rate = 1.0;  // over post-convergence groups
  std::uint64_t coin_groups = 0;
  // Total violations found; `violations` retains at most the first 32
  // messages, so the count can exceed the list's size.
  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;
};

CheckResult check_trace(const ParsedTrace& trace, const CheckOptions& opts);

// Canonical SHA-256 commitment (64 hex chars) of one merged trace.
std::string trace_commitment(const ParsedTrace& trace);

// Order-independent roll-up: SHA-256 over the sorted per-trace commitments.
std::string aggregate_commitment(std::vector<std::string> commitments);

}  // namespace ssbft
