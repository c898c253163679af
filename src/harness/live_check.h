// Streaming invariant checking: the `ssbft_bench check` verdicts computed
// incrementally, one beat at a time, in bounded memory.
//
// InvariantCore is the single implementation of the four trace invariants
// (convergence, k-clock closure, re-convergence bound, coin agreement).
// The offline checker (harness/checker.cpp) feeds it a merged trace's
// records; StreamingChecker feeds it live from Engine::set_trace. Both
// paths produce byte-identical CheckResults — same verdicts, same
// violation strings — which tests/trace_test.cpp pins on a traced grid.
// Its convergence streak is measure_convergence's own ConvergenceStreak
// (harness/convergence.h); the core adds only fault-beat and closure
// handling on top. A live-checked sweep unit (SweepOptions::live_check)
// returns the verdict's violation count and retained messages on its
// TrialOutcome, which is all `soak` and `soak --minimize` read.
//
// The streaming formulation replaces the offline checker's unbounded
// coin-group list with four counters maintained relative to the current
// convergence candidate: whenever a new streak starts, the
// post-candidate counters reset, so at finish they hold exactly the
// groups the offline filter (`g.beat <= synced_at` skipped) would keep.
// Everything else is per-beat scratch whose capacity is retained across
// beats, so a green steady-state beat performs no allocation at all —
// tests/alloc_test.cpp pins a traced beat with a StreamingChecker
// attached heap-silent. Violations are the deliberately allocating
// boundary (message formatting), and at most 32 are ever retained.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/checker.h"
#include "harness/convergence.h"
#include "sim/trace.h"

namespace ssbft {

// The shared invariant engine. Feed records in emission order (grouped by
// beat, beats non-decreasing — the canonical order both the engine and
// the offline merge produce), then finish() once to fold the verdict.
class InvariantCore {
 public:
  // Arms the core for one run. header_confirm_window is the traced run's
  // own window (TraceMeta::confirm_window); opts may override it, and 12
  // is the fallback when both are zero.
  void reset(const CheckOptions& opts, std::uint64_t header_confirm_window);

  void feed(const TraceRecord& r);

  // Finalizes the open beat and the run-level checks. Call exactly once
  // per reset(); the returned reference stays valid until the next reset.
  const CheckResult& finish();

  const CheckResult& result() const { return res_; }

 private:
  void finalize_beat();
  void violation(std::string msg);

  CheckOptions opts_;
  std::uint64_t window_ = 12;
  CheckResult res_;

  // measure_convergence's streak rule (harness/convergence.h), plus the
  // closure mode it never needs (it stops at confirmation). Faulted beats
  // and closure breaks cut the streak; beats outside the search still
  // record their common clock as the streak's predecessor.
  enum class Mode { kSearching, kConverged };
  Mode mode_ = Mode::kSearching;
  ConvergenceStreak streak_;
  ClockValue k_ = 0;

  // Coin-agreement counters. `total_*` cover every >=2-node coin group in
  // the run (the censored-trace report); `after_*` cover only groups past
  // the current candidate streak's start and reset whenever a new streak
  // begins, so on a converged finish they equal the offline checker's
  // post-synced_at fold.
  std::uint64_t total_groups_ = 0, total_equal_ = 0;
  std::uint64_t after_groups_ = 0, after_equal_ = 0;

  // Per-beat scratch: one (stream, count, first bit, still-all-equal)
  // accumulator per coin stream seen this beat. clear() keeps capacity.
  struct CoinAcc {
    std::uint32_t stream;
    std::uint32_t count;
    bool first_bit;
    bool equal;
  };
  std::vector<CoinAcc> coin_acc_;

  bool beat_open_ = false;
  Beat cur_beat_ = 0;
  bool corrupt_here_ = false;
  bool have_clocks_ = false;
  bool clocks_common_ = true;
  ClockValue common_value_ = 0;
  bool finished_ = false;
};

// TraceSink adapter: attach via Engine::set_trace and the run is checked
// as it executes — no trace file, no post-processing, bounded memory.
// begin_trace re-arms the core from the run's TraceMeta; call finish()
// (or result() after finish()) when the run's beats are done.
class StreamingChecker final : public TraceSink {
 public:
  explicit StreamingChecker(CheckOptions opts = {}) : opts_(opts) {
    core_.reset(opts_, 0);
  }

  void begin_trace(const TraceMeta& meta) override {
    core_.reset(opts_, meta.confirm_window);
    finished_ = false;
  }

  void write(const TraceRecord* records, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) core_.feed(records[i]);
  }

  // Idempotent: the first call folds the verdict, later calls return it.
  const CheckResult& finish() {
    if (!finished_) {
      core_.finish();
      finished_ = true;
    }
    return core_.result();
  }

 private:
  CheckOptions opts_;
  InvariantCore core_;
  bool finished_ = false;
};

}  // namespace ssbft
