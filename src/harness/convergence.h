// Convergence measurement: the k-Clock problem's convergence + closure
// conditions (Definitions 3.1/3.2) turned into a detector.
//
// The system counts as converged at beat r when, at the end of every beat
// from r onward (up to the measurement horizon), all correct clocks are
// equal AND successive beats increment by exactly one mod k. Requiring a
// confirmation window rejects coincidental equality (e.g. an all-? 2-clock
// state) without ever mis-measuring: for every protocol in this library,
// closure after genuine convergence is deterministic.
//
// ConvergenceStreak is that rule, one beat at a time. measure_convergence
// steps it over a live engine; the trace checker's InvariantCore
// (harness/live_check.h) steps the same struct over recorded clocks and
// adds only its fault-beat and closure handling on top.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/engine.h"

namespace ssbft {

struct ConvergenceConfig {
  // Give up after this many beats.
  std::uint64_t max_beats = 10'000;
  // Beats of sustained synced-and-incrementing behavior required before
  // declaring convergence. Must be >= 1 (0 would trivially "converge" on
  // the first beat).
  std::uint64_t confirm_window = 12;
};

struct ConvergenceResult {
  bool converged = false;
  // First beat index (0-based) at the end of which the system was synced
  // and stayed synced. Meaningful only when converged.
  Beat synced_at = 0;
  // Beats actually simulated.
  Beat beats_run = 0;
};

// The streak of beats whose correct clocks agree and step by +1 mod k.
struct ConvergenceStreak {
  std::optional<ClockValue> prev;  // the previous beat's common clock
  std::uint64_t length = 0;        // beats in the current streak
  Beat start = 0;                  // first beat of the current streak

  // Folds beat `b`'s common clock (nullopt when the correct clocks
  // disagree). Returns true when a new streak starts at `b`.
  bool step(Beat b, std::optional<ClockValue> common, ClockValue k);
};

// Runs the engine beat by beat until convergence is confirmed or the
// budget runs out. The engine may have already run some beats.
ConvergenceResult measure_convergence(Engine& engine,
                                      const ConvergenceConfig& cfg = {});

// True iff all correct clocks are currently equal.
bool clocks_agree(const Engine& engine);

}  // namespace ssbft
