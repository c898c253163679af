// Per-beat traffic accounting, used by the message-complexity benchmarks.
//
// Two history modes: unbounded (the default — one BeatTraffic entry per
// beat, suitable for the per-beat experiment plots) and bounded (a ring of
// the most recent `history_limit` beats, so million-beat runs stop growing
// memory and the steady-state beat loop stays allocation-free). Totals and
// per-beat means cover the whole run in both modes.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.h"

namespace ssbft {

struct BeatTraffic {
  std::uint64_t correct_messages = 0;
  std::uint64_t correct_bytes = 0;
  std::uint64_t adversary_messages = 0;
  std::uint64_t adversary_bytes = 0;
  std::uint64_t phantom_messages = 0;
  // Messages lost to the faulty network (FaultPlan::faulty_drop_prob),
  // correct-node and adversary traffic alike.
  std::uint64_t dropped_messages = 0;
  // Messages suppressed by a topology cut — an eclipse allowlist or a
  // partition split (sim/delivery.h) — before the drop lottery.
  std::uint64_t eclipsed_messages = 0;
  // Messages held back by a targeted delay, counted at hold time
  // (they are delivered, late, in a later beat's traffic).
  std::uint64_t delayed_messages = 0;
  // Messages a reorder displaced from their arrival position.
  std::uint64_t reordered_messages = 0;
};

class Metrics {
 public:
  // history_limit = 0: keep every beat. history_limit = k > 0: keep only
  // the most recent k beats in a fixed-size ring.
  explicit Metrics(std::size_t history_limit = 0);

  void begin_beat();
  // Counting before the first begin_beat() is a contract error: there is
  // no current beat to attribute the traffic to.
  void count_phantom();
  void count_dropped();
  void count_eclipsed();
  void count_delayed();
  void count_reordered();
  // Sent traffic, added in bulk: one call per beat (or per node and beat).
  void count_correct_bulk(std::uint64_t messages, std::uint64_t bytes);
  void count_adversary_bulk(std::uint64_t messages, std::uint64_t bytes);

  // Totals across all beats so far.
  const BeatTraffic& total() const { return total_; }
  // Beats started so far (independent of how many are retained).
  std::uint64_t beats_recorded() const { return beats_; }

  // Full per-beat history (entry b = beat b). Only valid in unbounded
  // mode; bounded mode uses retained_*.
  const std::vector<BeatTraffic>& history() const;

  // Mode-agnostic access to the retained window, oldest first. In
  // unbounded mode this is the whole history.
  std::size_t retained_count() const;
  const BeatTraffic& retained(std::size_t i) const;

  std::size_t history_limit() const { return limit_; }

  // Mean correct messages per beat over the whole run.
  double mean_correct_messages_per_beat() const;

 private:
  BeatTraffic& current();

  std::size_t limit_ = 0;
  std::uint64_t beats_ = 0;
  BeatTraffic total_;
  std::vector<BeatTraffic> history_;  // ring when limit_ > 0
};

}  // namespace ssbft
