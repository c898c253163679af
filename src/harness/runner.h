// The vocabulary of a multi-trial experiment: how one trial's engine is
// built from its seed, how many trials a cell runs, and the distribution
// statistics they aggregate into. harness/sweep.h runs the trials.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/convergence.h"
#include "sim/engine.h"

namespace ssbft {

// A trial's world: the engine plus anything that must stay alive with it
// (e.g. an OracleBeacon registered as a listener).
struct EngineBundle {
  std::unique_ptr<Engine> engine;
  std::shared_ptr<void> keepalive;
};

// Builds the world for one trial from its seed. Must register any
// listeners on the engine before returning.
using EngineBuilder = std::function<EngineBundle(std::uint64_t seed)>;

struct TrialStats {
  std::uint64_t trials = 0;
  std::uint64_t converged = 0;
  // Statistics over the *converged* trials' convergence beats. Censored
  // (non-converged) trials are reported separately and must be disclosed.
  double mean = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  std::uint64_t max = 0;
  // Mean correct-node messages per beat across trials (traffic cost).
  double mean_msgs_per_beat = 0.0;
  // All converged samples (for tail plots), reserved to the trial count
  // up front so the merge loop never reallocates.
  std::vector<std::uint64_t> samples;

  double convergence_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(converged) /
                             static_cast<double>(trials);
  }
};

struct RunnerConfig {
  std::uint64_t trials = 50;
  // Trial t is seeded base_seed + t.
  std::uint64_t base_seed = 1;
  ConvergenceConfig convergence;
};

}  // namespace ssbft
