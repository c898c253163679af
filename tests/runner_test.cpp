// Tests for one cell's trials through the sweep scheduler: more jobs than
// units, censored trials, degenerate configs and builder failures.
// Cross-cell and cross-jobs bit-identity is pinned in harness_test.
#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "baselines/dolev_welch.h"
#include "harness/sweep.h"

namespace ssbft {
namespace {

// A real randomized clock whose convergence beat varies with the seed:
// Dolev-Welch at n = 4 is cheap per beat and converges in a few dozen
// beats, giving a nontrivial sample distribution.
EngineBuilder dw_builder(std::uint32_t n, std::uint32_t f, ClockValue k) {
  return [n, f, k](std::uint64_t seed) {
    EngineBundle b;
    EngineConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.faulty = EngineConfig::last_ids_faulty(n, f);
    cfg.seed = seed;
    auto factory = [k](const ProtocolEnv& env, Rng rng) {
      return std::make_unique<DolevWelchClock>(env, k, rng);
    };
    b.engine =
        std::make_unique<Engine>(cfg, factory, make_silent_adversary());
    return b;
  };
}

RunnerConfig base_config(std::uint64_t trials) {
  RunnerConfig rc;
  rc.trials = trials;
  rc.base_seed = 7;
  rc.convergence.max_beats = 400;
  return rc;
}

// A single-cell sweep at the given scheduler width.
TrialStats run_cell(const EngineBuilder& builder, const RunnerConfig& rc,
                    std::uint64_t jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  return run_sweep({SweepCell{"cell", builder, rc}}, opts)[0];
}

void expect_identical(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.samples, b.samples);  // same values in the same (trial) order
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean_msgs_per_beat, b.mean_msgs_per_beat);
}

TEST(Runner, JobsExceedingTrials) {
  const auto builder = dw_builder(4, 1, 8);
  const TrialStats serial = run_cell(builder, base_config(3), 1);
  const TrialStats wide = run_cell(builder, base_config(3), 64);
  expect_identical(serial, wide);
}

TEST(Runner, CensoredTrialsAreAccounted) {
  const auto builder = dw_builder(4, 1, 8);
  // A budget below the confirmation window censors every trial: the
  // detector can never confirm convergence in fewer beats than the window.
  RunnerConfig rc = base_config(6);
  rc.convergence.max_beats = 4;
  rc.convergence.confirm_window = 12;
  const TrialStats s = run_cell(builder, rc, 4);
  EXPECT_EQ(s.trials, 6u);
  EXPECT_EQ(s.converged, 0u);
  EXPECT_TRUE(s.samples.empty());
  EXPECT_EQ(s.convergence_rate(), 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.p90, 0.0);
  EXPECT_EQ(s.max, 0u);
  // Traffic is still measured on censored trials (the beats did run).
  EXPECT_GT(s.mean_msgs_per_beat, 0.0);
}

TEST(Runner, PartialConvergenceSumsToTrials) {
  const auto builder = dw_builder(4, 1, 8);
  const TrialStats s = run_cell(builder, base_config(24), 3);
  EXPECT_EQ(s.trials, 24u);
  EXPECT_EQ(s.samples.size(), s.converged);
  EXPECT_LE(s.converged, s.trials);
  const std::uint64_t censored = s.trials - s.converged;
  EXPECT_DOUBLE_EQ(
      s.convergence_rate(),
      static_cast<double>(s.trials - censored) / static_cast<double>(s.trials));
}

TEST(Runner, ZeroTrialsYieldsZeroedStats) {
  const auto builder = dw_builder(4, 1, 8);
  const TrialStats s = run_cell(builder, base_config(0), 1);
  EXPECT_EQ(s.trials, 0u);
  EXPECT_EQ(s.converged, 0u);
  EXPECT_TRUE(s.samples.empty());
  EXPECT_EQ(s.mean_msgs_per_beat, 0.0);  // no NaN
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.convergence_rate(), 0.0);
  // Same for the parallel path.
  const TrialStats p = run_cell(builder, base_config(0), 8);
  EXPECT_EQ(p.mean_msgs_per_beat, 0.0);
}

TEST(Runner, SamplesReservedToTrialCount) {
  // The merge reserves samples to the trial count before accumulating, so
  // the loop never reallocates — observable as capacity >= trials even
  // when only a subset converges.
  const auto builder = dw_builder(4, 1, 8);
  const TrialStats s = run_cell(builder, base_config(24), 2);
  EXPECT_GE(s.samples.capacity(), s.trials);
}

TEST(Runner, BuilderExceptionPropagatesFromWorkers) {
  const EngineBuilder throwing = [](std::uint64_t seed) -> EngineBundle {
    if (seed >= 10) throw std::runtime_error("builder blew up");
    return dw_builder(4, 1, 8)(seed);
  };
  RunnerConfig rc = base_config(32);
  rc.base_seed = 0;
  EXPECT_THROW(run_cell(throwing, rc, 4), std::runtime_error);
}

}  // namespace
}  // namespace ssbft
