// Tests for ss-Byz-2-Clock (Figure 2): Theorem 2's convergence and the
// lemmas' closure/safety properties, under the adversary gallery.
#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/clock2.h"
#include "harness/convergence.h"
#include "harness/sweep.h"

namespace ssbft {
namespace {

enum class Attack { kSilent, kNoise, kSplit, kAntiCoin };

struct Clock2Param {
  std::uint32_t n;
  std::uint32_t f;
  Attack attack;
};

EngineBundle build_clock2(const Clock2Param& p, std::uint64_t seed,
                          OracleCoinParams coin_params = {0.45, 0.45}) {
  auto beacon = std::make_shared<OracleBeacon>(p.n, coin_params,
                                               Rng(seed).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = p.n;
  cfg.f = p.f;
  cfg.faulty = EngineConfig::last_ids_faulty(p.n, p.f);
  cfg.seed = seed;
  std::unique_ptr<Adversary> adv;
  switch (p.attack) {
    case Attack::kSilent:
      adv = make_silent_adversary();
      break;
    case Attack::kNoise:
      adv = make_random_noise_adversary(8, 32);
      break;
    case Attack::kSplit: {
      ByteWriter a, b;
      a.u8(0);
      b.u8(1);
      adv = make_split_value_adversary(0, std::move(a).take(),
                                       std::move(b).take());
      break;
    }
    case Attack::kAntiCoin:
      adv = make_anti_coin_adversary(beacon, 0);
      break;
  }
  if (p.f == 0) adv = nullptr;
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
  };
  EngineBundle bundle;
  bundle.engine = std::make_unique<Engine>(cfg, factory, std::move(adv));
  bundle.engine->add_listener(beacon.get());
  bundle.keepalive = beacon;
  return bundle;
}

class Clock2ConvergenceTest : public ::testing::TestWithParam<Clock2Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, Clock2ConvergenceTest,
    ::testing::Values(
        Clock2Param{4, 1, Attack::kSilent}, Clock2Param{4, 1, Attack::kNoise},
        Clock2Param{4, 1, Attack::kSplit}, Clock2Param{4, 1, Attack::kAntiCoin},
        Clock2Param{7, 2, Attack::kSilent}, Clock2Param{7, 2, Attack::kSplit},
        Clock2Param{7, 2, Attack::kAntiCoin}, Clock2Param{10, 3, Attack::kSplit},
        Clock2Param{10, 3, Attack::kAntiCoin}, Clock2Param{13, 4, Attack::kSplit},
        Clock2Param{6, 1, Attack::kAntiCoin}, Clock2Param{4, 0, Attack::kSilent}));

TEST_P(Clock2ConvergenceTest, ConvergesFromArbitraryStateAndStaysSynced) {
  // 5 seeds per configuration; every run must converge well within the
  // budget (expected-constant time, and the tail decays geometrically).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto bundle = build_clock2(GetParam(), seed * 101);
    ConvergenceConfig cc;
    cc.max_beats = 3000;
    cc.confirm_window = 16;
    const auto res = measure_convergence(*bundle.engine, cc);
    ASSERT_TRUE(res.converged) << "seed " << seed;
    // Closure: keep running; the 2-clock must alternate deterministically.
    auto prev = bundle.engine->correct_clocks().front();
    for (int i = 0; i < 40; ++i) {
      bundle.engine->run_beat();
      ASSERT_TRUE(clocks_agree(*bundle.engine));
      const auto cur = bundle.engine->correct_clocks().front();
      EXPECT_EQ(cur, (prev + 1) % 2);
      prev = cur;
    }
  }
}

TEST(Clock2, Lemma2UnanimousFlipIsDeterministic) {
  // From a synced state the flip never depends on the coin or adversary
  // messages (Lemma 2): run two worlds with different coin params and
  // different adversaries from the same synced state; both flip alike.
  auto bundle = build_clock2({4, 1, Attack::kSplit}, 5);
  ConvergenceConfig cc;
  cc.max_beats = 2000;
  ASSERT_TRUE(measure_convergence(*bundle.engine, cc).converged);
  auto v = bundle.engine->correct_clocks().front();
  for (int i = 0; i < 20; ++i) {
    bundle.engine->run_beat();
    v = (v + 1) % 2;
    for (auto c : bundle.engine->correct_clocks()) EXPECT_EQ(c, v);
  }
}

TEST(Clock2, ReconvergesAfterTransientCorruption) {
  auto bundle = build_clock2({7, 2, Attack::kSplit}, 9);
  ConvergenceConfig cc;
  cc.max_beats = 2000;
  ASSERT_TRUE(measure_convergence(*bundle.engine, cc).converged);
  // Corrupt two correct nodes' entire state mid-run.
  bundle.engine->corrupt_node(0);
  bundle.engine->corrupt_node(1);
  const auto res2 = measure_convergence(*bundle.engine, cc);
  EXPECT_TRUE(res2.converged);
}

TEST(Clock2, SurvivesPhantomMessagePrefix) {
  auto beacon = std::make_shared<OracleBeacon>(4, OracleCoinParams{0.45, 0.45},
                                               Rng(3).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = {3};
  cfg.seed = 3;
  cfg.faults.network_faulty_until = 10;
  cfg.faults.phantoms_per_beat = 6;
  cfg.faults.faulty_drop_prob = 0.3;
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
  };
  Engine eng(cfg, factory, make_silent_adversary());
  eng.add_listener(beacon.get());
  ConvergenceConfig cc;
  cc.max_beats = 2000;
  EXPECT_TRUE(measure_convergence(eng, cc).converged);
}

TEST(Clock2, ExpectedConvergenceIsConstantAcrossN) {
  // Theorem 2: expected convergence depends on p0, p1 — not on n. Compare
  // mean convergence beats for n = 4 and n = 13 under the same coin.
  auto run_mean = [](std::uint32_t n, std::uint32_t f) {
    RunnerConfig rc;
    rc.trials = 40;
    rc.base_seed = 500;
    rc.convergence.max_beats = 4000;
    const EngineBuilder builder = [&](std::uint64_t seed) {
      return build_clock2({n, f, Attack::kSplit}, seed);
    };
    auto stats = run_sweep({SweepCell{"", builder, rc}}, SweepOptions{})[0];
    EXPECT_EQ(stats.converged, stats.trials);
    return stats.mean;
  };
  const double mean_small = run_mean(4, 1);
  const double mean_large = run_mean(13, 4);
  // Constant-time: the large system may not be more than a small factor
  // slower (generous bound; the paper predicts parity).
  EXPECT_LT(mean_large, std::max(4.0 * mean_small, 40.0));
}

TEST(Clock2, LowCommonCoinSlowsConvergence) {
  // Sensitivity: halving p0+p1 must not speed convergence up; with
  // p0+p1 ~ 0.9 vs 0.1, the gap should be pronounced (Theorem 2's c1^2*c2).
  auto mean_for = [&](OracleCoinParams cp) {
    RunnerConfig rc;
    rc.trials = 30;
    rc.base_seed = 900;
    rc.convergence.max_beats = 20000;
    const EngineBuilder builder = [&](std::uint64_t seed) {
      return build_clock2({7, 2, Attack::kSplit}, seed, cp);
    };
    auto stats = run_sweep({SweepCell{"", builder, rc}}, SweepOptions{})[0];
    EXPECT_EQ(stats.converged, stats.trials);
    return stats.mean;
  };
  const double fast = mean_for({0.45, 0.45});
  const double slow = mean_for({0.05, 0.05});
  EXPECT_GT(slow, fast);
}

TEST(Clock2, LocalCoinDoesNotBreakClosure) {
  // With a local (non-common) coin the algorithm may converge slowly, but
  // once synced, closure is still deterministic (Lemma 2 needs no coin).
  // The oracle at p0 = p1 = 0 is that coin: one independent fair bit per
  // node per beat.
  auto beacon = std::make_shared<OracleBeacon>(4, OracleCoinParams{0, 0},
                                               Rng(21).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 0;
  cfg.seed = 21;
  cfg.faults.randomize_genesis = false;  // start synced on purpose
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
  };
  Engine eng(cfg, factory, nullptr);
  eng.add_listener(beacon.get());
  auto prev = eng.correct_clocks().front();
  for (int i = 0; i < 30; ++i) {
    eng.run_beat();
    ASSERT_TRUE(clocks_agree(eng));
    const auto cur = eng.correct_clocks().front();
    EXPECT_EQ(cur, (prev + 1) % 2);
    prev = cur;
  }
}

TEST(Clock2, FullStackWithFmCoinConverges) {
  // The end-to-end Theorem 1 + Theorem 2 composition: message-level GVSS
  // coin under a Byzantine split attack.
  CoinSpec spec = fm_coin_spec();
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = {3};
  cfg.seed = 55;
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
  };
  ByteWriter a, b;
  a.u8(0);
  b.u8(1);
  Engine eng(cfg, factory,
             make_split_value_adversary(0, std::move(a).take(),
                                        std::move(b).take()));
  ConvergenceConfig cc;
  cc.max_beats = 1500;
  EXPECT_TRUE(measure_convergence(eng, cc).converged);
}

TEST(Clock2, ChannelAccounting) {
  CoinSpec spec = oracle_coin_spec(
      std::make_shared<OracleBeacon>(4, OracleCoinParams{0, 0}, Rng(1)));
  EXPECT_EQ(SsByz2Clock::channels_needed(spec), 1u);
  CoinSpec fm = fm_coin_spec();
  EXPECT_EQ(SsByz2Clock::channels_needed(fm), 5u);
  EXPECT_EQ(SsByz2Clock::channels_needed_external_coin(), 1u);
}

}  // namespace
}  // namespace ssbft
