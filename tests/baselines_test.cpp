// Tests for the Table-1 baselines: Dolev-Welch-style randomized clock sync
// and the pipelined-BA deterministic clocks.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/adversaries.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "agreement/phase_king.h"
#include "agreement/phase_queen.h"
#include "agreement/turpin_coan.h"
#include "baselines/dolev_welch.h"
#include "baselines/pipelined_ba_clock.h"
#include "harness/convergence.h"
#include "harness/sweep.h"

namespace ssbft {
namespace {

EngineBundle build_dw(std::uint32_t n, std::uint32_t f, ClockValue k,
                      std::uint64_t seed) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  auto factory = [k](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<DolevWelchClock>(env, k, rng);
  };
  EngineBundle b;
  b.engine = std::make_unique<Engine>(
      cfg, factory, f > 0 ? make_random_noise_adversary(4, 16) : nullptr);
  return b;
}

EngineBundle build_pipelined(const BaInstanceFactory& ba, std::uint32_t n,
                             std::uint32_t f, ClockValue k,
                             std::uint64_t seed, bool skew) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  auto factory = [ba, k](const ProtocolEnv& env, Rng) {
    return std::make_unique<PipelinedBaClock>(env, k, ba);
  };
  EngineBundle b;
  std::unique_ptr<Adversary> adv;
  if (f > 0) {
    adv = skew ? make_clock_skew_adversary(k, 0)
               : make_random_noise_adversary(6, 32);
  }
  b.engine = std::make_unique<Engine>(cfg, factory, std::move(adv));
  return b;
}

TEST(DolevWelch, ConvergesForSmallSystems) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto b = build_dw(4, 1, 4, seed);
    ConvergenceConfig cc;
    cc.max_beats = 50000;
    const auto res = measure_convergence(*b.engine, cc);
    ASSERT_TRUE(res.converged) << seed;
  }
}

TEST(DolevWelch, ClosureIsDeterministicOnceSynced) {
  auto b = build_dw(4, 1, 6, 3);
  ConvergenceConfig cc;
  cc.max_beats = 50000;
  ASSERT_TRUE(measure_convergence(*b.engine, cc).converged);
  auto prev = b.engine->correct_clocks().front();
  for (int i = 0; i < 30; ++i) {
    b.engine->run_beat();
    ASSERT_TRUE(clocks_agree(*b.engine));
    const auto cur = b.engine->correct_clocks().front();
    EXPECT_EQ(cur, (prev + 1) % 6);
    prev = cur;
  }
}

TEST(DolevWelch, ConvergenceDegradesWithScale) {
  // The exponential wall: mean convergence for (n=4, f=1) vs (n=10, f=3)
  // with the same k. The gamble must align ~n-f independent coins.
  auto mean_for = [](std::uint32_t n, std::uint32_t f) {
    RunnerConfig rc;
    rc.trials = 12;
    rc.base_seed = 100;
    rc.convergence.max_beats = 300000;
    const EngineBuilder builder = [&](std::uint64_t seed) {
      return build_dw(n, f, 4, seed);
    };
    auto stats = run_sweep({SweepCell{"", builder, rc}}, SweepOptions{})[0];
    EXPECT_GT(stats.converged, 0u);
    return stats.mean;
  };
  EXPECT_LT(mean_for(4, 1) * 2, mean_for(10, 3));
}

struct PipeCase {
  std::string name;
  std::uint32_t n;
  std::uint32_t f;
  bool skew;
};

class PipelinedClockTest : public ::testing::TestWithParam<PipeCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinedClockTest,
    ::testing::Values(PipeCase{"king", 4, 1, true}, PipeCase{"king", 7, 2, true},
                      PipeCase{"king", 7, 2, false},
                      PipeCase{"king", 10, 3, true},
                      PipeCase{"queen", 5, 1, true},
                      PipeCase{"queen", 9, 2, true},
                      PipeCase{"queen", 9, 2, false}),
    [](const auto& info) {
      return info.param.name + "_n" + std::to_string(info.param.n) + "_f" +
             std::to_string(info.param.f) + (info.param.skew ? "_skew" : "_noise");
    });

TEST_P(PipelinedClockTest, DeterministicConvergenceWithinPipelineDepth) {
  const auto& p = GetParam();
  const BaInstanceFactory ba = turpin_coan_factory(
      p.name == "king" ? phase_king_factory() : phase_queen_factory());
  const int depth = ba(ProtocolEnv{0, p.n, p.f}, 0)->rounds();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto b = build_pipelined(ba, p.n, p.f, 64, seed * 509, p.skew);
    ConvergenceConfig cc;
    cc.max_beats = static_cast<std::uint64_t>(depth) + 64;
    cc.confirm_window = 16;
    const auto res = measure_convergence(*b.engine, cc);
    ASSERT_TRUE(res.converged) << p.name << " seed " << seed;
    // Deterministic O(f): synced within pipeline depth + slack.
    EXPECT_LE(res.synced_at, static_cast<Beat>(depth) + 4);
  }
}

TEST_P(PipelinedClockTest, ClosureHolds) {
  const auto& p = GetParam();
  const BaInstanceFactory ba = turpin_coan_factory(
      p.name == "king" ? phase_king_factory() : phase_queen_factory());
  auto b = build_pipelined(ba, p.n, p.f, 16, 77, p.skew);
  ConvergenceConfig cc;
  cc.max_beats = 500;
  ASSERT_TRUE(measure_convergence(*b.engine, cc).converged);
  auto prev = b.engine->correct_clocks().front();
  for (int i = 0; i < 32; ++i) {
    b.engine->run_beat();
    ASSERT_TRUE(clocks_agree(*b.engine));
    const auto cur = b.engine->correct_clocks().front();
    EXPECT_EQ(cur, (prev + 1) % 16);
    prev = cur;
  }
}

TEST(PipelinedClock, ReconvergesAfterCorruption) {
  const BaInstanceFactory ba = turpin_coan_factory(phase_king_factory());
  auto b = build_pipelined(ba, 7, 2, 32, 13, true);
  ConvergenceConfig cc;
  cc.max_beats = 500;
  ASSERT_TRUE(measure_convergence(*b.engine, cc).converged);
  b.engine->corrupt_node(0);
  b.engine->corrupt_node(1);
  EXPECT_TRUE(measure_convergence(*b.engine, cc).converged);
}

// --- Section 6.1 retrofit: Dolev-Welch on the shared coin -------------------

EngineBundle build_dw_shared(std::uint32_t n, std::uint32_t f, ClockValue k,
                             std::uint64_t seed, bool fm_coin,
                             bool adaptive_splitter = false) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  EngineBundle b;
  std::shared_ptr<OracleBeacon> beacon;
  CoinSpec spec;
  if (fm_coin) {
    spec = fm_coin_spec();
  } else {
    beacon = std::make_shared<OracleBeacon>(n, OracleCoinParams{0.45, 0.45},
                                            Rng(seed).split("beacon"));
    spec = oracle_coin_spec(beacon);
  }
  auto factory = [spec, k](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<DolevWelchSharedCoin>(env, k, spec, rng);
  };
  std::unique_ptr<Adversary> adv;
  if (f > 0) {
    adv = adaptive_splitter ? make_adaptive_quorum_splitter(k, 0)
                            : make_random_noise_adversary(6, 32);
  }
  b.engine = std::make_unique<Engine>(cfg, factory, std::move(adv));
  if (beacon) {
    b.engine->add_listener(beacon.get());
    b.keepalive = beacon;
  }
  return b;
}

struct DwSharedParam {
  std::uint32_t n;
  std::uint32_t f;
  bool fm;
};

class DwSharedCoinTest : public ::testing::TestWithParam<DwSharedParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, DwSharedCoinTest,
                         ::testing::Values(DwSharedParam{4, 1, false},
                                           DwSharedParam{7, 2, false},
                                           DwSharedParam{10, 3, false},
                                           DwSharedParam{13, 4, false},
                                           DwSharedParam{4, 1, true},
                                           DwSharedParam{7, 2, true}));

TEST_P(DwSharedCoinTest, ConvergesFastAndStaysClosed) {
  const auto [n, f, fm] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto b = build_dw_shared(n, f, 8, seed * 613, fm);
    ConvergenceConfig cc;
    cc.max_beats = 2000;
    const auto res = measure_convergence(*b.engine, cc);
    ASSERT_TRUE(res.converged) << "n=" << n << " fm=" << fm << " seed=" << seed;
    auto prev = b.engine->correct_clocks().front();
    for (int i = 0; i < 24; ++i) {
      b.engine->run_beat();
      ASSERT_TRUE(clocks_agree(*b.engine));
      const auto cur = b.engine->correct_clocks().front();
      EXPECT_EQ(cur, (prev + 1) % 8);
      prev = cur;
    }
  }
}

TEST(DwSharedCoin, ExponentialGapVersusLocalCoins) {
  // The Section 6.1 claim, as a test: at n = 10, f = 3, the shared-coin
  // retrofit converges orders of magnitude faster than the local-coin
  // original (measured, same seeds, same adversary class).
  RunnerConfig rc;
  rc.trials = 8;
  rc.base_seed = 300;
  rc.convergence.max_beats = 50000;
  const EngineBuilder local_builder = [](std::uint64_t seed) {
    return build_dw(10, 3, 8, seed);
  };
  auto local =
      run_sweep({SweepCell{"", local_builder, rc}}, SweepOptions{})[0];
  rc.convergence.max_beats = 2000;
  const EngineBuilder shared_builder = [](std::uint64_t seed) {
    return build_dw_shared(10, 3, 8, seed, /*fm=*/false);
  };
  auto shared =
      run_sweep({SweepCell{"", shared_builder, rc}}, SweepOptions{})[0];
  ASSERT_EQ(shared.converged, shared.trials);
  // Compare against converged local trials only (censoring favors local).
  if (local.converged > 0) {
    EXPECT_GT(local.mean, 50.0 * std::max(shared.mean, 1.0));
  } else {
    SUCCEED() << "local-coin DW never converged within budget";
  }
}

TEST(DwSharedCoin, SurvivesAdaptiveQuorumSplitter) {
  // The strongest clock-channel attack cannot hold the retrofit apart:
  // from random genesis the boostable-support window never stabilizes
  // before a common rand = 0 beat collapses everyone onto clock 0.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto b = build_dw_shared(7, 2, 8, seed * 37, /*fm=*/false,
                             /*adaptive_splitter=*/true);
    ConvergenceConfig cc;
    cc.max_beats = 5000;
    EXPECT_TRUE(measure_convergence(*b.engine, cc).converged) << seed;
  }
}

TEST(DwSharedCoin, ReconvergesAfterCorruption) {
  auto b = build_dw_shared(7, 2, 12, 11, /*fm=*/true);
  ConvergenceConfig cc;
  cc.max_beats = 3000;
  ASSERT_TRUE(measure_convergence(*b.engine, cc).converged);
  b.engine->corrupt_node(0);
  b.engine->corrupt_node(1);
  EXPECT_TRUE(measure_convergence(*b.engine, cc).converged);
}

TEST(DwSharedCoin, ChannelAccounting) {
  EXPECT_EQ(DolevWelchSharedCoin::channels_needed(fm_coin_spec()), 5u);
}

TEST(AdaptiveSplitter, DoesNotStopPipelinedKing) {
  const BaInstanceFactory ba = turpin_coan_factory(phase_king_factory());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EngineConfig cfg;
    cfg.n = 7;
    cfg.f = 2;
    cfg.faulty = EngineConfig::last_ids_faulty(7, 2);
    cfg.seed = seed * 41;
    auto factory = [ba](const ProtocolEnv& env, Rng) {
      return std::make_unique<PipelinedBaClock>(env, 16, ba);
    };
    // Aim the splitter at the quorum channel (after the R BA channels).
    const auto clock_ch =
        static_cast<ChannelId>(ba(ProtocolEnv{0, 7, 2}, 0)->rounds());
    Engine eng(cfg, factory, make_adaptive_quorum_splitter(16, clock_ch));
    ConvergenceConfig cc;
    cc.max_beats = 2000;
    EXPECT_TRUE(measure_convergence(eng, cc).converged) << seed;
  }
}

TEST(PipelinedClock, DepthScalesLinearlyWithF) {
  const BaInstanceFactory ba = turpin_coan_factory(phase_king_factory());
  ProtocolEnv e1{0, 4, 1}, e3{0, 10, 3};
  PipelinedBaClock c1(e1, 8, ba);
  PipelinedBaClock c3(e3, 8, ba);
  EXPECT_EQ(c1.pipeline_depth(), 2 + 3 * 2);
  EXPECT_EQ(c3.pipeline_depth(), 2 + 3 * 4);
  EXPECT_GT(c3.pipeline_depth(), c1.pipeline_depth());
}

}  // namespace
}  // namespace ssbft
