// Tests for the one-shot Byzantine agreement substrate: Phase-King
// (f < n/3), Phase-Queen (f < n/4) and the Turpin-Coan multivalued
// reduction — validity and agreement over the real engine with rushing
// adversaries.
#include <gtest/gtest.h>

#include <set>

#include "adversary/adversaries.h"
#include "agreement/phase_king.h"
#include "agreement/phase_queen.h"
#include "agreement/turpin_coan.h"
#include "helpers.h"
#include "sim/engine.h"

namespace ssbft {
namespace {

using testing::OneShotBaProtocol;

// Runs one BA instance to completion; returns the correct nodes' outputs.
std::vector<std::uint64_t> run_ba(
    const BaInstanceFactory& make, std::uint32_t n, std::uint32_t f,
    const std::vector<std::uint64_t>& inputs, std::uint64_t seed,
    std::unique_ptr<Adversary> adversary) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  cfg.faults.randomize_genesis = false;  // one-shot BA is not the SS layer
  auto factory = [&](const ProtocolEnv& env, Rng) {
    return std::make_unique<OneShotBaProtocol>(env, make, inputs[env.self]);
  };
  Engine eng(cfg, factory, std::move(adversary));
  const int rounds = make(ProtocolEnv{0, n, f}, 0)->rounds();
  eng.run_beats(static_cast<std::uint64_t>(rounds));
  std::vector<std::uint64_t> outs;
  for (NodeId id : eng.correct_ids()) {
    const auto& p = dynamic_cast<const OneShotBaProtocol&>(eng.node(id));
    EXPECT_TRUE(p.done());
    outs.push_back(p.output());
  }
  return outs;
}

// Instances that have lived once before: each runs all its rounds on an
// empty inbox, takes a transient fault, and only then is restarted by
// reinit(input) — which must make it behave as a freshly made instance.
BaInstanceFactory recycled(BaInstanceFactory make) {
  return [make](const ProtocolEnv& env, std::uint64_t input) {
    std::unique_ptr<BaInstance> inst = make(env, ~input);
    const int rounds = inst->rounds();
    const Inbox empty(env.n, static_cast<std::uint32_t>(rounds));
    for (int r = 1; r <= rounds; ++r) {
      Outbox out(env.self, env.n);
      inst->send_round(r, out, 0);
      inst->receive_round(r, empty, 0);
    }
    Rng rng(input * 31 + env.self);
    inst->randomize_state(rng);
    inst->reinit(input);
    return inst;
  };
}

struct BaCase {
  std::string name;
  std::uint32_t n;
  std::uint32_t f;
};

BaInstanceFactory factory_by_name(const std::string& name) {
  if (name == "king") return phase_king_factory();
  if (name == "queen") return phase_queen_factory();
  if (name == "tc_king") return turpin_coan_factory(phase_king_factory());
  return turpin_coan_factory(phase_queen_factory());
}

class BaValidityTest : public ::testing::TestWithParam<BaCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaValidityTest,
    ::testing::Values(BaCase{"king", 4, 1}, BaCase{"king", 7, 2},
                      BaCase{"king", 10, 3}, BaCase{"queen", 5, 1},
                      BaCase{"queen", 9, 2}, BaCase{"tc_king", 4, 1},
                      BaCase{"tc_king", 7, 2}, BaCase{"tc_queen", 5, 1},
                      BaCase{"tc_queen", 9, 2}),
    [](const auto& info) {
      return info.param.name + "_n" + std::to_string(info.param.n) + "_f" +
             std::to_string(info.param.f);
    });

TEST_P(BaValidityTest, UnanimousInputIsDecided) {
  const auto& p = GetParam();
  const BaInstanceFactory make = factory_by_name(p.name);
  const bool multivalued = p.name.rfind("tc_", 0) == 0;
  for (std::uint64_t v : std::vector<std::uint64_t>{0, 1, multivalued ? 42u : 1u}) {
    std::vector<std::uint64_t> inputs(p.n, v);
    // A used instance restarted by reinit must decide as a fresh one does.
    for (const BaInstanceFactory& m : {make, recycled(make)}) {
      auto outs =
          run_ba(m, p.n, p.f, inputs, 100 + v,
                 p.f > 0 ? make_random_noise_adversary(8, 32) : nullptr);
      for (auto o : outs) EXPECT_EQ(o, v);
    }
  }
}

TEST_P(BaValidityTest, AgreementUnderMixedInputsAndNoise) {
  const auto& p = GetParam();
  const BaInstanceFactory make = factory_by_name(p.name);
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint64_t> inputs(p.n);
    for (auto& v : inputs) {
      v = p.name.rfind("tc_", 0) == 0 ? rng.next_below(5) : rng.next_below(2);
    }
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    auto noise = [&p] {
      return p.f > 0 ? make_random_noise_adversary(8, 32) : nullptr;
    };
    auto outs = run_ba(make, p.n, p.f, inputs, seed, noise());
    std::set<std::uint64_t> distinct(outs.begin(), outs.end());
    EXPECT_EQ(distinct.size(), 1u) << p.name << " trial " << trial;
    EXPECT_EQ(run_ba(recycled(make), p.n, p.f, inputs, seed, noise()), outs)
        << p.name << " trial " << trial;
  }
}

TEST(PhaseKing, AgreementUnderSplitAdversary) {
  // Equivocating 0/1 on the first universal-exchange channel.
  ByteWriter a, b;
  a.u8(0);
  b.u8(1);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    std::vector<std::uint64_t> inputs = {0, 1, 0, 1, 1, 0, 1};
    auto outs = run_ba(phase_king_factory(), 7, 2, inputs, 2000 + seed,
                       make_split_value_adversary(0, a.data(), b.data()));
    std::set<std::uint64_t> distinct(outs.begin(), outs.end());
    EXPECT_EQ(distinct.size(), 1u);
    EXPECT_LE(*distinct.begin(), 1u);
  }
}

TEST(PhaseQueen, AgreementAtExactResiliencyBound) {
  // n = 4f + 1 is the tightest legal configuration.
  std::vector<std::uint64_t> inputs = {1, 0, 1, 0, 1};
  auto outs = run_ba(phase_queen_factory(), 5, 1, inputs, 3000,
                     make_random_noise_adversary(8, 32));
  std::set<std::uint64_t> distinct(outs.begin(), outs.end());
  EXPECT_EQ(distinct.size(), 1u);
}

TEST(TurpinCoan, MultivaluedValidityWithLargeValues) {
  std::vector<std::uint64_t> inputs(7, 0xdeadbeefcafeULL);
  auto outs = run_ba(turpin_coan_factory(phase_king_factory()), 7, 2, inputs,
                     4000, make_random_noise_adversary(8, 32));
  for (auto o : outs) EXPECT_EQ(o, 0xdeadbeefcafeULL);
}

TEST(TurpinCoan, NoQuorumFallsBackToDefault) {
  // All-distinct inputs: no value can win; every correct node must output
  // the same (default or adopted) value — agreement is what matters.
  std::vector<std::uint64_t> inputs = {10, 20, 30, 40, 50, 60, 70};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto outs = run_ba(turpin_coan_factory(phase_king_factory()), 7, 2, inputs,
                       5000 + seed, make_random_noise_adversary(8, 32));
    std::set<std::uint64_t> distinct(outs.begin(), outs.end());
    EXPECT_EQ(distinct.size(), 1u);
  }
}

TEST(BaInstance, RoundBudgets) {
  const ProtocolEnv f1{0, 7, 1};
  const ProtocolEnv f2{0, 7, 2};
  EXPECT_EQ(phase_king_factory()(f2, 0)->rounds(), 9);
  EXPECT_EQ(phase_queen_factory()(f2, 0)->rounds(), 6);
  EXPECT_EQ(turpin_coan_factory(phase_king_factory())(f2, 0)->rounds(), 11);
  EXPECT_EQ(turpin_coan_factory(phase_queen_factory())(f1, 0)->rounds(), 6);
}

}  // namespace
}  // namespace ssbft
