// Robustness fuzzing: every protocol stack is bombarded with structured
// and unstructured Byzantine garbage — random bytes, truncated encodings,
// hostile length prefixes, duplicate floods, non-canonical field elements —
// across every channel, plus phantom storms and repeated transient
// corruption. Invariants under test:
//
//   1. no crash / no contract violation anywhere in the stack (Byzantine
//      input is never trusted);
//   2. determinism is preserved (same seed, same trace) even under fuzz;
//   3. once the garbage stops (silent suffix), the system still converges.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "adversary/adversaries.h"
#include "harness/chaos.h"
#include "harness/checker.h"
#include "harness/checkpoint.h"
#include "agreement/phase_king.h"
#include "agreement/turpin_coan.h"
#include "baselines/dolev_welch.h"
#include "baselines/pipelined_ba_clock.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/cascade.h"
#include "core/clock_sync.h"
#include "harness/convergence.h"
#include "harness/runner.h"

namespace ssbft {
namespace {

// An adversary emitting maximally malformed traffic: wrong widths, huge
// length prefixes, sentinel-adjacent field values, duplicate floods, and
// occasional valid-looking fragments, on every channel.
class FuzzAdversary final : public Adversary {
 public:
  explicit FuzzAdversary(std::uint32_t intensity) : intensity_(intensity) {}

  void act(AdversaryContext& ctx) override {
    for (NodeId from : ctx.faulty()) {
      for (std::uint32_t i = 0; i < intensity_; ++i) {
        const auto to = static_cast<NodeId>(ctx.rng().next_below(ctx.n()));
        const auto ch = static_cast<ChannelId>(
            ctx.rng().next_below(std::max<std::uint32_t>(ctx.channel_count(), 1)));
        ctx.send(from, to, ch, craft(ctx.rng()));
        if (ctx.rng().next_bernoulli(0.3)) {
          // Duplicate flood: same channel, same recipient, conflicting data.
          ctx.send(from, to, ch, craft(ctx.rng()));
          ctx.send(from, to, ch, craft(ctx.rng()));
        }
      }
    }
  }

 private:
  Bytes craft(Rng& rng) {
    ByteWriter w;
    switch (rng.next_below(10)) {
      case 0:  // empty payload
        break;
      case 1:  // single byte (valid-ish for tri-state channels)
        w.u8(static_cast<std::uint8_t>(rng.next_below(256)));
        break;
      case 2:  // hostile length prefix with no body
        w.u32(0xffffffffu);
        break;
      case 3: {  // a u32 length word, then that many random u64s
        const auto len = static_cast<std::uint32_t>(rng.next_below(64));
        w.u32(len);
        for (std::uint32_t i = 0; i < len; ++i) w.u64(rng.next_u64());
        break;
      }
      case 4:  // non-canonical field elements around the modulus
        w.u32(4);
        for (std::uint64_t x : {PrimeField::kDefaultPrime,
                                PrimeField::kDefaultPrime + 1,
                                ~std::uint64_t{0}, std::uint64_t{0}}) {
          w.u64(x);
        }
        break;
      case 5: {  // a u32 length word, then that many random bytes
        const auto len = static_cast<std::uint32_t>(rng.next_below(100));
        w.u32(len);
        for (std::uint32_t i = 0; i < len; ++i) {
          w.u8(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        break;
      }
      case 6: {  // well-formed masked field vector, sentinels included
        // The absent rate is drawn per vector, so some vectors have long
        // present runs (0xFF mask bytes, the codec's direct block path)
        // and others mix full and partial bytes.
        std::vector<std::uint64_t> v(rng.next_below(40));
        const double absent_rate = rng.next_below(3) * 0.2;  // 0, 0.2, 0.4
        for (auto& x : v) {
          x = rng.next_bernoulli(absent_rate)
                  ? PrimeField::kDefaultPrime
                  : rng.next_below(PrimeField::kDefaultPrime);
        }
        w.masked_u64_vec(v.data(), v.size(), PrimeField::kDefaultPrime, 61);
        break;
      }
      case 7: {  // masked-format garbage: random mask bytes, random tail
        const std::size_t mask_bytes = rng.next_below(4);
        for (std::size_t i = 0; i < mask_bytes; ++i) {
          w.u8(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        const std::size_t tail = rng.next_below(24);
        for (std::size_t i = 0; i < tail; ++i) {
          w.u8(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        break;
      }
      case 8: {  // bitmask with hostile padding bits
        const std::size_t nbytes = 1 + rng.next_below(3);
        for (std::size_t i = 0; i < nbytes; ++i) w.u8(0xff);
        break;
      }
      default:  // truncated multi-field encoding
        w.u8(1);
        w.u8(0xad);
        w.u8(0xde);
        break;
    }
    return std::move(w).take();
  }

  std::uint32_t intensity_;
};

enum class Stack { kClockSync, kCascade, kPipelinedKing, kDwShared };

EngineBundle build_stack(Stack which, std::uint32_t n, std::uint32_t f,
                         std::uint64_t seed, std::uint32_t fuzz_intensity) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  cfg.faults.network_faulty_until = 5;
  cfg.faults.phantoms_per_beat = 6;
  cfg.faults.corruptions[17] = {0};
  cfg.faults.corruptions[23] = {1};
  EngineBundle b;
  CoinSpec spec = fm_coin_spec();
  ProtocolFactory factory;
  switch (which) {
    case Stack::kClockSync:
      factory = [spec](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
        return std::make_unique<SsByzClockSync>(env, 12, spec, rng);
      };
      break;
    case Stack::kCascade:
      factory = [spec](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
        return std::make_unique<CascadeClock>(env, 2, spec, rng);
      };
      break;
    case Stack::kPipelinedKing:
      factory = [](const ProtocolEnv& env, Rng) -> std::unique_ptr<Protocol> {
        return std::make_unique<PipelinedBaClock>(
            env, 12, turpin_coan_factory(phase_king_factory()));
      };
      break;
    case Stack::kDwShared:
      factory = [spec](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
        return std::make_unique<DolevWelchSharedCoin>(env, 12, spec, rng);
      };
      break;
  }
  b.engine = std::make_unique<Engine>(
      cfg, factory, std::make_unique<FuzzAdversary>(fuzz_intensity));
  return b;
}

struct FuzzParam {
  Stack stack;
  std::uint32_t n, f;
  const char* name;
};

class FuzzTest : public ::testing::TestWithParam<FuzzParam> {};

INSTANTIATE_TEST_SUITE_P(
    Stacks, FuzzTest,
    ::testing::Values(FuzzParam{Stack::kClockSync, 4, 1, "clocksync"},
                      FuzzParam{Stack::kClockSync, 7, 2, "clocksync7"},
                      FuzzParam{Stack::kCascade, 4, 1, "cascade"},
                      FuzzParam{Stack::kPipelinedKing, 4, 1, "king"},
                      FuzzParam{Stack::kPipelinedKing, 7, 2, "king7"},
                      FuzzParam{Stack::kDwShared, 4, 1, "dwshared"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(FuzzTest, NeverCrashesUnderGarbageStorm) {
  const auto& p = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto b = build_stack(p.stack, p.n, p.f, seed * 7919, /*intensity=*/12);
    // 120 beats of full-intensity garbage + phantoms + mid-run corruption.
    EXPECT_NO_THROW(b.engine->run_beats(120)) << "seed " << seed;
    // Clocks stay in range throughout.
    for (ClockValue c : b.engine->correct_clocks()) EXPECT_LT(c, 12u);
  }
}

TEST_P(FuzzTest, DeterministicUnderFuzz) {
  const auto& p = GetParam();
  auto trace = [&](std::uint64_t seed) {
    auto b = build_stack(p.stack, p.n, p.f, seed, 8);
    std::vector<ClockValue> t;
    for (int i = 0; i < 50; ++i) {
      b.engine->run_beat();
      for (auto c : b.engine->correct_clocks()) t.push_back(c);
    }
    return t;
  };
  EXPECT_EQ(trace(4242), trace(4242));
}

TEST_P(FuzzTest, ConvergesOnceGarbageMeetsItsBudget) {
  // The fuzzer IS a (dumb) Byzantine adversary within the f bound, so the
  // protocols must converge while it runs.
  const auto& p = GetParam();
  auto b = build_stack(p.stack, p.n, p.f, 31337, 8);
  b.engine->run_beats(30);  // ride out the scheduled corruption window
  ConvergenceConfig cc;
  cc.max_beats = 4000;
  EXPECT_TRUE(measure_convergence(*b.engine, cc).converged);
}

TEST(FuzzChecker, DecoderNeverCrashesOnMutatedTraces) {
  // Serialize a real traced run (corruptions, phantoms and fuzz traffic
  // included), then hammer the offline decoder with truncations, byte
  // flips, insertions and raw garbage. Every outcome must be a structured
  // accept-or-reject — never a crash, never UB.
  auto b = build_stack(Stack::kClockSync, 4, 1, 99, 4);
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceMeta meta;
  meta.scenario = "fuzz";
  meta.seed = 99;
  meta.n = 4;
  meta.f = 1;
  meta.faulty = {3};
  meta.max_beats = 30;
  meta.confirm_window = 12;
  sink.begin_trace(meta);
  b.engine->set_trace(&sink);
  b.engine->run_beats(30);
  const std::string good = out.str();
  {
    std::istringstream in(good);
    EXPECT_TRUE(parse_trace(in).ok);
  }

  Rng rng(2024);
  for (int iter = 0; iter < 400; ++iter) {
    std::string s = good;
    switch (rng.next_below(4)) {
      case 0:  // truncate anywhere, mid-line included
        s.resize(rng.next_below(s.size() + 1));
        break;
      case 1:  // overwrite one byte
        if (!s.empty()) {
          s[rng.next_below(s.size())] =
              static_cast<char>(rng.next_below(256));
        }
        break;
      case 2:  // insert one byte
        s.insert(rng.next_below(s.size() + 1), 1,
                 static_cast<char>(rng.next_below(256)));
        break;
      default: {  // unstructured garbage
        s.clear();
        const std::size_t len = rng.next_below(2000);
        for (std::size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(rng.next_below(256)));
        }
        break;
      }
    }
    std::istringstream in(s);
    ParseResult r = parse_trace(in);
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty());
      continue;
    }
    // A mutation that still parses must also merge, check and hash
    // without incident (merge may legitimately reject it).
    std::vector<ParsedTrace> parts;
    parts.push_back(std::move(r.trace));
    MergeResult m = merge_traces(std::move(parts));
    if (!m.ok) {
      EXPECT_FALSE(m.error.empty());
      continue;
    }
    for (const ParsedTrace& t : m.traces) {
      (void)check_trace(t, CheckOptions{});
      EXPECT_EQ(trace_commitment(t).size(), 64u);
    }
  }
}

// Mutate a real ssbft-shard-v2 file through the one unit-record reader,
// in both of its uses, with its intact sibling shard alongside:
//   * resume mode — a parse must be a structured reject, or an accept
//     whose surviving units all honor the preamble's grid and shard (the
//     CRC tears damaged lines off);
//   * merge mode — an accepted file must either be refused by the merge
//     with a structured error (always, when torn) or fold into a result
//     whose shape matches its header.
// Never a crash, never UB, never a silently wrong unit.
TEST(FuzzShard, ParserAndMergeNeverCrashOnMutatedReports) {
  ShardHeader h;
  h.pattern = "gallery/*";
  h.shard = ShardSpec{0, 2};
  h.fingerprint = std::string(64, 'c');
  h.total_units = 8;
  h.cli_seed = 7;
  h.cli_trials = 3;
  h.cells.push_back(ShardCellInfo{"cell-a", 3, 100});
  h.cells.push_back(ShardCellInfo{"cell-b", 5, 200});
  const auto shard_text = [&](std::uint64_t index) {
    ShardHeader mine = h;
    mine.shard.index = index;
    std::string text = encode_shard_header(mine);
    for (std::uint64_t u = index; u < h.total_units; u += 2) {
      ShardUnitRow row;
      row.unit = u;
      row.cell = u < 3 ? 0u : 1u;
      row.trial = u < 3 ? u : u - 3;
      row.outcome.converged = (u % 3) != 0;
      row.outcome.synced_at = 10 + u;
      row.outcome.msgs_per_beat = 0.5 + static_cast<double>(u) * 0.3;
      if (u % 4 == 2) row.outcome.check_violations = u;
      text += encode_shard_unit(row);
    }
    return text;
  };
  const std::string good = shard_text(0);
  const std::string sibling = shard_text(1);
  ShardFile sibling_file;
  {
    std::istringstream in(sibling);
    ShardParse p = parse_shard_file(in);
    ASSERT_TRUE(p.ok) << p.error;
    sibling_file = std::move(p.file);
  }
  {
    std::istringstream in(good);
    const ShardParse p = parse_shard_file(in);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(p.file.torn());
    EXPECT_EQ(p.file.units.size(), 4u);
  }

  Rng rng(8192);
  for (int iter = 0; iter < 800; ++iter) {
    std::string s = good;
    switch (rng.next_below(4)) {
      case 0:  // truncate anywhere, mid-line included
        s.resize(rng.next_below(s.size() + 1));
        break;
      case 1:  // overwrite one byte
        if (!s.empty()) {
          s[rng.next_below(s.size())] =
              static_cast<char>(rng.next_below(256));
        }
        break;
      case 2:  // insert one byte
        s.insert(rng.next_below(s.size() + 1), 1,
                 static_cast<char>(rng.next_below(256)));
        break;
      default: {  // unstructured garbage
        s.clear();
        const std::size_t len = rng.next_below(2000);
        for (std::size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(rng.next_below(256)));
        }
        break;
      }
    }
    std::istringstream in(s);
    ShardParse p = parse_shard_file(in);
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty());
      continue;
    }

    // Resume mode: whatever survived satisfies the preamble it came with.
    const ShardFile& f = p.file;
    for (const ShardUnitRow& row : f.units) {
      EXPECT_LT(row.unit, f.header.total_units);
      EXPECT_EQ(row.unit % f.header.shard.count, f.header.shard.index);
      ASSERT_LT(row.cell, f.header.cells.size());
      EXPECT_LT(row.trial, f.header.cells[row.cell].trials);
      EXPECT_TRUE(row.outcome.trace_commitment.empty() ||
                  row.outcome.trace_commitment.size() == 64u);
    }

    // Merge mode.
    const bool torn = f.torn();
    std::vector<ShardFile> files;
    files.push_back(std::move(p.file));
    files.push_back(sibling_file);
    const ShardMerge m = merge_shard_files(std::move(files));
    if (torn) {
      EXPECT_FALSE(m.ok);
    }
    if (!m.ok) {
      EXPECT_FALSE(m.error.empty());
      continue;
    }
    ASSERT_EQ(m.per_cell.size(), m.header.cells.size());
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < m.per_cell.size(); ++c) {
      EXPECT_EQ(m.per_cell[c].size(), m.header.cells[c].trials);
      total += m.per_cell[c].size();
    }
    EXPECT_EQ(total, m.header.total_units);
    if (m.have_commitments) {
      EXPECT_EQ(m.commitments.size(), m.header.total_units);
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos sampler fuzz: the campaign generator must hold its contract over
// random corners of its input space — every draw validate()-clean against
// its world, every re-draw byte-identical (same canonical encoding, same
// digest), and every delta-debugging candidate still valid.

TEST(FuzzChaos, FourHundredDrawsValidateCleanAndRedrawByteIdentical) {
  Rng rng(777);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint64_t campaign = rng.next_u64();
    const std::uint64_t index = rng.next_below(1u << 16);
    const auto n = static_cast<std::uint32_t>(4 + rng.next_below(13));
    const auto actual = static_cast<std::uint32_t>(
        1 + rng.next_below(std::max<std::uint32_t>((n - 1) / 3, 1)));
    const std::uint64_t max_beats = 100 + rng.next_below(10000);

    const FaultPlanGenerator gen(campaign);
    const ChaosUnit unit = gen.make_unit(index, "fuzz/unit", n, actual,
                                         max_beats);
    EXPECT_NO_THROW(unit.plan.validate(n)) << "iter " << iter;
    EXPECT_EQ(unit.faulty.size(), actual);
    for (NodeId id : unit.faulty) EXPECT_LT(id, n);
    EXPECT_EQ(unit.campaign_seed, campaign);
    EXPECT_EQ(unit.index, index);

    // A fresh generator re-drawing the same (seed, index) must reproduce
    // the unit byte for byte — the identity every repro line relies on.
    const ChaosUnit redraw = FaultPlanGenerator(campaign).make_unit(
        index, "fuzz/unit", n, actual, max_beats);
    EXPECT_EQ(encode_chaos_unit(redraw), encode_chaos_unit(unit));
    EXPECT_EQ(chaos_unit_digest(redraw), chaos_unit_digest(unit));
    EXPECT_EQ(chaos_unit_digest(unit).size(), 64u);
  }
}

// The sampler's draws are part of every campaign's identity: a repro line
// names (campaign seed, unit, plan digest), so the same triple must keep
// drawing the same plan. These digests pin one draw per delivery kind
// across world shapes; any change to a sampling bound or the order of
// draws moves at least one of them.
TEST(FuzzChaos, SamplerDrawsArePinned) {
  struct Draw {
    std::uint64_t campaign, index;
    const char* scenario;
    std::uint32_t n, actual;
    std::uint64_t max_beats;
    DeliveryKind kind;
    const char* digest;
  };
  const Draw draws[] = {
      {1, 0, "net/eclipse", 7, 2, 8000, DeliveryKind::kEclipse,
       "842f49d37d6c8d37d580d2f2ad4493dc6ad668158b5eb6c14ee8863c462af359"},
      {1, 1, "gallery/split", 7, 2, 5000, DeliveryKind::kPartition,
       "328d7c7e79524cdb9e976389774f1a0c821c1f6bd233e181bc6d7f8435e2fa36"},
      {1, 2, "net/reorder", 7, 2, 8000, DeliveryKind::kReorder,
       "a9a7b40c6a74bf157ebcea7a27e539f99c53cd8ebbe6a9cf39cb95ff63e9cfea"},
      {1, 3, "table1/sync/n4", 4, 1, 400, DeliveryKind::kTargetedDelay,
       "86cd4fdee1b50ccdc1d14631bec4e5a2e3b79596ad8b442d64ec69c5d075ba4c"},
      {3, 5, "net/baseline", 7, 2, 8000, DeliveryKind::kSynchronous,
       "9eb2e78155938fbbaf7d969635e95adbf7749ba49f387aabac86a38279fb7d20"},
      {42, 0, "table1/sync/n13", 13, 4, 20000, DeliveryKind::kTargetedDelay,
       "9269e6338fd2bfe18bd84583d413ec3141686c06319c7e4c83569ed6ea70d15b"},
  };
  for (const Draw& d : draws) {
    const ChaosUnit unit = FaultPlanGenerator(d.campaign).make_unit(
        d.index, d.scenario, d.n, d.actual, d.max_beats);
    SCOPED_TRACE(encode_chaos_unit(unit));
    EXPECT_EQ(unit.plan.delivery.kind, d.kind);
    EXPECT_EQ(chaos_unit_digest(unit), d.digest);
  }
}

TEST(FuzzChaos, EveryMinimizerCandidateStaysValid) {
  Rng rng(778);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t campaign = rng.next_u64();
    const auto n = static_cast<std::uint32_t>(4 + rng.next_below(13));
    const auto actual = static_cast<std::uint32_t>(
        1 + rng.next_below(std::max<std::uint32_t>((n - 1) / 3, 1)));
    const ChaosUnit unit = FaultPlanGenerator(campaign).make_unit(
        rng.next_below(1u << 16), "fuzz/unit", n, actual,
        100 + rng.next_below(10000));
    for (const FaultPlan& cand : chaos_reductions(unit.plan)) {
      EXPECT_NO_THROW(cand.validate(n)) << "iter " << iter;
    }
  }
}

TEST(FuzzCodec, ProtocolsIgnoreSelfTargetedGarbageChannels) {
  // Garbage on channels the protocol does not use must be invisible:
  // run two engines, one whose adversary also sprays far-off channel ids
  // (dropped by the inbox), and compare correct-node traces.
  auto run = [](bool spray_unknown) {
    EngineConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.faulty = {3};
    cfg.seed = 5;
    CoinSpec spec = fm_coin_spec();
    auto factory = [spec](const ProtocolEnv& env, Rng rng) {
      return std::make_unique<SsByzClockSync>(env, 8, spec, rng);
    };
    class UnknownChannelAdversary final : public Adversary {
     public:
      explicit UnknownChannelAdversary(bool spray) : spray_(spray) {}
      void act(AdversaryContext& ctx) override {
        if (!spray_) return;
        for (NodeId from : ctx.faulty()) {
          // Channel ids beyond the stack's layout: must be dropped.
          ctx.broadcast(from, static_cast<ChannelId>(60000), Bytes{1, 2, 3});
        }
      }
      bool spray_;
    };
    Engine eng(cfg, factory,
               std::make_unique<UnknownChannelAdversary>(spray_unknown));
    std::vector<ClockValue> t;
    for (int i = 0; i < 40; ++i) {
      eng.run_beat();
      for (auto c : eng.correct_clocks()) t.push_back(c);
    }
    return t;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ssbft
