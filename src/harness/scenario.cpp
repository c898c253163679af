#include "harness/scenario.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "adversary/adversaries.h"
#include "agreement/phase_king.h"
#include "agreement/phase_queen.h"
#include "agreement/turpin_coan.h"
#include "baselines/dolev_welch.h"
#include "baselines/pipelined_ba_clock.h"
#include "coin/coin_pipeline.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/cascade.h"
#include "core/clock2.h"
#include "core/clock4.h"
#include "core/clock_sync.h"
#include "sim/delivery.h"
#include "support/check.h"

namespace ssbft {

const char* family_name(Family f) {
  switch (f) {
    case Family::kClockSync: return "ss-Byz-Clock-Sync";
    case Family::kClock4: return "ss-Byz-4-Clock";
    case Family::kClock2: return "ss-Byz-2-Clock";
    case Family::kCascade: return "cascade (Sec. 5)";
    case Family::kDolevWelch: return "Dolev-Welch [10]";
    case Family::kDolevWelchShared: return "DW + shared coin";
    case Family::kPipelinedQueen: return "pipelined queen [15]";
    case Family::kPipelinedKing: return "pipelined king [7]";
  }
  return "?";
}

const char* attack_name(Attack a) {
  switch (a) {
    case Attack::kSilent: return "silent";
    case Attack::kNoise: return "noise";
    case Attack::kSplit: return "split";
    case Attack::kSkew: return "skew";
    case Attack::kCoinAttack: return "gvss-attacker";
    case Attack::kAntiCoin: return "anti-coin";
    case Attack::kAdaptive: return "adaptive-splitter";
  }
  return "?";
}

std::unique_ptr<Adversary> make_attack(Attack a, ClockValue k,
                                       ChannelId coin_base,
                                       std::uint32_t noise_msgs) {
  switch (a) {
    case Attack::kSilent:
      return make_silent_adversary();
    case Attack::kNoise:
      return make_random_noise_adversary(noise_msgs, 48);
    case Attack::kSplit: {
      ByteWriter x, y;
      x.u8(0);
      y.u8(1);
      return make_split_value_adversary(0, std::move(x).take(),
                                        std::move(y).take());
    }
    case Attack::kSkew:
      return make_clock_skew_adversary(k, 0);
    case Attack::kCoinAttack:
      return make_fm_coin_attacker(PrimeField::kDefaultPrime, coin_base);
    case Attack::kAdaptive:
      return make_adaptive_quorum_splitter(k, 0);
    case Attack::kAntiCoin:
      SSBFT_REQUIRE_MSG(false,
                        "anti-coin adversary needs the world's oracle beacon "
                        "(only beacon-backed families can build it)");
  }
  return make_silent_adversary();
}

EngineConfig world_config(const World& w, std::uint64_t seed) {
  EngineConfig cfg;
  cfg.n = w.n;
  cfg.f = w.f;
  if (w.faulty_override.empty()) {
    cfg.faulty = EngineConfig::last_ids_faulty(w.n, w.actual);
  } else {
    SSBFT_REQUIRE_MSG(w.faulty_override.size() == w.actual,
                      "faulty_override names "
                          << w.faulty_override.size() << " node(s), world has "
                          << w.actual << " actually-faulty");
    for (NodeId id : w.faulty_override) {
      SSBFT_REQUIRE_MSG(id < w.n, "faulty_override id "
                                      << id << " out of range for n = "
                                      << w.n);
    }
    cfg.faulty = w.faulty_override;
  }
  cfg.seed = seed;
  cfg.faults = w.faults;
  cfg.track_channel_bytes = w.track_channel_bytes;
  return cfg;
}

// The one family builder. The switch supplies what differs per family:
// the protocol factory, the coin, the modulus the attack sees and the
// coin channel base. The beacon, adversary, engine and listener are
// built the same way for every family.
EngineBuilder build_world(Family family, const World& w) {
  return [family, w](std::uint64_t seed) {
    std::shared_ptr<OracleBeacon> beacon;
    auto coin = [&](CoinKind kind) {
      if (kind == CoinKind::kFm) return fm_coin_spec();
      beacon = std::make_shared<OracleBeacon>(w.n, OracleCoinParams{0.45, 0.45},
                                              Rng(seed).split("beacon"));
      return oracle_coin_spec(beacon);
    };
    const CoinPipelineMode mode = w.shared_pipeline
                                      ? CoinPipelineMode::kShared
                                      : CoinPipelineMode::kPerSubClock;
    const ClockValue k = w.k;
    ClockValue attack_k = k;
    ChannelId coin_base = 0;
    ProtocolFactory factory;
    switch (family) {
      case Family::kClockSync: {
        const CoinSpec spec = coin(w.coin);
        coin_base = static_cast<ChannelId>(
            3 + SsByz4Clock::channels_needed(spec, mode));
        factory = [spec, k, mode](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<SsByzClockSync>(env, k, spec, rng, 0, mode);
        };
        break;
      }
      case Family::kClock4: {
        const CoinSpec spec = coin(w.coin);
        attack_k = 4;
        factory = [spec, mode](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<SsByz4Clock>(env, spec, 0, rng, mode);
        };
        break;
      }
      case Family::kClock2: {
        const CoinSpec spec = coin(CoinKind::kOracle);
        attack_k = 2;
        factory = [spec](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
        };
        break;
      }
      case Family::kCascade: {
        const CoinSpec spec = coin(CoinKind::kOracle);
        factory = [spec, levels = w.levels](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<CascadeClock>(env, levels, spec, rng);
        };
        break;
      }
      case Family::kDolevWelch:
        factory = [k](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<DolevWelchClock>(env, k, rng);
        };
        break;
      case Family::kDolevWelchShared: {
        const CoinSpec spec = coin(w.coin);
        factory = [spec, k](const ProtocolEnv& env, Rng rng) {
          return std::make_unique<DolevWelchSharedCoin>(env, k, spec, rng);
        };
        break;
      }
      case Family::kPipelinedQueen:
      case Family::kPipelinedKing: {
        const BaInstanceFactory ba = turpin_coan_factory(
            family == Family::kPipelinedKing ? phase_king_factory()
                                             : phase_queen_factory());
        factory = [ba, k](const ProtocolEnv& env, Rng) {
          return std::make_unique<PipelinedBaClock>(env, k, ba);
        };
        break;
      }
    }

    // kAntiCoin rushes the world's oracle beacon on clock channel 0; every
    // other attack is beacon-free.
    std::unique_ptr<Adversary> adv;
    if (w.actual != 0 && w.attack == Attack::kAntiCoin) {
      SSBFT_REQUIRE_MSG(beacon != nullptr,
                        "anti-coin adversary requires an oracle-coin world");
      adv = make_anti_coin_adversary(beacon, 0);
    } else if (w.actual != 0) {
      adv = make_attack(w.attack, attack_k, coin_base, w.noise_msgs_per_beat);
    }
    EngineBundle b;
    b.engine = std::make_unique<Engine>(world_config(w, seed), factory,
                                        std::move(adv));
    if (beacon) {
      b.engine->add_listener(beacon.get());
      b.keepalive = std::move(beacon);
    }
    return b;
  };
}

EngineBuilder build_scenario(const ScenarioSpec& spec) {
  return build_world(spec.family, spec.world);
}

RunnerConfig scenario_runner_config(const ScenarioSpec& spec) {
  RunnerConfig rc;
  rc.trials = spec.trials;
  rc.base_seed = spec.base_seed;
  rc.convergence.max_beats = spec.max_beats;
  if (spec.confirm_window != 0) rc.convergence.confirm_window = spec.confirm_window;
  return rc;
}

// ---------------------------------------------------------------------------
// Registry. Covers every convergence cell of the experiment tables (the
// steady-state single-engine measurements of coin_quality /
// message_complexity are experiment-internal — they are bit-stream
// and traffic probes, not trial cells) plus the network/transient-fault
// variants that have no bench of their own.

namespace {

std::string world_blurb(Family fam, const World& w) {
  std::ostringstream os;
  os << family_name(fam) << " n=" << w.n << " f=" << w.f;
  if (w.actual != w.f) os << " actual=" << w.actual;
  if (fam == Family::kCascade) {
    os << " k=" << (ClockValue{1} << w.levels);
  } else if (fam != Family::kClock2 && fam != Family::kClock4) {
    os << " k=" << w.k;
  }
  if (w.actual != 0) os << ", " << attack_name(w.attack);
  if (w.coin == CoinKind::kFm &&
      (fam == Family::kClockSync || fam == Family::kClock4 ||
       fam == Family::kDolevWelchShared)) {
    os << ", FM coin";
  }
  if (w.shared_pipeline != 0) os << ", shared pipeline";
  return os.str();
}

std::vector<ScenarioSpec> make_registry() {
  std::vector<ScenarioSpec> specs;
  auto add = [&](std::string name, Family fam, const World& w,
                 std::uint64_t trials, std::uint64_t seed,
                 std::uint64_t max_beats, std::uint64_t confirm = 0) {
    ScenarioSpec s;
    s.name = std::move(name);
    s.summary = world_blurb(fam, w);
    s.family = fam;
    s.world = w;
    s.trials = trials;
    s.base_seed = seed;
    s.max_beats = max_beats;
    s.confirm_window = confirm;
    specs.push_back(std::move(s));
  };

  // --- Table 1 (table1): four families x (n, f), k = 64. --------------
  struct NF {
    std::uint32_t n, f;
  };
  const NF grid[] = {{4, 1}, {7, 2}, {10, 3}, {13, 4}};
  for (const auto [n, f] : grid) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = 64;

    World wd = w;
    wd.attack = Attack::kSplit;
    add("table1/dw/n" + std::to_string(n), Family::kDolevWelch, wd, 10,
        1000 + n, 60000);

    World wq = w;
    wq.f = (n - 1) / 4;  // phase-queen's own legal bound f < n/4
    wq.actual = wq.f;
    wq.attack = Attack::kSkew;
    add("table1/queen/n" + std::to_string(n), Family::kPipelinedQueen, wq, 20,
        2000 + n, 4000);

    World wk = w;
    wk.attack = Attack::kSkew;
    add("table1/king/n" + std::to_string(n), Family::kPipelinedKing, wk, 20,
        3000 + n, 4000);

    World ws = w;
    ws.attack = Attack::kSkew;
    ws.coin = CoinKind::kOracle;
    add("table1/sync/n" + std::to_string(n), Family::kClockSync, ws, 20,
        4000 + n, 8000);
  }
  // Full-stack spot check: the paper's algorithm on the message-level coin.
  for (const auto [n, f] : {NF{4, 1}, NF{7, 2}}) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = 64;
    w.coin = CoinKind::kFm;
    w.attack = Attack::kSkew;
    add("table1/sync-fm/n" + std::to_string(n), Family::kClockSync, w, 10,
        5000 + n, 8000);
  }

  // --- Large-n scaling grid (the table1-large experiment):
  // first cells past n=13, sized to exercise the SIMD field and codec
  // kernels at wide n. f = floor((n-1)/3) is the paper's maximal
  // resilience; trials stay small because a single n=128 FM-coin beat
  // carries n^2 messages with length-n field vectors.
  for (const std::uint32_t n : {32u, 64u, 128u}) {
    World w;
    w.n = n;
    w.f = (n - 1) / 3;
    w.actual = w.f;
    w.k = 64;
    w.attack = Attack::kSkew;

    World wo = w;
    wo.coin = CoinKind::kOracle;
    add("scaling-large/sync/n" + std::to_string(n), Family::kClockSync, wo, 3,
        9000 + n, 8000);

    World wf = w;
    wf.coin = CoinKind::kFm;
    add("scaling-large/sync-fm/n" + std::to_string(n), Family::kClockSync, wf,
        3, 9100 + n, 8000);

    // Gallery adversary at scale: the adaptive quorum splitter, the
    // strongest attacker in the gallery/* cells, on the full
    // FM-coin stack.
    World wa = wf;
    wa.attack = Attack::kAdaptive;
    add("scaling-large/sync-fm/n" + std::to_string(n) + "-adaptive",
        Family::kClockSync, wa, 3, 9200 + n, 8000);
  }

  // --- Resiliency boundaries (resiliency): n = 13, sweep actual. -------
  for (std::uint32_t actual : {0u, 2u, 3u, 4u, 5u}) {
    World wq;
    wq.n = 13;
    wq.f = 3;  // queen assumes its own legal max
    wq.actual = actual;
    wq.k = 16;
    wq.attack = Attack::kSkew;
    add("resiliency/queen/a" + std::to_string(actual), Family::kPipelinedQueen,
        wq, 10, 77, 3000, 24);

    World wk = wq;  // king and the paper assume f = 4
    wk.f = 4;
    add("resiliency/king/a" + std::to_string(actual), Family::kPipelinedKing,
        wk, 10, 77, 3000, 24);
    add("resiliency/sync/a" + std::to_string(actual), Family::kClockSync, wk,
        10, 77, 8000, 24);
  }

  // --- k-scaling (kclock_scaling): n = 4, f = 1, noise. ----------------
  for (std::uint32_t levels = 2; levels <= 8; levels += 2) {
    const ClockValue k = ClockValue{1} << levels;
    World w;
    w.n = 4;
    w.f = 1;
    w.actual = 1;
    w.k = k;
    w.levels = levels;
    w.attack = Attack::kNoise;
    add("kclock/sync/k" + std::to_string(k), Family::kClockSync, w, 15,
        60 + levels, 30000, 2 * k + 8);
    add("kclock/cascade/k" + std::to_string(k), Family::kCascade, w, 15,
        60 + levels, 30000, 2 * k + 8);
  }

  // --- Coin leverage (coin_leverage): k = 8. ---------------------------
  for (const auto [n, f] : {NF{4, 1}, NF{7, 2}, NF{10, 3}}) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = 8;
    w.attack = Attack::kSplit;

    add("leverage/dw-local/n" + std::to_string(n), Family::kDolevWelch, w, 10,
        90 + n, 60000);
    add("leverage/dw-shared/n" + std::to_string(n), Family::kDolevWelchShared,
        w, 20, 90 + n, 4000);
    World wf = w;
    wf.coin = CoinKind::kFm;
    add("leverage/dw-shared-fm/n" + std::to_string(n),
        Family::kDolevWelchShared, wf, 10, 90 + n, 4000);
    World ws = w;
    ws.attack = Attack::kSkew;
    add("leverage/sync/n" + std::to_string(n), Family::kClockSync, ws, 20,
        90 + n, 8000);
  }
  for (const auto [n, f] : {NF{4, 1}, NF{7, 2}}) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = 8;
    w.attack = Attack::kAdaptive;
    add("leverage/adaptive/dw-shared/n" + std::to_string(n),
        Family::kDolevWelchShared, w, 20, 95 + n, 20000);
    add("leverage/adaptive/sync/n" + std::to_string(n), Family::kClockSync, w,
        20, 95 + n, 20000);
  }

  // --- Remark 4.1 ablation (ablation_pipeline): FM coin, noise. --------
  {
    World w;
    w.n = 4;
    w.f = 1;
    w.actual = 1;
    w.k = 32;
    w.attack = Attack::kNoise;
    w.coin = CoinKind::kFm;
    for (bool shared : {false, true}) {
      World wm = w;
      wm.shared_pipeline = shared ? 1 : 0;
      const char* suffix = shared ? "shared" : "per-subclock";
      add(std::string("ablation/clock4/") + suffix, Family::kClock4, wm, 12,
          70, 6000);
      add(std::string("ablation/kclock/") + suffix, Family::kClockSync, wm, 12,
          70, 6000);
    }
  }

  // --- Convergence tail (convergence_tail). ----------------------------
  {
    World w;
    w.n = 4;
    w.f = 1;
    w.actual = 1;
    w.k = 2;
    w.attack = Attack::kSplit;
    add("tail/clock2/n4", Family::kClock2, w, 400, 10, 4000);
    World w13 = w;
    w13.n = 13;
    w13.f = 4;
    w13.actual = 4;
    add("tail/clock2/n13", Family::kClock2, w13, 400, 10, 4000);
    World ws;
    ws.n = 7;
    ws.f = 2;
    ws.actual = 2;
    ws.k = 64;
    ws.attack = Attack::kSkew;
    add("tail/sync/n7", Family::kClockSync, ws, 200, 10, 8000);
  }

  // --- Adversary gallery (gallery/*): 2-clock, n = 7. -----------------
  {
    World w;
    w.n = 7;
    w.f = 2;
    w.actual = 2;
    w.k = 2;
    for (Attack a : {Attack::kSilent, Attack::kNoise, Attack::kSplit,
                     Attack::kAntiCoin}) {
      World wa = w;
      wa.attack = a;
      // The gallery's historical noise world sprays 10 messages/beat
      // (the bench-wide default is 8).
      if (a == Attack::kNoise) wa.noise_msgs_per_beat = 10;
      add(std::string("gallery/") + attack_name(a), Family::kClock2, wa, 40,
          11, 5000);
    }
  }

  // --- Network/transient fault axes (FaultPlan), previously unreachable
  // from any bench: a lossy network, a phantom storm, both at once, and a
  // mid-run corruption schedule (Definition 2.2 / transient faults).
  {
    World w;
    w.n = 7;
    w.f = 2;
    w.actual = 2;
    w.k = 8;
    w.attack = Attack::kSilent;

    World lossy = w;
    lossy.faults.network_faulty_until = 60;
    lossy.faults.faulty_drop_prob = 0.3;
    add("net/lossy", Family::kClockSync, lossy, 20, 1300, 8000);

    World storm = w;
    storm.faults.network_faulty_until = 60;
    storm.faults.phantoms_per_beat = 8;
    storm.faults.phantom_max_len = 64;
    add("net/phantom-storm", Family::kClockSync, storm, 20, 1400, 8000);

    World both = w;
    both.faults.network_faulty_until = 60;
    both.faults.faulty_drop_prob = 0.25;
    both.faults.phantoms_per_beat = 4;
    both.faults.phantom_max_len = 64;
    add("net/lossy-phantom", Family::kClockSync, both, 20, 1500, 8000);

    // Corruptions land inside the convergence window (the k = 8 stack
    // settles in ~10 beats), so the detector's measurement actually spans
    // the re-stabilization — a schedule after confirmed convergence would
    // never run (measure_convergence stops once convergence is certified).
    World corrupt = w;
    corrupt.faults.corruptions[5] = {0, 1};
    corrupt.faults.corruptions[10] = {2};
    add("fault/mid-run-corruption", Family::kClockSync, corrupt, 20, 1600,
        8000);

    // --- Delivery adversaries (sim/delivery.h): adversarial *scheduling*
    // power on top of the loss/phantom axes. Topology attacks heal at
    // beat 40 (self-stabilization measures the post-heal convergence; a
    // permanent eclipse of a correct node would never converge), except
    // reorder, which the inbox's canonical ordering must absorb forever.
    // net/baseline is the same world on the synchronous default — the
    // control row of the delivery experiment.
    add("net/baseline", Family::kClockSync, w, 20, 1690, 8000);

    World eclipse = w;
    eclipse.faults.delivery.kind = DeliveryKind::kEclipse;
    eclipse.faults.delivery.victims = {0};
    eclipse.faults.delivery.allowed_senders = {1, 2};
    eclipse.faults.delivery.heal_at = 40;
    add("net/eclipse", Family::kClockSync, eclipse, 20, 1700, 8000);

    World eclipse_noise = eclipse;
    eclipse_noise.attack = Attack::kNoise;
    add("net/eclipse+noise", Family::kClockSync, eclipse_noise, 20, 1710,
        8000);

    World part = w;
    part.faults.delivery.kind = DeliveryKind::kPartition;
    part.faults.delivery.partition_split = 3;
    part.faults.delivery.heal_at = 40;
    add("net/partition-heal", Family::kClockSync, part, 20, 1720, 8000);

    World part_split = part;
    part_split.attack = Attack::kSplit;
    add("net/partition-heal+split", Family::kClockSync, part_split, 20, 1730,
        8000);

    World delay = w;
    delay.faults.delivery.kind = DeliveryKind::kTargetedDelay;
    delay.faults.delivery.victims = {0, 1};
    delay.faults.delivery.delay_beats = 2;
    delay.faults.delivery.heal_at = 40;
    add("net/targeted-delay", Family::kClockSync, delay, 20, 1740, 8000);

    World delay_skew = delay;
    delay_skew.attack = Attack::kSkew;
    add("net/targeted-delay+skew", Family::kClockSync, delay_skew, 20, 1750,
        8000);

    World reorder = w;
    reorder.faults.delivery.kind = DeliveryKind::kReorder;
    add("net/reorder", Family::kClockSync, reorder, 20, 1760, 8000);

    World reorder_lossy = reorder;
    reorder_lossy.faults.network_faulty_until = 30;
    reorder_lossy.faults.faulty_drop_prob = 0.25;
    add("net/reorder+lossy", Family::kClockSync, reorder_lossy, 20, 1770,
        8000);
  }

  std::sort(specs.begin(), specs.end(),
            [](const ScenarioSpec& a, const ScenarioSpec& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 1; i < specs.size(); ++i) {
    SSBFT_CHECK_MSG(specs[i - 1].name != specs[i].name,
                    "duplicate scenario name " << specs[i].name);
  }
  return specs;
}

void append_id_list(std::ostringstream& os, const std::vector<NodeId>& ids) {
  os << '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ',';
    os << ids[i];
  }
  os << ']';
}

}  // namespace

std::string scenario_detail(const ScenarioSpec& spec) {
  const FaultPlan& fp = spec.world.faults;
  const DeliverySpec& d = fp.delivery;
  std::ostringstream os;
  os << "delivery " << delivery_kind_name(d.kind);
  if (!d.victims.empty()) {
    os << " victims=";
    append_id_list(os, d.victims);
  }
  if (d.kind == DeliveryKind::kEclipse) {
    os << " allowed=";
    append_id_list(os, d.allowed_senders);
  }
  if (d.kind == DeliveryKind::kPartition) os << " split=" << d.partition_split;
  if (d.kind == DeliveryKind::kTargetedDelay) os << " delay=" << d.delay_beats;
  if (d.heal_at != DeliverySpec::kNever) os << " heal@" << d.heal_at;
  os << " | net ";
  if (fp.faulty_drop_prob == 0.0 && fp.phantoms_per_beat == 0) {
    os << "clean";
  } else {
    if (fp.faulty_drop_prob > 0.0) os << "drop=" << fp.faulty_drop_prob;
    if (fp.phantoms_per_beat > 0) {
      if (fp.faulty_drop_prob > 0.0) os << ' ';
      os << "phantoms=" << fp.phantoms_per_beat << "/beat";
    }
    os << " until beat " << fp.network_faulty_until;
  }
  if (!fp.corruptions.empty()) {
    os << " | corrupt";
    for (const auto& [beat, ids] : fp.corruptions) {
      os << " b" << beat << "=";
      append_id_list(os, ids);
    }
  }
  os << " | trials=" << spec.trials << " seed=" << spec.base_seed
     << " max_beats=" << spec.max_beats;
  return os.str();
}

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> registry = make_registry();
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  const auto& reg = scenario_registry();
  const auto it = std::lower_bound(
      reg.begin(), reg.end(), name,
      [](const ScenarioSpec& s, const std::string& n) { return s.name < n; });
  if (it == reg.end() || it->name != name) return nullptr;
  return &*it;
}

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative fnmatch-style matcher with single-star backtracking.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<const ScenarioSpec*> match_scenarios(const std::string& pattern) {
  std::vector<const ScenarioSpec*> out;
  for (const ScenarioSpec& s : scenario_registry()) {
    if (glob_match(pattern, s.name)) out.push_back(&s);
  }
  return out;
}

}  // namespace ssbft
