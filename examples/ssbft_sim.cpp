// ssbft_sim — the command-line experiment driver.
//
// Runs any algorithm in the library against any adversary, over many
// seeded trials, and prints a convergence/traffic summary (or CSV). This
// is the tool a downstream user reaches for to answer "what does algorithm
// X do at (n, f, k) under attack Y?" without writing C++.
//
//   ssbft_sim --algo clocksync --n 7 --f 2 --k 60 --adversary skew
//             --coin fm --trials 25 --max-beats 8000 [--csv]
//
//   --algo      clocksync | clock2 | clock4 | cascade | king | queen |
//               dw | dw-shared
//   --coin      oracle | fm | local        (coin-consuming algorithms)
//   --adversary silent | noise | split | skew | adaptive | coinattack
//   --levels    cascade tower height (cascade only; k = 2^levels)
//   --p0/--p1   oracle coin common-event probabilities
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "adversary/adversaries.h"
#include "agreement/phase_king.h"
#include "agreement/phase_queen.h"
#include "agreement/turpin_coan.h"
#include "baselines/dolev_welch.h"
#include "baselines/pipelined_ba_clock.h"
#include "coin/fm_coin.h"
#include "coin/local_coin.h"
#include "coin/oracle_coin.h"
#include "core/cascade.h"
#include "core/clock2.h"
#include "core/clock4.h"
#include "core/clock_sync.h"
#include "harness/sweep.h"
#include "harness/table.h"

using namespace ssbft;

namespace {

struct Options {
  std::string algo = "clocksync";
  std::string coin = "oracle";
  std::string adversary = "skew";
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  ClockValue k = 16;
  std::uint32_t levels = 3;
  double p0 = 0.45, p1 = 0.45;
  std::uint64_t trials = 20;
  std::uint64_t seed = 1;
  std::uint64_t max_beats = 10000;
  bool csv = false;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "error: " << msg << "\n"
            << "usage: ssbft_sim [--algo A] [--coin C] [--adversary X] "
               "[--n N] [--f F] [--k K]\n"
            << "                 [--levels L] [--p0 P] [--p1 P] [--trials T] "
               "[--seed S]\n"
            << "                 [--max-beats B] [--csv]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--algo") o.algo = need(i);
    else if (a == "--coin") o.coin = need(i);
    else if (a == "--adversary") o.adversary = need(i);
    else if (a == "--n") o.n = static_cast<std::uint32_t>(std::stoul(need(i)));
    else if (a == "--f") o.f = static_cast<std::uint32_t>(std::stoul(need(i)));
    else if (a == "--k") o.k = std::stoull(need(i));
    else if (a == "--levels") o.levels = static_cast<std::uint32_t>(std::stoul(need(i)));
    else if (a == "--p0") o.p0 = std::stod(need(i));
    else if (a == "--p1") o.p1 = std::stod(need(i));
    else if (a == "--trials") o.trials = std::stoull(need(i));
    else if (a == "--seed") o.seed = std::stoull(need(i));
    else if (a == "--max-beats") o.max_beats = std::stoull(need(i));
    else if (a == "--csv") o.csv = true;
    else if (a == "--help" || a == "-h") usage("(help)");
    else usage(("unknown flag " + a).c_str());
  }
  return o;
}

EngineBundle build(const Options& o, std::uint64_t seed) {
  EngineBundle b;
  EngineConfig cfg;
  cfg.n = o.n;
  cfg.f = o.f;
  cfg.faulty = EngineConfig::last_ids_faulty(o.n, o.f);
  cfg.seed = seed;

  std::shared_ptr<OracleBeacon> beacon;
  CoinSpec spec;
  if (o.coin == "oracle") {
    beacon = std::make_shared<OracleBeacon>(
        o.n, OracleCoinParams{o.p0, o.p1}, Rng(seed).split("beacon"));
    spec = oracle_coin_spec(beacon);
  } else if (o.coin == "fm") {
    spec = fm_coin_spec();
  } else if (o.coin == "local") {
    spec = local_coin_spec();
  } else {
    usage("bad --coin");
  }

  ProtocolFactory factory;
  ClockValue k = o.k;
  if (o.algo == "clocksync") {
    factory = [spec, k](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<SsByzClockSync>(env, k, spec, rng);
    };
  } else if (o.algo == "clock2") {
    k = 2;
    factory = [spec](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<SsByz2Clock>(env, spec, 0, rng);
    };
  } else if (o.algo == "clock4") {
    k = 4;
    factory = [spec](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<SsByz4Clock>(env, spec, 0, rng);
    };
  } else if (o.algo == "cascade") {
    k = ClockValue{1} << o.levels;
    factory = [spec, levels = o.levels](const ProtocolEnv& env,
                                        Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<CascadeClock>(env, levels, spec, rng);
    };
  } else if (o.algo == "king" || o.algo == "queen") {
    const BaSpec ba = turpin_coan_spec(
        o.algo == "king" ? phase_king_spec() : phase_queen_spec());
    factory = [ba, k](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<PipelinedBaClock>(env, k, ba, rng);
    };
  } else if (o.algo == "dw") {
    factory = [k](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<DolevWelchClock>(env, k, rng);
    };
  } else if (o.algo == "dw-shared") {
    factory = [spec, k](const ProtocolEnv& env, Rng rng) -> std::unique_ptr<Protocol> {
      return std::make_unique<DolevWelchSharedCoin>(env, k, spec, rng);
    };
  } else {
    usage("bad --algo");
  }

  std::unique_ptr<Adversary> adv;
  if (o.f > 0) {
    if (o.adversary == "silent") adv = make_silent_adversary();
    else if (o.adversary == "noise") adv = make_random_noise_adversary(8, 48);
    else if (o.adversary == "split") {
      ByteWriter x, y;
      x.u8(0);
      y.u8(1);
      adv = make_split_value_adversary(0, std::move(x).take(),
                                       std::move(y).take());
    } else if (o.adversary == "skew") {
      adv = make_clock_skew_adversary(k, 0);
    } else if (o.adversary == "adaptive") {
      adv = make_adaptive_quorum_splitter(k, 0);
    } else if (o.adversary == "coinattack") {
      adv = make_fm_coin_attacker(PrimeField::kDefaultPrime, 0);
    } else {
      usage("bad --adversary");
    }
  }

  b.engine = std::make_unique<Engine>(cfg, factory, std::move(adv));
  if (beacon) {
    b.engine->add_listener(beacon.get());
    b.keepalive = beacon;
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.f > 0 && o.n <= 3 * o.f &&
      (o.algo != "queen") /* queen fails earlier anyway */) {
    std::cerr << "warning: n <= 3f — expect non-convergence (that may be "
                 "the experiment)\n";
  }

  RunnerConfig rc;
  rc.trials = o.trials;
  rc.base_seed = o.seed;
  rc.convergence.max_beats = o.max_beats;
  const EngineBuilder builder = [&](std::uint64_t seed) {
    return build(o, seed);
  };
  const TrialStats stats =
      run_sweep({SweepCell{"", builder, rc}}, SweepOptions{})[0];

  AsciiTable t({"algo", "coin", "adversary", "n", "f", "k", "trials",
                "converged", "mean", "median", "p90", "max", "msgs/beat"});
  t.add_row({o.algo, o.coin, o.adversary, std::to_string(o.n),
             std::to_string(o.f), std::to_string(o.k),
             std::to_string(stats.trials), std::to_string(stats.converged),
             fmt_double(stats.mean, 2), fmt_double(stats.median, 1),
             fmt_double(stats.p90, 1), std::to_string(stats.max),
             fmt_double(stats.mean_msgs_per_beat, 1)});
  if (o.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
    if (stats.converged < stats.trials) {
      std::cout << (stats.trials - stats.converged)
                << " trial(s) censored at --max-beats " << o.max_beats
                << " (excluded from the statistics above)\n";
    }
  }
  return 0;
}
