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
//   --coin      oracle | fm   (clocksync, clock4 and dw-shared; clock2
//                              and cascade run the oracle coin only)
//   --adversary silent | noise | split | skew | adaptive | coinattack
//   --levels    cascade tower height (cascade only; k = 2^levels)
//
// Every run is a (Family, World) pair built by the scenario library's
// build_world, so the engine is the one the registry builds for that world.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness/scenario.h"
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
  std::uint64_t trials = 20;
  std::uint64_t seed = 1;
  std::uint64_t max_beats = 10000;
  bool csv = false;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "error: " << msg << "\n"
            << "usage: ssbft_sim [--algo A] [--coin C] [--adversary X] "
               "[--n N] [--f F] [--k K]\n"
            << "                 [--levels L] [--trials T] [--seed S] "
               "[--max-beats B]\n"
            << "                 [--csv]\n";
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
    else if (a == "--trials") o.trials = std::stoull(need(i));
    else if (a == "--seed") o.seed = std::stoull(need(i));
    else if (a == "--max-beats") o.max_beats = std::stoull(need(i));
    else if (a == "--csv") o.csv = true;
    else if (a == "--help" || a == "-h") usage("(help)");
    else usage(("unknown flag " + a).c_str());
  }
  return o;
}

template <typename T>
T lookup(const std::map<std::string, T>& table, const std::string& key,
         const char* what) {
  const auto it = table.find(key);
  if (it == table.end()) usage(what);
  return it->second;
}

Family family_of(const Options& o) {
  static const std::map<std::string, Family> kAlgos = {
      {"clocksync", Family::kClockSync},
      {"clock2", Family::kClock2},
      {"clock4", Family::kClock4},
      {"cascade", Family::kCascade},
      {"king", Family::kPipelinedKing},
      {"queen", Family::kPipelinedQueen},
      {"dw", Family::kDolevWelch},
      {"dw-shared", Family::kDolevWelchShared},
  };
  return lookup(kAlgos, o.algo, "bad --algo");
}

World world_of(const Options& o, Family fam) {
  static const std::map<std::string, CoinKind> kCoins = {
      {"oracle", CoinKind::kOracle},
      {"fm", CoinKind::kFm},
  };
  static const std::map<std::string, Attack> kAttacks = {
      {"silent", Attack::kSilent},     {"noise", Attack::kNoise},
      {"split", Attack::kSplit},       {"skew", Attack::kSkew},
      {"adaptive", Attack::kAdaptive}, {"coinattack", Attack::kCoinAttack},
  };
  World w;
  w.n = o.n;
  w.f = o.f;
  w.actual = o.f;
  w.k = o.k;
  w.levels = o.levels;
  w.coin = lookup(kCoins, o.coin, "bad --coin");
  w.attack = lookup(kAttacks, o.adversary, "bad --adversary");
  if ((fam == Family::kClock2 || fam == Family::kCascade) &&
      w.coin != CoinKind::kOracle) {
    usage("clock2 and cascade run on the oracle coin only");
  }
  // The modulus the family actually solves (the `k` column).
  if (fam == Family::kClock2) w.k = 2;
  if (fam == Family::kClock4) w.k = 4;
  if (fam == Family::kCascade) w.k = ClockValue{1} << o.levels;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Family fam = family_of(o);
  const World w = world_of(o, fam);
  if (o.f > 0 && o.n <= 3 * o.f &&
      (o.algo != "queen") /* queen fails earlier anyway */) {
    std::cerr << "warning: n <= 3f — expect non-convergence (that may be "
                 "the experiment)\n";
  }

  RunnerConfig rc;
  rc.trials = o.trials;
  rc.base_seed = o.seed;
  rc.convergence.max_beats = o.max_beats;
  const TrialStats stats =
      run_sweep({SweepCell{"", build_world(fam, w), rc}}, SweepOptions{})[0];

  AsciiTable t({"algo", "coin", "adversary", "n", "f", "k", "trials",
                "converged", "mean", "median", "p90", "max", "msgs/beat"});
  t.add_row({o.algo, o.coin, o.adversary, std::to_string(o.n),
             std::to_string(o.f), std::to_string(w.k),
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
