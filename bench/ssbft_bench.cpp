// The experiment driver: one binary in front of the whole experiment
// subsystem. `list` names every registered experiment and scenario cell;
// `run` executes an experiment by name or any set of scenario cells by
// glob, scheduling all (cell, trial) units through one global sweep
// queue — optionally one shard of it (--shard i/k) with crash-safe
// checkpoints (--checkpoint/--resume); `merge` folds shard reports back
// into the unsharded table, bit for bit; `soak` drives seed-driven chaos
// campaigns (harness/chaos.h) over the matched scenarios with streaming
// invariant checking and optional repro minimization; `check` verifies
// `--trace` output offline against the paper's invariants and prints its
// SHA-256 commitments (harness/checker.h); `sim` runs one ad-hoc
// (algorithm, world) cell that no registry name covers. It is the only
// front end of the experiment registry (experiments.h): the paper's tables
// are `ssbft_bench run table1`, `run resiliency`, `run kclock_scaling`, ...
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "experiments.h"
#include "harness/checker.h"
#include "support/check.h"

using namespace ssbft;
using namespace ssbft::bench;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: ssbft_bench <command> [...]\n"
        "  list [glob]                list experiments and registered "
        "scenarios\n"
        "  run <name|glob> [options]  run an experiment, or every scenario "
        "cell matching a glob\n"
        "  merge <report...>          fold ssbft-shard-v2 reports (from "
        "`run --shard`) into one table\n"
        "  soak <glob> [options]      chaos campaign: fuzz the matched "
        "scenarios' fault space with streaming invariant checking\n"
        "  check [options] <trace.jsonl|dir>...  verify --trace output "
        "against the paper's invariants and print its commitments\n"
        "  sim [options]              run one ad-hoc (algorithm, world) "
        "cell\n"
        "run options: [--trials N] [--jobs J] [--seed S]\n"
        "             [--format ascii|csv|jsonl] [--out FILE] [--trace DIR]\n"
        "             [--progress] [--shard I/K]\n"
        "             [--checkpoint FILE [--resume]]\n"
        "  --trials N   override every cell's trial count (0 = per-cell "
        "defaults)\n"
        "  --jobs J     sweep worker threads (default/0: one per available "
        "CPU; 1 = serial; results bit-identical either way)\n"
        "  --seed S     offset added to every cell's base seed\n"
        "  --format F   ascii (default), csv (RFC-4180) or jsonl\n"
        "  --out FILE   write the report to FILE instead of stdout\n"
        "  --trace DIR  write one JSONL execution trace per (cell, trial)\n"
        "               into DIR; verify them with `ssbft_bench check DIR`\n"
        "  --progress   stderr progress line (units done / total)\n"
        "  --shard I/K  run only the slice u % K == I of the sweep's unit\n"
        "               sequence and emit an ssbft-shard-v2 JSONL report\n"
        "               (scenario globs only; seeds stay per-cell, so the\n"
        "               merged result is bit-identical to an unsharded "
        "run)\n"
        "  --checkpoint FILE  append one line per completed unit to FILE;\n"
        "               --resume continues a killed sweep bit-identically\n"
        "               (scenario globs only)\n"
        "merge options: [--format ascii|csv|jsonl] [--out FILE] "
        "[--commitment-only]\n"
        "  --commitment-only  print just the aggregate SHA-256 trace\n"
        "               commitment (shards must have run with --trace);\n"
        "               matches `ssbft_bench check --commitment-only`\n"
        "soak options: [--campaign-seed S] [--units N] [--bound B] "
        "[--minimize]\n"
        "              plus --jobs/--progress/--out/--trace and the "
        "--shard/--checkpoint/--resume crash-safety knobs\n"
        "  --campaign-seed S  campaign identity (default 1): unit i's fault\n"
        "               plan is a pure function of (S, i) — any reported\n"
        "               violation line re-runs bit-identically\n"
        "  --units N    chaos units to sample across the matched cells "
        "(default 64)\n"
        "  --bound B    also enforce the re-convergence bound: every unit\n"
        "               must (re)converge within B beats of its last "
        "corruption\n"
        "  --minimize   delta-debug each violating plan to a minimal\n"
        "               registrable repro (axes dropped, schedules and\n"
        "               victim sets shrunk, horizons halved)\n"
        "examples:\n"
        "  ssbft_bench list 'net/*'\n"
        "  ssbft_bench run table1 --trials 2 --jobs 2\n"
        "  ssbft_bench run 'gallery/*' --format jsonl\n"
        "  ssbft_bench run net/baseline --trace traces && ssbft_bench check "
        "traces\n"
        "  ssbft_bench run table1-large --trials 1   # n up to 128 "
        "(scaling-large/* cells)\n"
        "  ssbft_bench run 'gallery/*' --shard 0/2 --out a.jsonl   # box A\n"
        "  ssbft_bench run 'gallery/*' --shard 1/2 --out b.jsonl   # box B\n"
        "  ssbft_bench merge a.jsonl b.jsonl\n"
        "  ssbft_bench run 'net/*' --checkpoint net.ckpt --progress\n"
        "  ssbft_bench run 'net/*' --checkpoint net.ckpt --resume\n"
        "  ssbft_bench soak 'gallery/*' --campaign-seed 7 --units 200 "
        "--jobs 4\n"
        "  ssbft_bench soak 'gallery/*' --campaign-seed 7 --units 200 "
        "--minimize\n"
        "  ssbft_bench sim --algo clocksync --n 7 --f 2 --k 60 --coin fm "
        "--trials 25\n"
        "notes:\n"
        "  field/codec kernels auto-dispatch to SIMD (AVX2) when the CPU\n"
        "  supports it; a -DSSBFT_SIMD=off build pins the scalar reference.\n"
        "  Results are bit-identical on every path — only timings differ.\n";
  return code;
}

// The value after the flag at argv[i], advancing i to it; exits 2 when the
// flag is last.
const char* flag_value(const std::string& prog, int argc, char** argv,
                       int& i) {
  if (i + 1 >= argc) {
    std::cerr << prog << ": " << argv[i] << " needs a value\n";
    std::exit(2);
  }
  return argv[++i];
}

// flag_value as an integer in [lo, hi]. Strict digits-only: strtoull alone
// would skip leading whitespace and wrap negatives like " -3" to ~2^64.
// Exits 2 on anything else.
std::uint64_t u64_flag_value(
    const std::string& prog, int argc, char** argv, int& i,
    std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const std::string flag = argv[i];
  const char* text = flag_value(prog, argc, argv, i);
  bool digits_only = *text != '\0';
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      digits_only = false;
      break;
    }
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  if (!digits_only || errno == ERANGE || v < lo || v > hi) {
    std::cerr << prog << ": " << flag << " needs ";
    if (lo == 0 && hi == std::numeric_limits<std::uint64_t>::max()) {
      std::cerr << "a non-negative integer";
    } else {
      std::cerr << "an integer in [" << lo << ", " << hi << "]";
    }
    std::cerr << ", got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

// flag_value as a probability: the whole text must parse as a number in
// [0, 1]. Exits 2 on anything else.
double probability_flag_value(const std::string& prog, int argc, char** argv,
                              int& i) {
  const std::string flag = argv[i];
  const char* text = flag_value(prog, argc, argv, i);
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || stop != end || !(v >= 0.0 && v <= 1.0)) {
    std::cerr << prog << ": " << flag << " needs a number in [0, 1], got '"
              << text << "'\n";
    std::exit(2);
  }
  return v;
}

// Parses the shared run/soak options in argv[first..) into a BenchOptions
// value; prints usage and exits on --help or malformed input.
BenchOptions parse_cli(const std::string& prog, int argc, char** argv,
                       int first) {
  BenchOptions o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") std::exit(usage(std::cout, 0));
    const auto take_raw = [&] { return flag_value(prog, argc, argv, i); };
    if (arg == "--trials") {
      o.trials = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--jobs") {
      o.jobs = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--seed") {
      o.seed = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--format") {
      const std::string name = take_raw();
      const auto fmt = parse_report_format(name);
      if (!fmt) {
        std::cerr << prog << ": unknown --format '" << name
                  << "' (ascii, csv or jsonl)\n";
        std::exit(2);
      }
      o.format = *fmt;
      o.format_set = true;
    } else if (arg == "--out") {
      o.out = take_raw();
    } else if (arg == "--progress") {
      o.progress = true;
    } else if (arg == "--trace") {
      o.trace = take_raw();
    } else if (arg == "--shard") {
      const std::string spec = take_raw();
      const auto parsed = parse_shard_spec(spec);
      if (!parsed) {
        std::cerr << prog << ": --shard needs I/K with I < K, got '" << spec
                  << "'\n";
        std::exit(2);
      }
      o.shard = *parsed;
    } else if (arg == "--checkpoint") {
      o.checkpoint = take_raw();
    } else if (arg == "--resume") {
      o.resume = true;
    } else {
      std::cerr << prog << ": unknown option '" << arg << "' (try --help)\n";
      std::exit(2);
    }
  }
  if (o.resume && o.checkpoint.empty()) {
    std::cerr << prog << ": --resume needs --checkpoint FILE\n";
    std::exit(2);
  }
  return o;
}

int list_command(const std::string& pattern) {
  std::size_t width = 0;
  for (const Experiment& e : experiments()) {
    if (glob_match(pattern, e.name)) width = std::max(width, std::string(e.name).size());
  }
  const auto matched = match_scenarios(pattern);
  for (const ScenarioSpec* s : matched) {
    width = std::max(width, s->name.size());
  }

  bool any = false;
  bool header = false;
  for (const Experiment& e : experiments()) {
    if (!glob_match(pattern, e.name)) continue;
    if (!header) {
      std::cout << "experiments (run with `ssbft_bench run <name>`):\n";
      header = true;
    }
    std::cout << "  " << e.name
              << std::string(width - std::string(e.name).size() + 2, ' ')
              << e.summary << "\n";
    any = true;
  }
  if (!matched.empty()) {
    if (header) std::cout << "\n";
    std::cout << "scenarios (" << matched.size()
              << ", run with `ssbft_bench run <name|glob>`):\n";
    for (const ScenarioSpec* s : matched) {
      std::cout << "  " << s->name
                << std::string(width - s->name.size() + 2, ' ') << s->summary
                << "\n"
                // Audit line: DeliverySpec, network fault axes, corruption
                // schedule and trial defaults, so a grid can be reviewed
                // before spending any compute on it.
                << "      " << scenario_detail(*s) << "\n";
    }
    any = true;
  }
  if (!any) {
    std::cerr << "ssbft_bench: nothing matches '" << pattern << "'\n";
    return 2;
  }
  if (!matched.empty()) {
    std::cout << "\nchaos campaigns: `ssbft_bench soak '<glob>' "
                 "--campaign-seed S --units N` fuzzes the matched "
                 "scenarios' fault space under streaming invariant "
                 "checking (--minimize shrinks a failing plan).\n";
  }
  return 0;
}

int run_command(const std::string& name, const BenchOptions& o) {
  // Resolve the run target before touching --out: a typo'd name must not
  // truncate an existing results file.
  const Experiment* e = find_experiment(name);
  const std::vector<const ScenarioSpec*> matched =
      e == nullptr ? match_scenarios(name)
                   : std::vector<const ScenarioSpec*>{};
  if (e == nullptr && matched.empty()) {
    std::cerr << "ssbft_bench: unknown experiment or scenario '" << name
              << "' (try `ssbft_bench list`)\n";
    return 2;
  }
  if (e != nullptr &&
      (o.shard.active() || !o.checkpoint.empty() || o.resume)) {
    std::cerr << "ssbft_bench: --shard/--checkpoint/--resume apply to "
                 "scenario sweeps (globs), not the experiment tables; "
                 "'" << name << "' is an experiment\n";
    return 2;
  }
  if (o.shard.active() && o.format_set && o.format != ReportFormat::kJsonl) {
    std::cerr << "ssbft_bench: a --shard run always writes an "
                 "ssbft-shard-v2 JSONL report; --format "
              << report_format_name(o.format)
              << " applies to `ssbft_bench merge` instead\n";
    return 2;
  }
  AtomicOutFile file;
  std::ostream* os = open_report_out(o, file, "ssbft_bench");
  if (os == nullptr) return 2;

  if (e != nullptr) {
    Report report(RunMeta{name, o.trials, o.seed, o.jobs}, o.format, *os);
    e->run(o, report);
  } else if (o.shard.active()) {
    run_shard_cells(name, matched, o, *os);
  } else {
    Report report(RunMeta{name, o.trials, o.seed, o.jobs}, o.format, *os);
    run_scenario_cells(name, matched, o, report);
  }
  return commit_report_out(file, "ssbft_bench") ? 0 : 2;
}

int merge_command(int argc, char** argv) {
  BenchOptions o;
  bool commitment_only = false;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_raw = [&] {
      return flag_value("ssbft_bench merge", argc, argv, i);
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--format") {
      const std::string fmt_name = take_raw();
      const auto fmt = parse_report_format(fmt_name);
      if (!fmt) {
        std::cerr << "ssbft_bench merge: unknown --format '" << fmt_name
                  << "' (ascii, csv or jsonl)\n";
        return 2;
      }
      o.format = *fmt;
    } else if (arg == "--out") {
      o.out = take_raw();
    } else if (arg == "--commitment-only") {
      commitment_only = true;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::cerr << "ssbft_bench merge: unknown option '" << arg
                << "' (try --help)\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "ssbft_bench: merge needs at least one ssbft-shard-v2 "
                 "report (from `ssbft_bench run --shard`)\n";
    return 2;
  }
  return merge_shard_reports(paths, o, commitment_only);
}

int soak_command(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]).compare(0, 2, "--") == 0) {
    std::cerr << "ssbft_bench: soak needs a scenario glob first "
                 "(try `ssbft_bench list`)\n";
    return 2;
  }
  const std::string pattern = argv[2];
  SoakOptions soak;
  // Pull out the soak-specific flags, then hand everything else (--jobs,
  // --out, --trace, --shard, --checkpoint, ...) to the shared parser.
  std::vector<char*> rest;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_u64 = [&] {
      return u64_flag_value("ssbft_bench soak", argc, argv, i);
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--campaign-seed") {
      soak.campaign_seed = take_u64();
    } else if (arg == "--units") {
      soak.units = take_u64();
    } else if (arg == "--bound") {
      soak.bound = take_u64();
    } else if (arg == "--minimize") {
      soak.minimize = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchOptions o = parse_cli(
      "ssbft_bench soak", static_cast<int>(rest.size()), rest.data(), 0);
  if (o.trials != 0 || o.seed != 0) {
    std::cerr << "ssbft_bench soak: --trials/--seed don't apply here — every "
                 "unit is one trial whose seed derives from "
                 "(--campaign-seed, unit index)\n";
    return 2;
  }
  if (o.format_set) {
    std::cerr << "ssbft_bench soak: the campaign report is plain text; "
                 "--format applies to `run` and `merge`\n";
    return 2;
  }
  if (soak.units == 0) {
    std::cerr << "ssbft_bench soak: --units must be >= 1\n";
    return 2;
  }
  // Resolve the glob before run_soak_campaign touches --out.
  const std::vector<const ScenarioSpec*> matched = match_scenarios(pattern);
  if (matched.empty()) {
    if (find_experiment(pattern) != nullptr) {
      std::cerr << "ssbft_bench: soak fuzzes scenario cells; '" << pattern
                << "' is an experiment table (try a glob from "
                   "`ssbft_bench list`)\n";
    } else {
      std::cerr << "ssbft_bench: no scenario matches '" << pattern
                << "' (try `ssbft_bench list`)\n";
    }
    return 2;
  }
  return run_soak_campaign(pattern, matched, o, soak);
}

// `ssbft_bench check`: expands directories to their *.jsonl files, reads
// and merges the traces, and prints one verdict line per merged run plus
// the aggregate commitment. Exit 0 ok, 1 violation, 2 decode error.
int check_command(int argc, char** argv) {
  const std::string prog = "ssbft_bench check";
  CheckOptions opts;
  bool commitment_only = false;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--bound") {
      opts.bound = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--require-convergence") {
      opts.require_convergence = true;
    } else if (arg == "--coin-agreement") {
      opts.coin_agreement = probability_flag_value(prog, argc, argv, i);
    } else if (arg == "--window") {
      opts.confirm_window = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--commitment-only") {
      commitment_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << prog << ": unknown option '" << arg << "' (try --help)\n";
      return 2;
    } else if (std::error_code ec; std::filesystem::is_directory(arg, ec)) {
      for (const auto& entry :
           std::filesystem::directory_iterator(arg, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
          paths.push_back(entry.path().string());
        }
      }
    } else {
      paths.push_back(arg);
    }
  }
  // File-system enumeration order must not influence anything downstream.
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cerr << prog << ": no .jsonl inputs found\n";
    return 2;
  }
  const MergeResult merged = read_traces(paths);
  if (!merged.ok) {
    std::cerr << prog << ": " << merged.error << "\n";
    return 2;
  }

  bool all_ok = true;
  std::vector<std::string> commitments;
  for (const ParsedTrace& trace : merged.traces) {
    const std::string commit = trace_commitment(trace);
    commitments.push_back(commit);
    if (commitment_only) continue;
    const CheckResult res = check_trace(trace, opts);
    all_ok = all_ok && res.ok;
    const char* status = res.ok ? (res.censored ? "censored" : "ok") : "FAIL";
    std::printf(
        "%-8s %-28s trial=%llu seed=%llu beats=%llu synced_at=%lld "
        "coin=%.3f/%llu commit=%.12s\n",
        status,
        trace.header.scenario.empty() ? "(ad-hoc)"
                                      : trace.header.scenario.c_str(),
        static_cast<unsigned long long>(trace.header.trial),
        static_cast<unsigned long long>(trace.header.seed),
        static_cast<unsigned long long>(res.beats),
        res.converged ? static_cast<long long>(res.synced_at) : -1ll,
        res.coin_agreement_rate,
        static_cast<unsigned long long>(res.coin_groups), commit.c_str());
    for (const std::string& v : res.violations) {
      std::printf("         violation: %s\n", v.c_str());
    }
  }
  const std::string aggregate = aggregate_commitment(commitments);
  std::printf(commitment_only ? "%s\n" : "aggregate %s\n", aggregate.c_str());
  return all_ok ? 0 : 1;
}

// The value `name` maps to in `table`; exits 2 naming `flag` otherwise.
template <typename T>
T named_value(const std::string& prog, const char* flag,
              const std::map<std::string, T>& table, const std::string& name) {
  const auto it = table.find(name);
  if (it == table.end()) {
    std::cerr << prog << ": unknown " << flag << " '" << name << "' (one of";
    for (const auto& entry : table) std::cerr << ' ' << entry.first;
    std::cerr << ")\n";
    std::exit(2);
  }
  return it->second;
}

// `ssbft_bench sim`: one ad-hoc (Family, World) cell built by build_world
// and run through the sweep — "what does algorithm X do at (n, f, k) under
// attack Y?" without registering a scenario.
int sim_command(int argc, char** argv) {
  const std::string prog = "ssbft_bench sim";
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
  static const std::map<std::string, CoinKind> kCoins = {
      {"oracle", CoinKind::kOracle},
      {"fm", CoinKind::kFm},
  };
  static const std::map<std::string, Attack> kAttacks = {
      {"silent", Attack::kSilent},     {"noise", Attack::kNoise},
      {"split", Attack::kSplit},       {"skew", Attack::kSkew},
      {"adaptive", Attack::kAdaptive}, {"coinattack", Attack::kCoinAttack},
  };
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  std::string algo = "clocksync";
  std::string coin = "oracle";
  std::string adversary = "skew";
  World w;
  w.k = 16;
  w.levels = 3;
  std::uint64_t max_beats = 10000;
  // Pull out the sim-specific flags, then hand everything else (--trials,
  // --seed, --jobs, --format, --out, ...) to the shared parser.
  std::vector<char*> rest;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_raw = [&] { return flag_value(prog, argc, argv, i); };
    const auto take_u32 = [&](std::uint64_t lo, std::uint64_t hi) {
      return static_cast<std::uint32_t>(
          u64_flag_value(prog, argc, argv, i, lo, hi));
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--algo") {
      algo = take_raw();
    } else if (arg == "--coin") {
      coin = take_raw();
    } else if (arg == "--adversary") {
      adversary = take_raw();
    } else if (arg == "--n") {
      w.n = take_u32(1, kU32Max);
    } else if (arg == "--f") {
      w.f = take_u32(0, kU32Max);
    } else if (arg == "--k") {
      w.k = u64_flag_value(prog, argc, argv, i);
    } else if (arg == "--levels") {
      w.levels = take_u32(1, 62);
    } else if (arg == "--max-beats") {
      max_beats = u64_flag_value(prog, argc, argv, i);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (w.f >= w.n) {
    std::cerr << prog << ": --f " << w.f << " must be below --n " << w.n
              << " (convergence is measured over the correct nodes)\n";
    return 2;
  }
  const BenchOptions o =
      parse_cli(prog, static_cast<int>(rest.size()), rest.data(), 0);
  if (o.shard.active() || !o.checkpoint.empty() || o.resume) {
    std::cerr << prog << ": --shard/--checkpoint/--resume apply to scenario "
                         "sweeps (globs), not an ad-hoc sim cell\n";
    return 2;
  }
  const Family fam = named_value(prog, "--algo", kAlgos, algo);
  w.coin = named_value(prog, "--coin", kCoins, coin);
  w.attack = named_value(prog, "--adversary", kAttacks, adversary);
  w.actual = w.f;
  if ((fam == Family::kClock2 || fam == Family::kCascade) &&
      w.coin != CoinKind::kOracle) {
    std::cerr << prog << ": clock2 and cascade run on the oracle coin only\n";
    return 2;
  }
  // The modulus the family actually solves (the `k` column).
  if (fam == Family::kClock2) w.k = 2;
  if (fam == Family::kClock4) w.k = 4;
  if (fam == Family::kCascade) w.k = ClockValue{1} << w.levels;
  if (w.f > 0 && w.n <= std::uint64_t{3} * w.f && algo != "queen") {
    std::cerr << "warning: n <= 3f — expect non-convergence (that may be "
                 "the experiment)\n";
  }

  AtomicOutFile file;
  std::ostream* os = open_report_out(o, file, "ssbft_bench");
  if (os == nullptr) return 2;
  RunnerConfig rc;
  rc.trials = trials_or(o, 20);
  rc.base_seed = shifted_seed(o, 1);
  rc.convergence.max_beats = max_beats;
  const TrialStats stats = run_sweep(
      {SweepCell{"", build_world(fam, w), rc}}, sweep_options(o))[0];

  Report report(RunMeta{"sim", o.trials, o.seed, o.jobs}, o.format, *os);
  // DW and the pipelined-BA baselines run no coin, whatever --coin says.
  const bool coinless = fam == Family::kDolevWelch ||
                        fam == Family::kPipelinedQueen ||
                        fam == Family::kPipelinedKing;
  AsciiTable t({"algo", "coin", "adversary", "n", "f", "k", "trials",
                "converged", "mean", "median", "p90", "max", "msgs/beat"});
  t.add_row({algo, coinless ? "-" : coin, adversary, std::to_string(w.n),
             std::to_string(w.f), std::to_string(w.k),
             std::to_string(stats.trials), std::to_string(stats.converged),
             fmt_double(stats.mean, 2), fmt_double(stats.median, 1),
             fmt_double(stats.p90, 1), std::to_string(stats.max),
             fmt_double(stats.mean_msgs_per_beat, 1)});
  report.table("sim", t);
  if (stats.converged < stats.trials) {
    report.text(std::to_string(stats.trials - stats.converged) +
                " trial(s) censored at --max-beats " +
                std::to_string(max_beats) +
                " (excluded from the statistics above)\n");
  }
  return commit_report_out(file, "ssbft_bench") ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(std::cout, 0);
    }
    if (command == "list") {
      if (argc > 3) return usage(std::cerr, 2);
      return list_command(argc == 3 ? argv[2] : "*");
    }
    if (command == "run") {
      if (argc < 3) {
        std::cerr << "ssbft_bench: run needs an experiment name or scenario "
                     "glob (try `ssbft_bench list`)\n";
        return 2;
      }
      const BenchOptions o = parse_cli("ssbft_bench run", argc, argv, 3);
      return run_command(argv[2], o);
    }
    if (command == "merge") {
      return merge_command(argc, argv);
    }
    if (command == "soak") {
      return soak_command(argc, argv);
    }
    if (command == "check") {
      return check_command(argc, argv);
    }
    if (command == "sim") {
      return sim_command(argc, argv);
    }
  } catch (const contract_error& e) {
    // Unresumable checkpoints, unwritable checkpoints, unreadable trace
    // files: one structured line, nonzero exit, no stack dump.
    std::cerr << "ssbft_bench: error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "ssbft_bench: unknown command '" << command << "'\n";
  return usage(std::cerr, 2);
}
