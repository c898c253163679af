#include "experiments.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "coin/coin_host.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "harness/chaos.h"
#include "harness/checker.h"
#include "harness/live_check.h"
#include "sim/delivery.h"
#include "support/check.h"

namespace ssbft::bench {

std::uint64_t trials_or(const BenchOptions& o, std::uint64_t def) {
  return o.trials == 0 ? def : o.trials;
}

std::uint64_t shifted_seed(const BenchOptions& o, std::uint64_t def) {
  return def + o.seed;
}

RunnerConfig cell_config(const BenchOptions& o, const ScenarioSpec& spec) {
  RunnerConfig rc = scenario_runner_config(spec);
  rc.trials = trials_or(o, spec.trials);
  rc.base_seed = shifted_seed(o, spec.base_seed);
  return rc;
}

SweepCell registry_cell(const BenchOptions& o, const std::string& name) {
  const ScenarioSpec* spec = find_scenario(name);
  SSBFT_CHECK_MSG(spec != nullptr,
                  "experiment references unregistered scenario " << name);
  return SweepCell{name, build_scenario(*spec), cell_config(o, *spec)};
}

std::string stat_cell(const TrialStats& s) {
  if (s.converged == 0) return "none converged";
  return fmt_double(s.mean, 1) + " (p90 " + fmt_double(s.p90, 0) + ")";
}

// "converged/trials" cell, reflecting any --trials override.
std::string converged_cell(const TrialStats& s) {
  return std::to_string(s.converged) + "/" + std::to_string(s.trials);
}

SweepOptions sweep_options(const BenchOptions& o) {
  SweepOptions so;
  so.jobs = o.jobs;
  so.progress = o.progress;
  so.trace_dir = o.trace;
  return so;
}

namespace {

// Registered spec backing a sweep cell. Experiments only build cells from
// registry names, so absence is a programming error, not user input.
const ScenarioSpec& spec_of(const SweepCell& cell) {
  const ScenarioSpec* spec = find_scenario(cell.name);
  SSBFT_CHECK_MSG(spec != nullptr, "cell " << cell.name << " not registered");
  return *spec;
}

// ---------------------------------------------------------------------------
// Table 1 reproduction — the paper's evaluation artifact.
//
// Paper's claim (synchronous-model rows):
//   [10]  probabilistic  O(2^(2(n-f)))  f < n/3
//   [15]  deterministic  O(f)           f < n/4
//   [7]   deterministic  O(f)           f < n/3
//   this  probabilistic  O(1)           f < n/3
//
// We measure expected convergence beats empirically across an (n, f) sweep
// for all four families (k = 64, skew/split adversaries, genesis-random
// state) and print the measured growth next to the theoretical class. The
// semi-synchronous rows of Table 1 are a different model and out of scope:
// the simulator implements only the synchronous global-beat model
// (sim/protocol.h).

void run_table1(const BenchOptions& o, Report& r) {
  r.text("=== Table 1 (PODC'08): measured convergence, synchronous "
         "model, k = 64 ===\n\n");

  const std::uint32_t ns[] = {4, 7, 10, 13};
  const std::uint32_t fm_ns[] = {4, 7};
  std::vector<SweepCell> cells;
  for (std::uint32_t n : ns) {
    for (const char* fam : {"dw", "queen", "king", "sync"}) {
      cells.push_back(
          registry_cell(o, "table1/" + std::string(fam) + "/n" +
                               std::to_string(n)));
    }
  }
  for (std::uint32_t n : fm_ns) {
    cells.push_back(registry_cell(o, "table1/sync-fm/n" + std::to_string(n)));
  }
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  // "det. bound" = the deterministic worst-case convergence guarantee
  // (pipeline depth + 2 for the BA clocks — grows linearly in f, the O(f)
  // column of Table 1; "-" for the randomized algorithms). Measured means
  // sit far below it because random garbage tends to collapse onto the
  // protocols' default values; the bound is what an adversarial initial
  // state can force.
  AsciiTable table({"algorithm", "paper bound", "resiliency", "n", "f",
                    "mean beats", "p90", "det. bound", "converged"});
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint32_t n = ns[i];
    const ScenarioSpec& dw_spec = spec_of(cells[i * 4]);
    const ScenarioSpec& queen_spec = spec_of(cells[i * 4 + 1]);
    const ScenarioSpec& king_spec = spec_of(cells[i * 4 + 2]);
    {
      // [10] Dolev-Welch-style randomized: exponential. Budget-capped; the
      // larger sizes are expected to blow through the cap — that *is* the
      // result. (Split attack on its single clock channel.)
      const TrialStats& s = stats[i * 4];
      const std::uint64_t cap = dw_spec.max_beats;
      table.add_row({"Dolev-Welch [10]", "O(2^(2(n-f)))", "f < n/3",
                     std::to_string(n), std::to_string(dw_spec.world.f),
                     s.converged ? fmt_double(s.mean, 0)
                                 : ">" + std::to_string(cap),
                     s.converged ? fmt_double(s.p90, 0) : "-", "-",
                     converged_cell(s)});
    }
    {
      // [15] pipelined phase-queen: deterministic O(f), needs f < n/4 —
      // run at its own legal configuration (same n, f' = floor((n-1)/4)).
      const TrialStats& s = stats[i * 4 + 1];
      const std::uint32_t fq = queen_spec.world.f;
      const int bound = 2 + 2 * (static_cast<int>(fq) + 1) + 2 + 2;
      table.add_row({"pipelined queen [15]", "O(f)", "f < n/4",
                     std::to_string(n), std::to_string(fq), stat_cell(s),
                     fmt_double(s.p90, 0), std::to_string(bound),
                     converged_cell(s)});
    }
    {
      // [7] pipelined TC+phase-king: deterministic O(f), f < n/3.
      const TrialStats& s = stats[i * 4 + 2];
      const std::uint32_t fk = king_spec.world.f;
      const int bound = 2 + 3 * (static_cast<int>(fk) + 1) + 2 + 2;
      table.add_row({"pipelined king [7]", "O(f)", "f < n/3",
                     std::to_string(n), std::to_string(fk), stat_cell(s),
                     fmt_double(s.p90, 0), std::to_string(bound),
                     converged_cell(s)});
    }
    {
      // This paper: ss-Byz-Clock-Sync, expected O(1).
      const TrialStats& s = stats[i * 4 + 3];
      table.add_row({"ss-Byz-Clock-Sync", "O(1) expected", "f < n/3",
                     std::to_string(n), std::to_string(dw_spec.world.f),
                     stat_cell(s), fmt_double(s.p90, 0), "-",
                     converged_cell(s)});
    }
  }

  r.table("main", table);
  r.text("\nsemi-synchronous rows of Table 1 ([10] row 2, [5,6]): "
         "not applicable (bounded-delay model; see DESIGN.md)\n");

  // Full-stack spot check: the paper's algorithm on the message-level FM
  // coin (n = 4 and 7), to show the O(1) shape is not an oracle artifact.
  r.text("\n--- ss-Byz-Clock-Sync on the full GVSS coin ---\n");
  AsciiTable fm_table(
      {"n", "f", "adversary", "mean beats", "p90", "converged"});
  for (std::size_t j = 0; j < 2; ++j) {
    const ScenarioSpec& spec = spec_of(cells[16 + j]);
    const TrialStats& s = stats[16 + j];
    fm_table.add_row({std::to_string(spec.world.n),
                      std::to_string(spec.world.f), "skew",
                      fmt_double(s.mean, 1), fmt_double(s.p90, 0),
                      converged_cell(s)});
  }
  r.table("fm", fm_table);
  r.csv_trailer(table);
}

// ---------------------------------------------------------------------------
// Resiliency-boundary experiment (Table 1's resiliency column): the
// f < n/4 vs f < n/3 divide. For each family we hold n = 13 and sweep the
// *actual* number of Byzantine nodes across the theoretical boundaries,
// keeping each protocol's assumed bound at its legal maximum.

void run_resiliency(const BenchOptions& o, Report& r) {
  const std::uint32_t n = 13;
  {
    std::ostringstream os;
    os << "=== Resiliency boundaries at n = " << n << " (skew adversary, "
       << trials_or(o, 10) << " trials/cell) ===\n"
       << "floor((n-1)/4) = 3, floor((n-1)/3) = 4, n/3 ceil = 5\n\n";
    r.text(os.str());
  }

  const std::uint32_t actuals[] = {0, 2, 3, 4, 5};
  std::vector<SweepCell> cells;
  for (std::uint32_t a : actuals) {
    for (const char* fam : {"queen", "king", "sync"}) {
      cells.push_back(registry_cell(o, "resiliency/" + std::string(fam) +
                                           "/a" + std::to_string(a)));
    }
  }
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  AsciiTable t({"actual faulty", "queen [15] (f<n/4)", "king [7] (f<n/3)",
                "ss-Byz-Clock-Sync (f<n/3)"});
  for (std::size_t i = 0; i < std::size(actuals); ++i) {
    t.add_row({std::to_string(actuals[i]),
               fmt_double(stats[i * 3].convergence_rate(), 2),
               fmt_double(stats[i * 3 + 1].convergence_rate(), 2),
               fmt_double(stats[i * 3 + 2].convergence_rate(), 2)});
  }

  r.table("main", t);
  r.text("\nexpected shape: all columns 1.00 up to their bound; the "
         "queen column may degrade beyond f = 3; every column "
         "collapses at f = 5 > n/3 (no protocol can survive — the "
         "f < n/3 bound is optimal, which is the paper's resiliency "
         "claim).\n");
  r.csv_trailer(t);
}

// ---------------------------------------------------------------------------
// k-scaling experiment (Section 5): ss-Byz-Clock-Sync's constant overhead
// vs the cascade construction's growth with k.

void run_kclock_scaling(const BenchOptions& o, Report& r) {
  r.text("=== k-Clock scaling: Figure-4 algorithm vs Section-5 "
         "cascade (n = 4, f = 1, noise adversary) ===\n\n");

  std::vector<SweepCell> cells;
  std::vector<ClockValue> ks;
  for (std::uint32_t levels = 2; levels <= 8; levels += 2) {
    const ClockValue k = ClockValue{1} << levels;
    ks.push_back(k);
    cells.push_back(registry_cell(o, "kclock/sync/k" + std::to_string(k)));
    cells.push_back(registry_cell(o, "kclock/cascade/k" + std::to_string(k)));
  }
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  AsciiTable t({"k", "algorithm", "mean beats", "p90", "converged",
                "msgs/beat"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const TrialStats& sync_stats = stats[i * 2];
    const TrialStats& casc_stats = stats[i * 2 + 1];
    t.add_row({std::to_string(ks[i]), "ss-Byz-Clock-Sync",
               fmt_double(sync_stats.mean, 1), fmt_double(sync_stats.p90, 0),
               converged_cell(sync_stats),
               fmt_double(sync_stats.mean_msgs_per_beat, 1)});
    t.add_row({std::to_string(ks[i]), "cascade (Sec. 5)",
               casc_stats.converged ? fmt_double(casc_stats.mean, 1)
                                    : "none converged",
               fmt_double(casc_stats.p90, 0), converged_cell(casc_stats),
               fmt_double(casc_stats.mean_msgs_per_beat, 1)});
  }
  r.table("main", t);
  r.text("\nexpected shape: ss-Byz-Clock-Sync roughly flat in k; "
         "cascade convergence grows with k (level i steps once per "
         "2^i beats) and its traffic grows ~ log k.\n");
  r.csv_trailer(t);
}

// ---------------------------------------------------------------------------
// Coin-leverage experiment (Section 6.1): how much of the paper's result
// is "the coin"? Four rungs of the ladder under the same adversaries and
// (n, f) grid, plus the adaptive quorum splitter against the retrofit and
// the full algorithm.

std::string leverage_cell(const TrialStats& s, std::uint64_t cap) {
  if (s.converged == 0) return ">" + std::to_string(cap);
  std::string out = fmt_double(s.mean, 1);
  if (s.converged < s.trials) {
    out += " (" + std::to_string(s.trials - s.converged) + " censored)";
  }
  return out;
}

void run_coin_leverage(const BenchOptions& o, Report& r) {
  r.text("=== Coin leverage (Section 6.1): the same gamble, three "
         "coins (k = 8, split adversary) ===\n\n");

  const std::uint32_t ns[] = {4, 7, 10};
  const std::uint32_t adaptive_ns[] = {4, 7};
  std::vector<SweepCell> cells;
  for (std::uint32_t n : ns) {
    for (const char* fam : {"dw-local", "dw-shared", "dw-shared-fm", "sync"}) {
      cells.push_back(registry_cell(o, "leverage/" + std::string(fam) +
                                           "/n" + std::to_string(n)));
    }
  }
  for (std::uint32_t n : adaptive_ns) {
    cells.push_back(
        registry_cell(o, "leverage/adaptive/dw-shared/n" + std::to_string(n)));
    cells.push_back(
        registry_cell(o, "leverage/adaptive/sync/n" + std::to_string(n)));
  }
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  AsciiTable t({"n", "f", "DW local coins", "DW + shared coin",
                "DW + shared FM coin", "ss-Byz-Clock-Sync"});
  // The ">cap" censoring label must track each cell's actual beat budget.
  const auto capped = [&](std::size_t idx) {
    return leverage_cell(stats[idx], spec_of(cells[idx]).max_beats);
  };
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    const ScenarioSpec& spec = spec_of(cells[i * 4]);
    t.add_row({std::to_string(ns[i]), std::to_string(spec.world.f),
               capped(i * 4), capped(i * 4 + 1), capped(i * 4 + 2),
               capped(i * 4 + 3)});
  }
  r.table("coins", t);
  r.text("\nexpected shape: column 1 explodes with n-f; columns 2-4 "
         "stay constant — the coin is where the exponential/constant "
         "divide lives.\n");

  r.text("\n=== Adaptive quorum splitter (strongest clock-channel "
         "attack) ===\n\n");
  AsciiTable t2({"n", "f", "DW + shared coin", "ss-Byz-Clock-Sync"});
  for (std::size_t j = 0; j < std::size(adaptive_ns); ++j) {
    const std::size_t base = std::size(ns) * 4 + j * 2;
    const ScenarioSpec& spec = spec_of(cells[base]);
    const TrialStats& dw = stats[base];
    const TrialStats& sync = stats[base + 1];
    t2.add_row({std::to_string(adaptive_ns[j]), std::to_string(spec.world.f),
                capped(base) + " [" + converged_cell(dw) + "]",
                capped(base + 1) + " [" + converged_cell(sync) + "]"});
  }
  r.table("adaptive", t2);
  r.text("\nthe splitter sustains a partition whenever a value's "
         "correct support lands in [n-2f, n-f); the paper's algorithm "
         "re-merges the groups through the phase-3 common gamble.\n");
  r.csv_trailer(t);
}

// ---------------------------------------------------------------------------
// Remark 4.1 ablation: ss-Byz-4-Clock (and the full k-clock stack) with
// one coin-flipping pipeline per 2-clock vs a single shared pipeline.

void run_ablation_pipeline(const BenchOptions& o, Report& r) {
  r.text("=== Remark 4.1 ablation: per-sub-clock vs shared coin "
         "pipeline (full FM coin, n = 4, f = 1, noise) ===\n\n");

  const struct {
    const char* scenario;
    const char* label;
  } rows[] = {
      {"ablation/clock4/per-subclock", "4-clock, two pipelines (Fig. 3)"},
      {"ablation/clock4/shared", "4-clock, shared pipeline (Rem. 4.1)"},
      {"ablation/kclock/per-subclock", "k-clock k=32, two pipelines"},
      {"ablation/kclock/shared", "k-clock k=32, shared pipeline"},
  };
  std::vector<SweepCell> cells;
  for (const auto& row : rows) cells.push_back(registry_cell(o, row.scenario));
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  AsciiTable t({"configuration", "mean beats", "p90", "converged",
                "msgs/beat"});
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const TrialStats& s = stats[i];
    t.add_row({rows[i].label, fmt_double(s.mean, 1), fmt_double(s.p90, 0),
               converged_cell(s), fmt_double(s.mean_msgs_per_beat, 1)});
  }
  r.table("main", t);
  r.text("\nexpected shape: shared pipeline cuts messages/beat by a "
         "constant factor with comparable expected convergence.\n");
  r.csv_trailer(t);
}

// ---------------------------------------------------------------------------
// Convergence-tail experiment (Theorem 2's closing remark): the
// probability of NOT having converged by beat b decays geometrically.

void tail_series(Report& r, const std::string& id, const std::string& name,
                 TrialStats stats) {
  {
    std::ostringstream os;
    os << "--- " << name << ": " << converged_cell(stats) << " converged, mean "
       << fmt_double(stats.mean, 2) << ", p90 " << fmt_double(stats.p90, 1)
       << ", max " << stats.max << " ---\n";
    r.text(os.str());
  }
  std::sort(stats.samples.begin(), stats.samples.end());
  AsciiTable t({"beat b", "P[not converged by b]"});
  for (std::uint64_t b = 0; b <= stats.max + 2;
       b += std::max<std::uint64_t>(1, (stats.max + 2) / 12)) {
    const auto below = static_cast<std::uint64_t>(
        std::upper_bound(stats.samples.begin(), stats.samples.end(), b) -
        stats.samples.begin());
    const double surv =
        1.0 - static_cast<double>(below) / static_cast<double>(stats.trials);
    t.add_row({std::to_string(b), fmt_double(surv, 3)});
  }
  r.table(id, t);
  // Geometric-decay readout: fit P[T > b] ~ exp(-b/tau) via the mean.
  if (stats.converged == stats.trials && stats.mean > 0) {
    r.text("implied per-beat success rate ~ " +
           fmt_double(1.0 / (stats.mean + 1), 3) + "\n");
  }
  r.text("\n");
}

void run_convergence_tail(const BenchOptions& o, Report& r) {
  r.text("=== Convergence-tail experiment (Theorem 2 remark: "
         "geometric decay) ===\n\n");

  const struct {
    const char* scenario;
    const char* id;
    const char* label;
  } series[] = {
      {"tail/clock2/n4", "clock2-n4", "ss-Byz-2-Clock n=4 f=1 (split attack)"},
      {"tail/clock2/n13", "clock2-n13",
       "ss-Byz-2-Clock n=13 f=4 (split attack)"},
      {"tail/sync/n7", "sync-n7",
       "ss-Byz-Clock-Sync n=7 f=2 k=64 (skew attack)"},
  };
  std::vector<SweepCell> cells;
  for (const auto& s : series) cells.push_back(registry_cell(o, s.scenario));
  std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));
  for (std::size_t i = 0; i < std::size(series); ++i) {
    tail_series(r, series[i].id, series[i].label, std::move(stats[i]));
  }
}

// ---------------------------------------------------------------------------
// Coin-quality experiment (Figure 1 / Definitions 2.6-2.8 / Theorem 1):
// commonality, the p0/p1 split, and cold-start stabilization of the
// ss-Byz-Coin-Flip pipeline over the FM-style GVSS coin, per adversary.
// Fixed single-engine bit streams — not a trial sweep.

struct CoinStats {
  double common = 0, p0 = 0, p1 = 0;
  std::uint64_t first_common = 0;
};

CoinStats measure_coin(std::uint32_t n, std::uint32_t f, bool oracle,
                       Attack attack, std::uint64_t beats,
                       std::uint64_t seed) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  std::shared_ptr<OracleBeacon> beacon;
  CoinSpec spec;
  if (oracle) {
    beacon = std::make_shared<OracleBeacon>(n, OracleCoinParams{0.45, 0.45},
                                            Rng(seed).split("beacon"));
    spec = oracle_coin_spec(beacon);
  } else {
    spec = fm_coin_spec();
  }
  auto factory = [&spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<CoinHost>(env, spec, rng);
  };
  Engine eng(cfg, factory, f == 0 ? nullptr : make_attack(attack, 2, 0));
  if (beacon) eng.add_listener(beacon.get());
  eng.run_beats(beats);

  const std::vector<bool> agree = coin_agreement(eng);
  const std::vector<bool>& bits =
      dynamic_cast<const CoinHost&>(eng.node(eng.correct_ids()[0])).bits();
  CoinStats out;
  bool found_first = false;
  std::uint64_t common = 0, zeros = 0, ones = 0, counted = 0;
  const std::size_t warmup = FmCoinInstance::kRounds;
  for (std::size_t i = 0; i < beats; ++i) {
    if (agree[i] && !found_first) {
      found_first = true;
      out.first_common = i;
    }
    if (i < warmup) continue;
    ++counted;
    if (agree[i]) {
      ++common;
      (bits[i] ? ones : zeros)++;
    }
  }
  out.common = static_cast<double>(common) / static_cast<double>(counted);
  out.p0 = static_cast<double>(zeros) / static_cast<double>(counted);
  out.p1 = static_cast<double>(ones) / static_cast<double>(counted);
  return out;
}

void run_coin_quality(const BenchOptions& o, Report& r) {
  if (o.trials != 0 || o.jobs != 0 || !o.trace.empty()) {
    std::cerr << "note: this bench measures fixed single-engine bit streams; "
                 "--trials/--jobs/--trace have no effect here "
                 "(--seed applies)\n";
  }
  r.text("=== Coin quality: ss-Byz-Coin-Flip over the FM-style GVSS "
         "coin (Theorem 1) ===\n"
         "columns: commonality = measured p0+p1 (+accidental), split "
         "p0/p1, first common bit (Lemma 1: <= Delta_A = 4 after "
         "corrupted genesis)\n\n");

  AsciiTable t({"coin", "n", "f", "adversary", "common", "p0", "p1",
                "first common beat"});
  struct Row {
    bool oracle;
    std::uint32_t n, f;
    Attack attack;
    const char* name;
  };
  const Row rows[] = {
      {false, 4, 0, Attack::kSilent, "(none)"},
      {false, 4, 1, Attack::kSilent, "silent"},
      {false, 4, 1, Attack::kNoise, "noise"},
      {false, 4, 1, Attack::kCoinAttack, "gvss-attacker"},
      {false, 7, 2, Attack::kSilent, "silent"},
      {false, 7, 2, Attack::kNoise, "noise"},
      {false, 7, 2, Attack::kCoinAttack, "gvss-attacker"},
      {false, 10, 3, Attack::kCoinAttack, "gvss-attacker"},
      {true, 7, 2, Attack::kSilent, "silent (oracle ref)"},
  };
  for (const auto& row : rows) {
    const std::uint64_t beats = row.n >= 10 ? 300 : 800;
    auto s = measure_coin(row.n, row.f, row.oracle, row.attack, beats,
                          shifted_seed(o, 42) + row.n);
    t.add_row({row.oracle ? "oracle(0.45/0.45)" : "fm-gvss",
               std::to_string(row.n), std::to_string(row.f), row.name,
               fmt_double(s.common, 3), fmt_double(s.p0, 3),
               fmt_double(s.p1, 3), std::to_string(s.first_common)});
  }
  r.table("main", t);
  r.csv_trailer(t);
}

// ---------------------------------------------------------------------------
// Message-complexity experiment: correct-node traffic per beat vs n for
// every algorithm family, measured after convergence so the steady state
// is compared. Single-engine probes — not a trial sweep.

struct Traffic {
  double msgs = 0, bytes = 0;
};

// Mean traffic over the second half of the run (the first half is warmup).
Traffic second_half_mean(const Engine& eng) {
  const auto& hist = eng.metrics().history();
  Traffic t;
  std::uint64_t counted = 0;
  for (std::size_t i = hist.size() / 2; i < hist.size(); ++i) {
    t.msgs += static_cast<double>(hist[i].correct_messages);
    t.bytes += static_cast<double>(hist[i].correct_bytes);
    ++counted;
  }
  t.msgs /= static_cast<double>(counted);
  t.bytes /= static_cast<double>(counted);
  return t;
}

// Channel labels for the full FM stack rooted at 0, derived from the same
// layout arithmetic the stack itself uses (SsByzClockSync: three own
// channels, then SsByz4Clock in per-sub-clock mode — each 2-clock owns one
// clock channel + a coin pipeline — then the phase-3 coin), so the table
// tracks any change to the composition.
std::string fm_channel_label(ChannelId ch) {
  static const char* kRound[] = {"deal", "cross", "votes", "shares"};
  const std::uint32_t coin_chs = FmCoinInstance::kRounds;
  const auto coin_round = [&](const char* host, std::uint32_t rd) {
    std::string label = std::string("coin[") + host + "] ";
    if (rd < 4) {
      label += kRound[rd];
    } else {
      label += "r" + std::to_string(rd + 1);
    }
    return label;
  };
  if (ch < 3) {
    return std::string("clock-sync ") +
           (ch == 0 ? "full" : ch == 1 ? "prop" : "bit");
  }
  std::uint32_t off = ch - 3;  // into SsByz4Clock's per-sub-clock block
  const std::uint32_t sub = 1 + coin_chs;  // one SsByz2Clock's channels
  if (off < sub) {
    return off == 0 ? "2clk[a1] tri" : coin_round("a1", off - 1);
  }
  off -= sub;
  if (off < sub) {
    return off == 0 ? "2clk[a2] tri" : coin_round("a2", off - 1);
  }
  off -= sub;
  if (off < coin_chs) return coin_round("p3", off);
  return "ch " + std::to_string(ch);
}

// Steady-state per-round (= per-channel) byte breakdown from an engine
// whose second-half window was measured with channel tracking on.
AsciiTable fm_round_breakdown(const Engine& eng) {
  const auto& per_ch = eng.channel_bytes();
  const double window = static_cast<double>(eng.channel_bytes_beats());
  double total = 0;
  for (std::uint64_t b : per_ch) total += static_cast<double>(b);
  AsciiTable rt({"round (channel)", "bytes/beat", "share"});
  for (std::size_t ch = 0; ch < per_ch.size(); ++ch) {
    const double per_beat = static_cast<double>(per_ch[ch]) / window;
    rt.add_row({fm_channel_label(static_cast<ChannelId>(ch)) + " (" +
                    std::to_string(ch) + ")",
                fmt_double(per_beat, 1),
                fmt_double(100.0 * static_cast<double>(per_ch[ch]) / total,
                           1) +
                    "%"});
  }
  return rt;
}

void run_message_complexity(const BenchOptions& o, Report& r) {
  if (o.trials != 0 || o.jobs != 0 || !o.trace.empty()) {
    std::cerr << "note: this bench measures one steady-state engine per row; "
                 "--trials/--jobs/--trace have no effect here "
                 "(--seed applies)\n";
  }
  r.text("=== Steady-state traffic per beat (all correct nodes, "
         "k = 16, silent adversary) ===\n\n");
  AsciiTable t({"algorithm", "n", "f", "msgs/beat", "KiB/beat",
                "msgs/beat/node"});
  struct Breakdown {
    std::uint32_t n, f;
    AsciiTable table;
  };
  std::vector<Breakdown> breakdowns;
  const auto steady_state = [&](const EngineBuilder& builder,
                                std::uint64_t beats) {
    auto bundle = builder(shifted_seed(o, 123));
    bundle.engine->run_beats(beats);
    return second_half_mean(*bundle.engine);
  };
  struct NF {
    std::uint32_t n, f;
  };
  for (const auto [n, f] : {NF{4, 1}, NF{7, 2}, NF{10, 3}, NF{13, 4}}) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = 16;
    w.attack = Attack::kSilent;

    auto add_traffic = [&](const std::string& name, const Traffic& tr) {
      t.add_row({name, std::to_string(n), std::to_string(f),
                 fmt_double(tr.msgs, 0), fmt_double(tr.bytes / 1024.0, 1),
                 fmt_double(tr.msgs / (n - f), 1)});
    };
    auto add = [&](const std::string& name, const EngineBuilder& b,
                   std::uint64_t beats) {
      add_traffic(name, steady_state(b, beats));
    };

    add("Dolev-Welch [10]", build_world(Family::kDolevWelch, w), 400);
    {
      World wq = w;
      wq.f = (n - 1) / 4;
      wq.actual = wq.f;
      add("pipelined queen [15]", build_world(Family::kPipelinedQueen, wq),
          200);
    }
    add("pipelined king [7]", build_world(Family::kPipelinedKing, w), 200);
    add("ss-Byz-Clock-Sync (oracle)", build_world(Family::kClockSync, w), 300);
    {
      // One tracked run feeds both the table row and the per-round
      // breakdown (channel tracking changes nothing but wall-clock).
      World wf = w;
      wf.coin = CoinKind::kFm;
      wf.track_channel_bytes = true;
      const std::uint64_t beats = n >= 10 ? 60 : 150;
      auto bundle = build_world(Family::kClockSync, wf)(shifted_seed(o, 123));
      bundle.engine->run_beats(beats / 2);
      bundle.engine->reset_channel_bytes();
      bundle.engine->run_beats(beats - beats / 2);
      add_traffic("ss-Byz-Clock-Sync (FM coin)",
                  second_half_mean(*bundle.engine));
      breakdowns.push_back({n, f, fm_round_breakdown(*bundle.engine)});
    }
  }
  r.table("main", t);
  r.text("\n=== FM-coin stack, steady-state per-round byte breakdown "
         "===\n\n");
  for (const auto& b : breakdowns) {
    r.text("per-round bytes/beat, ss-Byz-Clock-Sync (FM coin), n = " +
           std::to_string(b.n) + ", f = " + std::to_string(b.f) + ":\n");
    r.table("fm-breakdown-n" + std::to_string(b.n), b.table);
    r.text("\n");
  }
  // Historical trailer shape: no blank line before "CSV follows:" here.
  if (r.format() == ReportFormat::kAscii) {
    r.text("CSV follows:\n");
    t.print_csv(r.out());
  }
}

// ---------------------------------------------------------------------------
// Large-n scaling grid: Table 1's convergence story continued past n = 13,
// plus the first KiB/beat and ns/beat curves out to n = 128. The
// convergence rows come from the scaling-large/* registry cells; the cost
// curves are steady-state single-engine probes (same methodology as
// message_complexity) timed with a monotonic clock. These are the
// workloads the SIMD field/codec kernels exist for — rerun with a
// -DSSBFT_SIMD=off build to measure the scalar reference on identical
// bytes.

void run_table1_large(const BenchOptions& o, Report& r) {
  r.text("=== Large-n scaling grid (k = 64): convergence at n up to 128 "
         "===\n\n");
  const std::uint32_t ns[] = {32, 64, 128};
  std::vector<SweepCell> cells;
  for (std::uint32_t n : ns) {
    cells.push_back(
        registry_cell(o, "scaling-large/sync/n" + std::to_string(n)));
    cells.push_back(
        registry_cell(o, "scaling-large/sync-fm/n" + std::to_string(n)));
    cells.push_back(registry_cell(
        o, "scaling-large/sync-fm/n" + std::to_string(n) + "-adaptive"));
  }
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));
  AsciiTable conv({"coin", "adversary", "n", "f", "mean beats", "p90",
                   "msgs/beat", "converged"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioSpec& spec = spec_of(cells[i]);
    const TrialStats& s = stats[i];
    conv.add_row({spec.world.coin == CoinKind::kFm ? "fm-gvss" : "oracle",
                  attack_name(spec.world.attack), std::to_string(spec.world.n),
                  std::to_string(spec.world.f), stat_cell(s),
                  fmt_double(s.p90, 0), fmt_double(s.mean_msgs_per_beat, 0),
                  converged_cell(s)});
  }
  r.table("main", conv);

  // Steady-state cost curves: one engine per (coin, n), silent adversary so
  // the measured traffic is the protocol's own. ns/beat is wall-clock over
  // the whole probe (the only wall-clock number in the repo's tables; it
  // varies run to run — the KiB/beat column and every other table stay
  // bit-identical).
  r.text("\n=== Steady-state cost per beat (silent adversary) ===\n\n");
  AsciiTable cost({"coin", "n", "f", "msgs/beat", "KiB/beat", "ns/beat"});
  for (std::uint32_t n : ns) {
    World w;
    w.n = n;
    w.f = (n - 1) / 3;
    w.actual = w.f;
    w.k = 64;
    w.attack = Attack::kSilent;
    struct Probe {
      const char* coin;
      CoinKind kind;
      std::uint64_t beats;
    };
    // FM beats shrink with n (an n=128 FM beat carries ~n^2 vectors);
    // the second-half window still spans several coin rounds.
    const Probe probes[] = {
        {"oracle", CoinKind::kOracle, 300},
        {"fm-gvss", CoinKind::kFm, n >= 128 ? 12u : n >= 64 ? 24u : 48u},
    };
    for (const Probe& p : probes) {
      World wp = w;
      wp.coin = p.kind;
      auto bundle = build_world(Family::kClockSync, wp)(shifted_seed(o, 123));
      const auto t0 = std::chrono::steady_clock::now();
      bundle.engine->run_beats(p.beats);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns_per_beat =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(p.beats);
      const Traffic tr = second_half_mean(*bundle.engine);
      cost.add_row({p.coin, std::to_string(n), std::to_string(w.f),
                    fmt_double(tr.msgs, 0), fmt_double(tr.bytes / 1024.0, 1),
                    fmt_double(ns_per_beat, 0)});
    }
  }
  r.table("cost", cost);
  r.csv_trailer(cost);
}

// ---------------------------------------------------------------------------
// Delivery-adversary experiment: convergence and message cost of the
// paper's full stack under adversarial *scheduling* — eclipse, partition,
// targeted delay, reorder (sim/delivery.h) — against the synchronous
// baseline, composed with the Byzantine attacks of the gallery.

void run_delivery(const BenchOptions& o, Report& r) {
  r.text("=== Delivery adversaries: ss-Byz-Clock-Sync n = 7, f = 2, "
         "k = 8 under adversarial scheduling ===\n\n");

  const char* names[] = {
      "net/baseline",           "net/eclipse",
      "net/eclipse+noise",      "net/partition-heal",
      "net/partition-heal+split", "net/targeted-delay",
      "net/targeted-delay+skew", "net/reorder",
      "net/reorder+lossy",
  };
  std::vector<SweepCell> cells;
  for (const char* name : names) cells.push_back(registry_cell(o, name));
  const std::vector<TrialStats> stats = run_sweep(cells, sweep_options(o));

  AsciiTable t({"scenario", "delivery", "heal", "adversary", "converged",
                "mean beats", "p90", "msgs/beat"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioSpec& spec = spec_of(cells[i]);
    const DeliverySpec& d = spec.world.faults.delivery;
    const TrialStats& s = stats[i];
    const std::string heal =
        d.kind == DeliveryKind::kSynchronous ? "-"
        : d.heal_at == DeliverySpec::kNever ? "never"
                                            : std::to_string(d.heal_at);
    t.add_row({spec.name, delivery_kind_name(d.kind), heal,
               spec.world.actual == 0 ? "-" : attack_name(spec.world.attack),
               converged_cell(s), s.converged ? fmt_double(s.mean, 1) : "-",
               s.converged ? fmt_double(s.p90, 0) : "-",
               fmt_double(s.mean_msgs_per_beat, 1)});
  }
  r.table("main", t);
  r.text("\nexpected shape: topology attacks push convergence past their "
         "heal beat (stabilization restarts from the healed network's "
         "state); reorder alone is absorbed by the inbox's canonical "
         "ordering and matches the baseline.\n");

  // Message-cost probe: one engine per cell over a fixed window past
  // every heal beat, reading the policy counters off Metrics totals.
  const std::uint64_t probe_beats = 120;
  r.text("\n--- delivery-policy traffic probe (one engine per cell, " +
         std::to_string(probe_beats) + " beats) ---\n\n");
  AsciiTable p({"scenario", "correct msgs", "dropped", "eclipsed", "delayed",
                "reordered", "phantoms"});
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    SSBFT_CHECK(spec != nullptr);
    auto bundle = build_scenario(*spec)(shifted_seed(o, spec->base_seed));
    bundle.engine->run_beats(probe_beats);
    const BeatTraffic& tot = bundle.engine->metrics().total();
    p.add_row({name, std::to_string(tot.correct_messages),
               std::to_string(tot.dropped_messages),
               std::to_string(tot.eclipsed_messages),
               std::to_string(tot.delayed_messages),
               std::to_string(tot.reordered_messages),
               std::to_string(tot.phantom_messages)});
  }
  r.table("probe", p);
  r.csv_trailer(t);
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry + entry points.

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> kExperiments = {
      {"table1", "Table 1 (PODC'08): measured convergence for all four "
                 "algorithm families across (n, f)",
       run_table1},
      {"table1-large", "large-n scaling grid (n = 32/64/128): convergence "
                       "plus KiB/beat and ns/beat curves on the SIMD "
                       "kernels (scaling-large/* cells)",
       run_table1_large},
      {"resiliency", "resiliency boundaries at n = 13: f < n/4 vs f < n/3 "
                     "vs the impossible f > n/3",
       run_resiliency},
      {"kclock_scaling", "ss-Byz-Clock-Sync's constant overhead vs the "
                         "Section-5 cascade as k grows",
       run_kclock_scaling},
      {"coin_leverage", "Section 6.1: the DW gamble on local vs shared vs "
                        "FM coins, plus the adaptive splitter",
       run_coin_leverage},
      {"ablation_pipeline", "Remark 4.1: per-sub-clock vs shared coin "
                            "pipeline (traffic and convergence)",
       run_ablation_pipeline},
      {"convergence_tail", "Theorem 2 remark: geometric decay of "
                           "P[not converged by beat b]",
       run_convergence_tail},
      {"coin_quality", "Theorem 1: commonality / p0 / p1 / stabilization "
                       "of the GVSS coin bit streams",
       run_coin_quality},
      {"message_complexity", "steady-state traffic per beat vs n, with the "
                             "FM stack's per-round byte breakdown",
       run_message_complexity},
      {"delivery", "delivery adversaries: eclipse / partition / "
                   "targeted-delay / reorder vs convergence and message "
                   "cost",
       run_delivery},
  };
  return kExperiments;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : experiments()) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::ostream* open_report_out(const BenchOptions& o, AtomicOutFile& file,
                              const char* prog) {
  if (o.out.empty()) return &std::cout;
  if (!file.open(o.out)) {
    std::cerr << prog << ": cannot open --out file '" << o.out << "'\n";
    return nullptr;
  }
  return &file.stream();
}

bool commit_report_out(AtomicOutFile& file, const char* prog) {
  std::string err;
  if (!file.commit(&err)) {
    std::cerr << prog << ": " << err << "\n";
    return false;
  }
  return true;
}

// SweepOptions for a scenario sweep, including the crash-safety knobs
// (the experiment tables keep the plain sweep_options above: several
// grids share one invocation there, so one checkpoint file can't
// describe them).
namespace {

SweepOptions scenario_sweep_options(const BenchOptions& o) {
  SweepOptions so = sweep_options(o);
  so.shard = o.shard;
  so.checkpoint_path = o.checkpoint;
  so.resume = o.resume;
  return so;
}

std::vector<SweepCell> scenario_cells(
    const BenchOptions& o, const std::vector<const ScenarioSpec*>& matched) {
  SSBFT_REQUIRE(!matched.empty());
  std::vector<SweepCell> cells;
  cells.reserve(matched.size());
  for (const ScenarioSpec* spec : matched) {
    cells.push_back(SweepCell{spec->name, build_scenario(*spec),
                              cell_config(o, *spec)});
  }
  return cells;
}

}  // namespace

void render_scenario_table(const std::string& pattern,
                           const std::vector<const ScenarioSpec*>& specs,
                           const std::vector<TrialStats>& stats,
                           Report& report) {
  {
    std::ostringstream os;
    os << "=== sweep: " << pattern << " (" << specs.size()
       << (specs.size() == 1 ? " cell" : " cells") << ") ===\n\n";
    report.text(os.str());
  }
  AsciiTable t({"scenario", "family", "n", "f", "adversary", "converged",
                "mean beats", "median", "p90", "max", "msgs/beat"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = *specs[i];
    const TrialStats& s = stats[i];
    t.add_row({spec.name, family_name(spec.family),
               std::to_string(spec.world.n), std::to_string(spec.world.f),
               spec.world.actual == 0 ? "-" : attack_name(spec.world.attack),
               converged_cell(s),
               s.converged ? fmt_double(s.mean, 1) : "-",
               s.converged ? fmt_double(s.median, 1) : "-",
               s.converged ? fmt_double(s.p90, 0) : "-",
               s.converged ? std::to_string(s.max) : "-",
               fmt_double(s.mean_msgs_per_beat, 1)});
  }
  report.table("cells", t);
}

void run_scenario_cells(const std::string& pattern,
                        const std::vector<const ScenarioSpec*>& matched,
                        const BenchOptions& o, Report& report) {
  const std::vector<SweepCell> cells = scenario_cells(o, matched);
  const SweepResult res = run_sweep_ex(cells, scenario_sweep_options(o));
  render_scenario_table(pattern, matched, res.stats, report);
}

void run_shard_cells(const std::string& pattern,
                     const std::vector<const ScenarioSpec*>& matched,
                     const BenchOptions& o, std::ostream& out) {
  const std::vector<SweepCell> cells = scenario_cells(o, matched);
  SweepOptions so = scenario_sweep_options(o);
  // Commitments make the merged report (and CI) able to attest replay
  // exactness; they exist only when traces do.
  so.collect_commitments = !o.trace.empty();
  const SweepResult res = run_sweep_ex(cells, so);

  ShardHeader header = shard_header_for(cells, so, pattern);
  header.cli_seed = o.seed;
  header.cli_trials = o.trials;
  out << encode_shard_header(header);
  for (const SweepUnitResult& u : res.units) {
    ShardUnitRow row;
    row.unit = u.unit;
    row.cell = u.cell;
    row.trial = u.trial;
    row.outcome = u.outcome;
    out << encode_shard_unit(row);
  }
}

int merge_shard_reports(const std::vector<std::string>& paths,
                        const BenchOptions& o, bool commitment_only) {
  std::vector<ShardFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "ssbft_bench: cannot open '" << path << "'\n";
      return 2;
    }
    ShardParse parsed = parse_shard_file(in);
    if (!parsed.ok) {
      std::cerr << "ssbft_bench: " << path << ":" << parsed.error_line << ": "
                << parsed.error << "\n";
      return 2;
    }
    files.push_back(std::move(parsed.file));
  }
  ShardMerge m = merge_shard_files(std::move(files));
  if (!m.ok) {
    std::cerr << "ssbft_bench: " << m.error << "\n";
    return 2;
  }
  if (commitment_only && !m.have_commitments) {
    std::cerr << "ssbft_bench: shard reports carry no trace commitments "
                 "(rerun the shards with --trace)\n";
    return 2;
  }
  // Resolve the cells against this binary's registry before opening
  // --out, so registry drift never truncates an existing results file.
  std::vector<const ScenarioSpec*> specs;
  specs.reserve(m.header.cells.size());
  for (const ShardCellInfo& c : m.header.cells) {
    const ScenarioSpec* spec = find_scenario(c.name);
    if (spec == nullptr) {
      std::cerr << "ssbft_bench: shard reports reference scenario '" << c.name
                << "', which this binary's registry does not contain "
                   "(version drift between shard run and merge?)\n";
      return 2;
    }
    specs.push_back(spec);
  }

  AtomicOutFile file;
  std::ostream* os = open_report_out(o, file, "ssbft_bench");
  if (os == nullptr) return 2;
  if (commitment_only) {
    *os << aggregate_commitment(m.commitments) << "\n";
  } else {
    std::vector<TrialStats> stats;
    stats.reserve(m.per_cell.size());
    for (const auto& cell_outcomes : m.per_cell) {
      stats.push_back(merge_outcomes(cell_outcomes));
    }
    Report report(
        RunMeta{m.header.pattern, m.header.cli_trials, m.header.cli_seed, 0},
        o.format, *os);
    render_scenario_table(m.header.pattern, specs, stats, report);
    if (m.have_commitments) {
      report.text("\naggregate trace commitment: " +
                  aggregate_commitment(m.commitments) + "\n");
    }
  }
  return commit_report_out(file, "ssbft_bench") ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Chaos campaigns (`ssbft_bench soak`).

namespace {

// The sweep cell for one chaos unit: the matched scenario's world with the
// sampled FaultPlan and faulty placement swapped in, one trial, seeded by
// the unit's engine seed. The cell name encodes the unit's full identity
// (campaign seed, unit index, scenario), so sweep fingerprints — and
// therefore checkpoints and shard slices — can never cross campaigns.
SweepCell chaos_cell(const ScenarioSpec& spec, const ChaosUnit& unit) {
  World w = spec.world;
  w.faults = unit.plan;
  w.faulty_override = unit.faulty;
  RunnerConfig rc = scenario_runner_config(spec);
  rc.trials = 1;
  rc.base_seed = unit.engine_seed;
  return SweepCell{"chaos/s" + std::to_string(unit.campaign_seed) + "/u" +
                       std::to_string(unit.index) + "/" + unit.scenario,
                   build_world(spec.family, w), rc};
}

// Re-runs one unit under the streaming checker — the --minimize probe.
// Builds the engine exactly as the sweep's live-checked run does (same
// seed, same full beat budget, same confirmation window), so the verdict
// is bit-identical to the campaign's.
CheckResult chaos_probe(const ScenarioSpec& spec, const ChaosUnit& unit,
                        const CheckOptions& copts) {
  World w = spec.world;
  w.faults = unit.plan;
  w.faulty_override = unit.faulty;
  const RunnerConfig rc = scenario_runner_config(spec);
  EngineBundle bundle = build_world(spec.family, w)(unit.engine_seed);
  CheckOptions probe_opts = copts;
  probe_opts.fault_horizon = w.faults.network_quiescence();
  StreamingChecker checker(probe_opts);
  TraceMeta meta;
  meta.scenario = unit.scenario;
  meta.seed = unit.engine_seed;
  meta.n = spec.world.n;
  meta.f = spec.world.f;
  meta.faulty = unit.faulty;
  meta.max_beats = rc.convergence.max_beats;
  meta.confirm_window = rc.convergence.confirm_window;
  checker.begin_trace(meta);
  bundle.engine->set_trace(&checker);
  bundle.engine->run_beats(rc.convergence.max_beats);
  return checker.finish();
}

// Greedy delta-debugging to a fixed point: keep the first strictly-weaker
// reduction that still violates; stop when none does. Every candidate is
// weaker than its parent, so the loop terminates.
ChaosUnit minimize_chaos_unit(const ScenarioSpec& spec, ChaosUnit unit,
                              const CheckOptions& copts,
                              std::uint64_t* steps) {
  *steps = 0;
  for (;;) {
    bool reduced = false;
    std::vector<FaultPlan> candidates = chaos_reductions(unit.plan);
    for (FaultPlan& cand : candidates) {
      ChaosUnit trial = unit;
      trial.plan = std::move(cand);
      if (!chaos_probe(spec, trial, copts).ok) {
        unit = std::move(trial);
        ++*steps;
        reduced = true;
        break;
      }
    }
    if (!reduced) return unit;
  }
}

void write_indented(std::ostream& os, const std::string& text) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    os << "  " << text.substr(start, end - start) << "\n";
    start = end + 1;
  }
}

}  // namespace

int run_soak_campaign(const std::string& pattern,
                      const std::vector<const ScenarioSpec*>& matched,
                      const BenchOptions& o, const SoakOptions& soak) {
  SSBFT_REQUIRE_MSG(!matched.empty(), "soak needs a matched scenario set");
  SSBFT_REQUIRE_MSG(soak.units >= 1, "soak needs --units >= 1");

  const FaultPlanGenerator gen(soak.campaign_seed);
  std::vector<ChaosUnit> units;
  std::vector<SweepCell> cells;
  units.reserve(soak.units);
  cells.reserve(soak.units);
  for (std::uint64_t u = 0; u < soak.units; ++u) {
    const ScenarioSpec& spec = *matched[u % matched.size()];
    ChaosUnit unit = gen.make_unit(u, spec.name, spec.world.n,
                                   spec.world.actual, spec.max_beats);
    cells.push_back(chaos_cell(spec, unit));
    units.push_back(std::move(unit));
  }

  SweepOptions so = scenario_sweep_options(o);
  so.collect_commitments = !o.trace.empty();
  so.live_check = true;
  so.live_check_opts.bound = soak.bound;
  const SweepResult res = run_sweep_ex(cells, so);

  AtomicOutFile file;
  std::ostream* os = open_report_out(o, file, "ssbft_bench");
  if (os == nullptr) return 2;

  *os << "soak: campaign seed " << soak.campaign_seed << ", " << soak.units
      << (soak.units == 1 ? " unit" : " units") << " over " << matched.size()
      << (matched.size() == 1 ? " scenario" : " scenarios") << " matching '"
      << pattern << "'";
  if (o.shard.active()) {
    *os << " (shard " << o.shard.index << "/" << o.shard.count << ": "
        << res.units.size() << " units in slice)";
  }
  *os << "\n";

  // res.units is in global unit order for every --jobs value (and under
  // --shard/--resume covers exactly the slice), so this report — and the
  // exit code — is deterministic however the campaign was scheduled.
  std::uint64_t violating = 0;
  for (const SweepUnitResult& u : res.units) {
    if (u.outcome.check_violations == 0) continue;
    ++violating;
    const ChaosUnit& unit = units[u.cell];
    *os << "violation: campaign-seed=" << soak.campaign_seed
        << " unit=" << unit.index << " scenario=" << unit.scenario
        << " engine-seed=" << unit.engine_seed
        << " violations=" << u.outcome.check_violations
        << " plan=" << chaos_unit_digest(unit) << "\n";
  }

  if (soak.minimize && violating > 0) {
    CheckOptions copts;
    copts.bound = soak.bound;
    for (const SweepUnitResult& u : res.units) {
      if (u.outcome.check_violations == 0) continue;
      const ScenarioSpec& spec = *matched[u.cell % matched.size()];
      std::uint64_t steps = 0;
      const ChaosUnit min =
          minimize_chaos_unit(spec, units[u.cell], copts, &steps);
      const CheckResult verdict = chaos_probe(spec, min, copts);
      *os << "\nminimal repro for unit " << min.index << " (" << steps
          << (steps == 1 ? " reduction" : " reductions") << " applied, plan "
          << chaos_unit_digest(min) << "):\n"
          << "  scenario " << spec.name << " (family "
          << family_name(spec.family) << ", n=" << spec.world.n
          << " f=" << spec.world.f << " actual=" << spec.world.actual
          << "), trials 1, base_seed " << min.engine_seed << ", max_beats "
          << spec.max_beats << "\n";
      write_indented(*os, encode_chaos_unit(min));
      std::size_t shown = 0;
      for (const std::string& msg : verdict.violations) {
        if (shown == 4) break;
        ++shown;
        *os << "  ! " << msg << "\n";
      }
      if (verdict.violation_count > shown) {
        *os << "  ! ... " << (verdict.violation_count - shown)
            << " more violation(s)\n";
      }
    }
  }

  if (violating == 0) {
    *os << "soak: clean — no invariant violations across "
        << res.units.size() << " unit(s)\n";
  } else {
    *os << "soak: " << violating << " violating unit(s); the same command "
        << "reproduces them bit-identically for any --jobs/--shard\n";
  }
  if (!commit_report_out(file, "ssbft_bench")) return 2;
  return violating == 0 ? 0 : 1;
}

}  // namespace ssbft::bench
