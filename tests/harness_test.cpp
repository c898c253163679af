// Tests for the experiment harness layers: the scenario registry (lookup,
// glob matching, buildability of every cell), the cross-cell sweep
// scheduler (bit-identical to the serial path, no per-cell barrier), the
// FaultPlan axes actually reaching the engine, and the structured report
// renderers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>

#include "harness/convergence.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/sweep.h"

namespace ssbft {
namespace {

// ---------------------------------------------------------------- registry

TEST(ScenarioRegistry, LookupKnownScenario) {
  const ScenarioSpec* s = find_scenario("table1/sync/n7");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "table1/sync/n7");
  EXPECT_EQ(s->family, Family::kClockSync);
  EXPECT_EQ(s->world.n, 7u);
  EXPECT_EQ(s->world.f, 2u);
  EXPECT_EQ(s->world.k, 64u);
  EXPECT_EQ(s->world.attack, Attack::kSkew);
  EXPECT_EQ(s->base_seed, 4007u);
  EXPECT_EQ(s->trials, 20u);
}

TEST(ScenarioRegistry, UnknownNameIsNull) {
  EXPECT_EQ(find_scenario("no/such/scenario"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
  // Globs are not names: lookup is exact.
  EXPECT_EQ(find_scenario("table1/*"), nullptr);
}

TEST(ScenarioRegistry, SortedUniqueAndSummarized) {
  const auto& reg = scenario_registry();
  ASSERT_GT(reg.size(), 50u);  // all bench rows + gallery + fault variants
  for (std::size_t i = 1; i < reg.size(); ++i) {
    EXPECT_LT(reg[i - 1].name, reg[i].name);
  }
  for (const ScenarioSpec& s : reg) {
    EXPECT_FALSE(s.summary.empty()) << s.name;
    EXPECT_GT(s.trials, 0u) << s.name;
    EXPECT_GT(s.max_beats, 0u) << s.name;
  }
}

TEST(ScenarioRegistry, EveryCellBuildsARunnableEngine) {
  // Construction exercises the full factory path (protocol stacks,
  // adversaries, beacons, FaultPlan validation); two beats exercise the
  // send/receive plumbing.
  for (const ScenarioSpec& s : scenario_registry()) {
    SCOPED_TRACE(s.name);
    EngineBundle b = build_scenario(s)(s.base_seed);
    ASSERT_NE(b.engine, nullptr);
    b.engine->run_beats(2);
    EXPECT_EQ(b.engine->beat(), 2u);
  }
}

TEST(ScenarioRegistry, GlobMatching) {
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
  EXPECT_TRUE(glob_match("table1/dw/*", "table1/dw/n4"));
  EXPECT_FALSE(glob_match("table1/dw/*", "table1/sync/n4"));
  EXPECT_TRUE(glob_match("*/n7", "leverage/sync/n7"));
  EXPECT_TRUE(glob_match("gallery/?oise", "gallery/noise"));
  EXPECT_FALSE(glob_match("gallery/?oise", "gallery/nnoise"));
  EXPECT_TRUE(glob_match("net/lossy", "net/lossy"));
  EXPECT_FALSE(glob_match("net/lossy", "net/lossy-phantom"));

  EXPECT_EQ(match_scenarios("table1/dw/*").size(), 4u);
  EXPECT_EQ(match_scenarios("gallery/*").size(), 4u);
  EXPECT_TRUE(match_scenarios("zzz/*").empty());
  // Matches come back in registry (sorted) order. The net/* block covers
  // the loss/phantom axes plus the delivery adversaries and their
  // gallery compositions ('+' sorts before '-' in ASCII).
  const auto matched = match_scenarios("net/*");
  ASSERT_EQ(matched.size(), 12u);
  const char* want[] = {
      "net/baseline",
      "net/eclipse",
      "net/eclipse+noise",
      "net/lossy",
      "net/lossy-phantom",
      "net/partition-heal",
      "net/partition-heal+split",
      "net/phantom-storm",
      "net/reorder",
      "net/reorder+lossy",
      "net/targeted-delay",
      "net/targeted-delay+skew",
  };
  for (std::size_t i = 0; i < matched.size(); ++i) {
    EXPECT_EQ(matched[i]->name, want[i]) << "index " << i;
  }
}

// ------------------------------------------------------------------- sweep

void expect_identical(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean_msgs_per_beat, b.mean_msgs_per_beat);
}

std::vector<SweepCell> three_cell_grid(std::uint64_t trials) {
  // Three genuinely different cells (family, size, adversary) with
  // different trial counts, so unit->cell mapping and per-cell merges are
  // all exercised.
  const char* names[] = {"table1/dw/n4", "gallery/split", "net/lossy"};
  std::vector<SweepCell> cells;
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    EXPECT_NE(spec, nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = trials + cells.size();  // unequal cell sizes
    rc.convergence.max_beats = 400;
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }
  return cells;
}

TEST(Sweep, BitIdenticalAcrossJobsAndToSingleCellSweeps) {
  const auto cells = three_cell_grid(6);
  SweepOptions serial;
  serial.jobs = 1;
  const std::vector<TrialStats> base = run_sweep(cells, serial);
  ASSERT_EQ(base.size(), cells.size());

  // Cross-cell scheduling at any width must not perturb any cell's stats.
  for (std::uint64_t jobs : {2ULL, 3ULL, 8ULL, 0ULL}) {
    SweepOptions wide;
    wide.jobs = jobs;
    const std::vector<TrialStats> par = run_sweep(cells, wide);
    ASSERT_EQ(par.size(), base.size());
    for (std::size_t c = 0; c < base.size(); ++c) {
      SCOPED_TRACE(cells[c].name + " at jobs " + std::to_string(jobs));
      expect_identical(base[c], par[c]);
    }
  }

  // And each cell must equal a serial sweep of that cell alone — the
  // sweep is a scheduler, never a statistic.
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE(cells[c].name);
    expect_identical(base[c], run_sweep({cells[c]}, serial)[0]);
  }
}

TEST(Sweep, DeliveryKindGridBitIdenticalAcrossJobs) {
  // The delivery-kind cells carry cross-beat delivery state (pending
  // rings, victim masks); trial isolation and merge order must keep the
  // sweep bit-identical across scheduler widths regardless.
  const char* names[] = {"net/eclipse", "net/partition-heal",
                         "net/targeted-delay"};
  std::vector<SweepCell> cells;
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = 4 + cells.size();  // unequal cell sizes
    rc.convergence.max_beats = 600;  // well past the heal beat at 40
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }
  SweepOptions serial;
  serial.jobs = 1;
  const std::vector<TrialStats> base = run_sweep(cells, serial);
  ASSERT_EQ(base.size(), cells.size());
  for (std::uint64_t jobs : {2ULL, 0ULL}) {
    SweepOptions wide;
    wide.jobs = jobs;
    const std::vector<TrialStats> par = run_sweep(cells, wide);
    ASSERT_EQ(par.size(), base.size());
    for (std::size_t c = 0; c < base.size(); ++c) {
      SCOPED_TRACE(cells[c].name + " at jobs " + std::to_string(jobs));
      expect_identical(base[c], par[c]);
    }
  }
}

TEST(Sweep, EmptyAndZeroTrialCells) {
  EXPECT_TRUE(run_sweep({}, SweepOptions{}).empty());

  auto cells = three_cell_grid(2);
  cells[1].cfg.trials = 0;  // a zero-trial cell must not wedge the queue
  SweepOptions opts;
  opts.jobs = 4;
  const auto stats = run_sweep(cells, opts);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[1].trials, 0u);
  EXPECT_EQ(stats[1].converged, 0u);
  EXPECT_GT(stats[0].trials, 0u);
  EXPECT_GT(stats[2].trials, 0u);
}

// Distributed-sweep property: run every shard separately, ship each
// through the ssbft-shard-v2 text round trip, merge — and every cell's
// TrialStats must equal the unsharded serial run bit for bit (doubles
// compared with EXPECT_EQ, not near).
TEST(Sweep, ShardAndMergeBitIdenticalToUnsharded) {
  const auto cells = three_cell_grid(4);
  SweepOptions serial;
  serial.jobs = 1;
  const std::vector<TrialStats> base = run_sweep(cells, serial);
  ASSERT_EQ(base.size(), cells.size());

  for (const std::uint64_t k : {2ULL, 3ULL}) {
    std::vector<ShardFile> files;
    for (std::uint64_t i = 0; i < k; ++i) {
      SweepOptions so;
      so.jobs = 2;  // intra-shard parallelism must not matter either
      so.shard = ShardSpec{i, k};
      const SweepResult res = run_sweep_ex(cells, so);
      std::string text =
          encode_shard_header(shard_header_for(cells, so, "grid"));
      for (const SweepUnitResult& u : res.units) {
        text += encode_shard_unit(ShardUnitRow{u.unit, u.cell, u.trial,
                                               u.outcome});
      }
      std::istringstream in(text);
      ShardParse parsed = parse_shard_file(in);
      ASSERT_TRUE(parsed.ok) << parsed.error;
      files.push_back(std::move(parsed.file));
    }
    ShardMerge m = merge_shard_files(std::move(files));
    ASSERT_TRUE(m.ok) << m.error;
    ASSERT_EQ(m.per_cell.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      SCOPED_TRACE(cells[c].name + " sharded " + std::to_string(k) + " ways");
      expect_identical(base[c], merge_outcomes(m.per_cell[c]));
    }
  }
}

// Merging the same shard twice, or an incomplete set, must refuse rather
// than emit silently wrong statistics.
TEST(Sweep, MergeRefusesOverlapAndIncompleteness) {
  const auto cells = three_cell_grid(2);
  const auto shard_file = [&](std::uint64_t i, std::uint64_t k) {
    SweepOptions so;
    so.jobs = 1;
    so.shard = ShardSpec{i, k};
    const SweepResult res = run_sweep_ex(cells, so);
    std::string text =
        encode_shard_header(shard_header_for(cells, so, "grid"));
    for (const SweepUnitResult& u : res.units) {
      text +=
          encode_shard_unit(ShardUnitRow{u.unit, u.cell, u.trial, u.outcome});
    }
    std::istringstream in(text);
    ShardParse parsed = parse_shard_file(in);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return parsed.file;
  };
  {
    std::vector<ShardFile> twice;
    twice.push_back(shard_file(0, 2));
    twice.push_back(shard_file(0, 2));
    const ShardMerge m = merge_shard_files(std::move(twice));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("more than once"), std::string::npos) << m.error;
  }
  {
    std::vector<ShardFile> half;
    half.push_back(shard_file(1, 2));
    const ShardMerge m = merge_shard_files(std::move(half));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("incomplete"), std::string::npos) << m.error;
    EXPECT_NE(m.error.find("unit 0"), std::string::npos) << m.error;
  }
  {
    // Shards of different grids must never merge.
    auto other_cells = three_cell_grid(2);
    other_cells[0].cfg.base_seed += 1;
    SweepOptions so;
    so.jobs = 1;
    so.shard = ShardSpec{1, 2};
    const SweepResult res = run_sweep_ex(other_cells, so);
    std::string text = encode_shard_header(
        shard_header_for(other_cells, so, "grid"));
    for (const SweepUnitResult& u : res.units) {
      text +=
          encode_shard_unit(ShardUnitRow{u.unit, u.cell, u.trial, u.outcome});
    }
    std::istringstream in(text);
    ShardParse parsed = parse_shard_file(in);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::vector<ShardFile> mixed;
    mixed.push_back(shard_file(0, 2));
    mixed.push_back(std::move(parsed.file));
    const ShardMerge m = merge_shard_files(std::move(mixed));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("fingerprint"), std::string::npos) << m.error;
  }
}

// The tentpole scheduling property: units from different cells are in
// flight simultaneously — there is no per-cell (per-table-row) barrier.
// Four single-trial cells at jobs = 4: every builder blocks until all
// four have started. Under the old row-barrier execution model (finish
// cell c before starting cell c+1) the first builder would wait forever;
// with the global unit queue all four start and the latch opens. A timed
// wait keeps a regression a test failure instead of a hang.
TEST(Sweep, InterleavesUnitsAcrossCellsWithoutRowBarrier) {
  std::mutex mu;
  std::condition_variable cv;
  std::uint32_t started = 0;
  bool all_started = false;

  const ScenarioSpec* spec = find_scenario("table1/dw/n4");
  ASSERT_NE(spec, nullptr);
  std::vector<SweepCell> cells;
  for (int c = 0; c < 4; ++c) {
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = 1;
    rc.convergence.max_beats = 50;
    EngineBuilder inner = build_scenario(*spec);
    EngineBuilder gated = [&, inner](std::uint64_t seed) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++started == 4) {
          all_started = true;
          cv.notify_all();
        } else {
          cv.wait_for(lock, std::chrono::seconds(30),
                      [&] { return all_started; });
        }
      }
      return inner(seed);
    };
    cells.push_back(SweepCell{"cell" + std::to_string(c), gated, rc});
  }
  SweepOptions opts;
  opts.jobs = 4;
  const auto stats = run_sweep(cells, opts);
  EXPECT_TRUE(all_started)
      << "sweep barriered per cell: only " << started
      << " cells had started when the wait timed out";
  ASSERT_EQ(stats.size(), 4u);
  for (const TrialStats& s : stats) EXPECT_EQ(s.trials, 1u);
}

// ---------------------------------------------------------- FaultPlan axes

TEST(Scenario, LossyNetworkScenarioActuallyDrops) {
  const ScenarioSpec* s = find_scenario("net/lossy");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->world.faults.faulty_drop_prob, 0.0);
  EngineBundle b = build_scenario(*s)(s->base_seed);
  b.engine->run_beats(s->world.faults.network_faulty_until);
  const std::uint64_t dropped_while_faulty =
      b.engine->metrics().total().dropped_messages;
  EXPECT_GT(dropped_while_faulty, 0u)
      << "drop probability " << s->world.faults.faulty_drop_prob
      << " never dropped a message";
  // From network_faulty_until on, Definition 2.2 holds: no further loss.
  b.engine->run_beats(50);
  EXPECT_EQ(b.engine->metrics().total().dropped_messages,
            dropped_while_faulty);
}

TEST(Scenario, DeliveryCellsCarryTheirSpecs) {
  const ScenarioSpec* e = find_scenario("net/eclipse");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->world.faults.delivery.kind, DeliveryKind::kEclipse);
  EXPECT_EQ(e->world.faults.delivery.heal_at, 40u);
  EXPECT_NE(e->summary.find("eclipse"), std::string::npos);

  const ScenarioSpec* p = find_scenario("net/partition-heal");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->world.faults.delivery.kind, DeliveryKind::kPartition);
  EXPECT_EQ(p->world.faults.delivery.partition_split, 3u);

  const ScenarioSpec* d = find_scenario("net/targeted-delay");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->world.faults.delivery.kind, DeliveryKind::kTargetedDelay);
  EXPECT_EQ(d->world.faults.delivery.delay_beats, 2u);

  const ScenarioSpec* r = find_scenario("net/reorder");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->world.faults.delivery.kind, DeliveryKind::kReorder);
  EXPECT_EQ(r->world.faults.delivery.heal_at, DeliverySpec::kNever);

  // The baseline control row stays on the synchronous default.
  const ScenarioSpec* base = find_scenario("net/baseline");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->world.faults.delivery.kind, DeliveryKind::kSynchronous);
}

TEST(Scenario, EclipseScenarioActuallySuppresses) {
  const ScenarioSpec* s = find_scenario("net/eclipse");
  ASSERT_NE(s, nullptr);
  EngineBundle b = build_scenario(*s)(s->base_seed);
  b.engine->run_beats(10);  // inside the eclipse window
  EXPECT_GT(b.engine->metrics().total().eclipsed_messages, 0u);
  EXPECT_EQ(b.engine->metrics().total().delayed_messages, 0u);
}

TEST(Scenario, TargetedDelayScenarioActuallyHolds) {
  const ScenarioSpec* s = find_scenario("net/targeted-delay");
  ASSERT_NE(s, nullptr);
  EngineBundle b = build_scenario(*s)(s->base_seed);
  b.engine->run_beats(10);
  EXPECT_GT(b.engine->metrics().total().delayed_messages, 0u);
}

TEST(Scenario, PhantomStormScenarioActuallyInjects) {
  const ScenarioSpec* s = find_scenario("net/phantom-storm");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->world.faults.phantoms_per_beat, 0u);
  EngineBundle b = build_scenario(*s)(s->base_seed);
  b.engine->run_beats(s->world.faults.network_faulty_until);
  const std::uint64_t phantoms =
      b.engine->metrics().total().phantom_messages;
  // phantoms_per_beat per correct node per faulty-network beat.
  EXPECT_EQ(phantoms, std::uint64_t{s->world.faults.phantoms_per_beat} *
                          (s->world.n - s->world.actual) *
                          s->world.faults.network_faulty_until);
  b.engine->run_beats(50);
  EXPECT_EQ(b.engine->metrics().total().phantom_messages, phantoms);
}

TEST(Scenario, MidRunCorruptionStillConverges) {
  const ScenarioSpec* s = find_scenario("fault/mid-run-corruption");
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->world.faults.corruptions.empty());
  const Beat last_corruption = s->world.faults.corruptions.rbegin()->first;
  EngineBundle b = build_scenario(*s)(s->base_seed);
  ConvergenceConfig cc;
  cc.max_beats = s->max_beats;
  const ConvergenceResult r = measure_convergence(*b.engine, cc);
  ASSERT_TRUE(r.converged);
  // The corruption schedule randomizes live nodes mid-run, so sustained
  // convergence can only be certified after the last scheduled fault.
  EXPECT_GT(r.synced_at, last_corruption);
}

TEST(Scenario, WorldFaultPlanReachesEngineConfig) {
  World w;
  w.n = 4;
  w.f = 1;
  w.actual = 1;
  w.faults.network_faulty_until = 7;
  w.faults.faulty_drop_prob = 0.5;
  w.faults.phantoms_per_beat = 3;
  const EngineConfig cfg = world_config(w, 99);
  EXPECT_EQ(cfg.faults.network_faulty_until, 7u);
  EXPECT_EQ(cfg.faults.faulty_drop_prob, 0.5);
  EXPECT_EQ(cfg.faults.phantoms_per_beat, 3u);
  EXPECT_EQ(cfg.seed, 99u);
}

// ------------------------------------------------------------------ report

AsciiTable sample_table() {
  AsciiTable t({"algorithm", "mean beats"});
  t.add_row({"4-clock, two pipelines", "3.5"});
  t.add_row({"plain", "7"});
  return t;
}

TEST(Report, AsciiPassesProseAndTables) {
  std::ostringstream os;
  Report r(RunMeta{"exp", 2, 0, 1}, ReportFormat::kAscii, os);
  r.text("hello\n");
  r.table("main", sample_table());
  r.csv_trailer(sample_table());
  const std::string out = os.str();
  EXPECT_NE(out.find("hello\n"), std::string::npos);
  EXPECT_NE(out.find("| algorithm"), std::string::npos);
  EXPECT_NE(out.find("\nCSV follows:\n"), std::string::npos);
  EXPECT_NE(out.find("\"4-clock, two pipelines\",3.5\n"), std::string::npos);
}

TEST(Report, CsvStampsMetaAndEscapes) {
  std::ostringstream os;
  Report r(RunMeta{"exp,1", 2, 7, 4}, ReportFormat::kCsv, os);
  r.text("prose is dropped in structured formats\n");
  r.table("main", sample_table());
  r.csv_trailer(sample_table());  // no-op outside ascii
  EXPECT_EQ(os.str(),
            "experiment,table,seed,trials,jobs,algorithm,mean beats\n"
            "\"exp,1\",main,7,2,4,\"4-clock, two pipelines\",3.5\n"
            "\"exp,1\",main,7,2,4,plain,7\n");
}

TEST(Report, JsonlOneObjectPerRow) {
  std::ostringstream os;
  Report r(RunMeta{"exp", 0, 0, 0}, ReportFormat::kJsonl, os);
  AsciiTable t({"name \"q\"", "v"});
  t.add_row({"a\nb", "1"});
  r.table("cells", t);
  EXPECT_EQ(os.str(),
            "{\"experiment\":\"exp\",\"table\":\"cells\",\"seed\":0,"
            "\"trials\":0,\"jobs\":0,\"columns\":{\"name \\\"q\\\"\":"
            "\"a\\nb\",\"v\":\"1\"}}\n");
}

TEST(Report, FormatParsing) {
  EXPECT_EQ(parse_report_format("ascii"), ReportFormat::kAscii);
  EXPECT_EQ(parse_report_format("csv"), ReportFormat::kCsv);
  EXPECT_EQ(parse_report_format("jsonl"), ReportFormat::kJsonl);
  EXPECT_FALSE(parse_report_format("json").has_value());
  EXPECT_FALSE(parse_report_format("").has_value());
  EXPECT_EQ(std::string(report_format_name(ReportFormat::kJsonl)), "jsonl");
}

}  // namespace
}  // namespace ssbft
