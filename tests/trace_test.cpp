// The trace pipeline end to end: every protocol family runs traced and
// the offline checker (harness/checker.h) verifies the paper's invariants
// on the produced stream; trace commitments are bit-identical across
// sweep scheduler widths; tracing never perturbs results; and the decoder
// rejects malformed or forged input with structured errors, never UB.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/checker.h"
#include "harness/live_check.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace ssbft {
namespace {

namespace fs = std::filesystem;

// Runs `engine` for `beats` beats with a JSONL sink attached and returns
// the serialized trace.
std::string trace_engine(Engine& engine, const std::string& scenario,
                         std::uint64_t seed, std::uint64_t beats) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceMeta meta;
  meta.scenario = scenario;
  meta.seed = seed;
  meta.n = engine.n();
  meta.f = engine.f();
  for (NodeId id = 0; id < engine.n(); ++id) {
    if (engine.is_faulty(id)) meta.faulty.push_back(id);
  }
  meta.max_beats = beats;
  meta.confirm_window = 12;
  sink.begin_trace(meta);
  engine.set_trace(&sink);
  engine.run_beats(beats);
  engine.set_trace(nullptr);
  return out.str();
}

// Runs one freshly built world for `beats` beats, traced.
std::string run_traced(Family fam, const World& w, std::uint64_t seed,
                       std::uint64_t beats) {
  EngineBundle b = build_world(fam, w)(seed);
  return trace_engine(*b.engine, family_name(fam), seed, beats);
}

ParseResult parse_str(const std::string& s) {
  std::istringstream in(s);
  return parse_trace(in);
}

// parse -> merge of a single serialized trace.
ParsedTrace merge_str(const std::string& s) {
  ParseResult p = parse_str(s);
  EXPECT_TRUE(p.ok) << p.error << " at line " << p.error_line;
  std::vector<ParsedTrace> parts;
  parts.push_back(std::move(p.trace));
  MergeResult m = merge_traces(std::move(parts));
  EXPECT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.traces.size(), 1u);
  return std::move(m.traces[0]);
}

CheckResult check_str(const std::string& s, const CheckOptions& opts) {
  return check_trace(merge_str(s), opts);
}

// ---------------------------------------------------------------------------
// Every protocol family, traced over 10^4 beats, passes all four offline
// invariants: agreement after the convergence beat, legal k-clock
// increments, (with a corruption schedule) re-convergence within a bound,
// and coin-value agreement among correct nodes.

struct FamilyCase {
  const char* name;
  Family fam;
  World w;
};

std::vector<FamilyCase> family_cases() {
  std::vector<FamilyCase> cases;
  auto add = [&](const char* name, Family fam, std::uint32_t n,
                 std::uint32_t f, ClockValue k, Attack attack) {
    World w;
    w.n = n;
    w.f = f;
    w.actual = f;
    w.k = k;
    w.attack = attack;
    cases.push_back({name, fam, w});
  };
  add("clock_sync", Family::kClockSync, 4, 1, 8, Attack::kSkew);
  add("clock4", Family::kClock4, 4, 1, 4, Attack::kSilent);
  add("clock2", Family::kClock2, 4, 1, 2, Attack::kSilent);
  add("cascade", Family::kCascade, 4, 1, 4, Attack::kSilent);
  add("dw", Family::kDolevWelch, 4, 1, 4, Attack::kSilent);
  add("dw_shared", Family::kDolevWelchShared, 4, 1, 8, Attack::kSilent);
  add("queen", Family::kPipelinedQueen, 5, 1, 8, Attack::kSilent);
  add("king", Family::kPipelinedKing, 4, 1, 8, Attack::kSilent);
  return cases;
}

// One small world per family (n = 4, f = actual = 1, skew, k = 16), built
// through build_world and pinned by the commitment of 64 traced beats.
// The constants were recorded at commit 1c95f03, from the seven
// per-family builders that build_world replaced, so every stack's engine
// stays bit-identical to theirs. SIMD and scalar builds must agree.
TEST(TraceCommitment, EveryFamilyEngineIsPinned) {
  struct Pin {
    const char* name;
    Family fam;
    CoinKind coin;
    const char* commitment;
  };
  const Pin pins[] = {
      {"clock_sync/oracle", Family::kClockSync, CoinKind::kOracle,
       "d7a64d2d77efd667a3410778636294efeb98cfa39846a1f8ea3364032a1be33e"},
      {"clock_sync/fm", Family::kClockSync, CoinKind::kFm,
       "8f0f4c1113d75d977b2dc0347e1973ba51dddae13bc93fb023d5ba6c5ac589f9"},
      {"clock4", Family::kClock4, CoinKind::kOracle,
       "a76068aa0b9541718acdc12f0dc2c6c08e9e33b67c3b8499297c447d66617283"},
      {"clock2", Family::kClock2, CoinKind::kOracle,
       "63771f08f094677b33d4f0162b47abdfdacc8adac0662a8e67daa835364668c9"},
      {"cascade", Family::kCascade, CoinKind::kOracle,
       "a99258599d982c5ec66be4e78f47bc39484af5bcf6260136f808749bd884c55d"},
      {"dw", Family::kDolevWelch, CoinKind::kOracle,
       "253828535e672d62b408b27c430200461f05ea869fff1ee61dce6f8bf9bba976"},
      {"dw_shared/oracle", Family::kDolevWelchShared, CoinKind::kOracle,
       "7e827bd46b4d4970fbf565587c20213543cdc99a8f3eba0b02349774eaba80a7"},
      {"dw_shared/fm", Family::kDolevWelchShared, CoinKind::kFm,
       "5cd02cf255655ca989e775dfff274c947ae9d953f8e9bf604b4f68f241e644f1"},
      {"queen", Family::kPipelinedQueen, CoinKind::kOracle,
       "db30991fc33d6231de7a70a9f7b42794796ff254582cd426390efeb02ab4e066"},
      {"king", Family::kPipelinedKing, CoinKind::kOracle,
       "921a2a69bc4e7beb67adcdc4c10f4e96b5c284679e3e32bbfd42ef2523e16484"},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    World w;
    w.n = 4;
    w.f = 1;
    w.actual = 1;
    w.k = 16;
    w.attack = Attack::kSkew;
    w.coin = p.coin;
    EXPECT_EQ(trace_commitment(merge_str(run_traced(p.fam, w, 5, 64))),
              p.commitment);
  }
}

// The skew pins above leave most vote counts with one clear winner. These
// n = 7, f = actual = 2 worlds (k = 16, 64 traced beats) reach the other
// paths: the split adversary drives DW's, DW-shared's, king's and queen's
// counts into ties; the adaptive quorum splitter runs its plurality over
// clock-sync's and DW-shared's clock broadcasts; noise feeds the 2-clock
// malformed and out-of-range bytes. The constants were recorded at commit
// ce6c978. SIMD and scalar builds must agree.
TEST(TraceCommitment, TieAndSplitPathsArePinned) {
  struct Pin {
    const char* name;
    Family fam;
    Attack attack;
    const char* commitment;
  };
  const Pin pins[] = {
      {"dw/split", Family::kDolevWelch, Attack::kSplit,
       "b089712de11d02955050aed4fe9153e88cd74e292c59808919e383b6778e3179"},
      {"dw_shared/split", Family::kDolevWelchShared, Attack::kSplit,
       "ec5d92c518835478672155853178adc86e763effd617ac1d43d2f87e05ef2807"},
      {"king/split", Family::kPipelinedKing, Attack::kSplit,
       "4a70bd267dd61b0647b8909e567c9b3c3365d0f010aa7ed9652b2c8f956f0688"},
      {"queen/split", Family::kPipelinedQueen, Attack::kSplit,
       "4d1e6804c3841bb99cdf0389b736d76e710a8849ed78bb3c895f2cc07d648649"},
      {"clock_sync/oracle/adaptive", Family::kClockSync, Attack::kAdaptive,
       "80e2229569b465e5386f0d0ad742562562583cd1e16f1cb5e81f5b95036b7caf"},
      {"dw_shared/adaptive", Family::kDolevWelchShared, Attack::kAdaptive,
       "5cd54d5b91bf1b442f8cca7a95cf95e876cf3bb45ebc45e34a7643368912c136"},
      {"clock2/noise", Family::kClock2, Attack::kNoise,
       "66e224370e952d6654c1e4570e68a545ca43f3573026e9ecb0b1cf2a7a24796e"},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    World w;
    w.n = 7;
    w.f = 2;
    w.actual = 2;
    w.k = 16;
    w.attack = p.attack;
    EXPECT_EQ(trace_commitment(merge_str(run_traced(p.fam, w, 5, 64))),
              p.commitment);
  }
}

// One small clock-sync world per delivery kind (n = 4, f = actual = 1,
// k = 16), pinned by the commitment of 64 traced beats. Every world is
// lossy with phantoms for beats < 24, so each kind's loss lottery and
// phantom draws interleave with its own net_rng use; eclipse, partition
// and delay heal at beat 40. Reorder runs twice: under the split
// adversary, and under noise, whose same-sender duplicates let the
// shuffle decide which copy an inbox keeps. The constants were recorded
// at commit 23cf5e4, before the five delivery policy classes became one
// Delivery. SIMD and scalar builds must agree.
TEST(TraceCommitment, EveryDeliveryKindIsPinned) {
  struct Pin {
    const char* name;
    DeliveryKind kind;
    Attack attack;
    const char* commitment;
  };
  const Pin pins[] = {
      {"synchronous", DeliveryKind::kSynchronous, Attack::kSkew,
       "fe67200e8610507d92cd98e3c7a30c1fdb7a79c75aca2e428079c8f188f621b9"},
      {"eclipse", DeliveryKind::kEclipse, Attack::kSkew,
       "c620b914e2e9c388a080765afce8c1d7307bed85f47c567611f1b9f6f6099c10"},
      {"partition", DeliveryKind::kPartition, Attack::kSkew,
       "39ed5858177487487a1e74f7e6a9bf69715b283a0d38f1496d340d70b3ba1479"},
      {"targeted-delay", DeliveryKind::kTargetedDelay, Attack::kSkew,
       "417e0954b21137c08e26e0a232344430497fff885733552b0c4113e2d4384690"},
      {"reorder/split", DeliveryKind::kReorder, Attack::kSplit,
       "af0d0b99a5cdc6004644ca88eaea22df57061f59f81c34355538f54e2a498479"},
      {"reorder/noise", DeliveryKind::kReorder, Attack::kNoise,
       "53f12ea9369a59412aa35209de0b43ea6427c4b872928ce578479dfcd5de5145"},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    World w;
    w.n = 4;
    w.f = 1;
    w.actual = 1;
    w.k = 16;
    w.attack = p.attack;
    w.faults.network_faulty_until = 24;
    w.faults.faulty_drop_prob = 0.2;
    w.faults.phantoms_per_beat = 2;
    w.faults.phantom_max_len = 16;
    DeliverySpec& d = w.faults.delivery;
    d.kind = p.kind;
    if (p.kind != DeliveryKind::kReorder) d.heal_at = 40;
    d.victims = {0};
    d.allowed_senders = {1};
    d.partition_split = 2;
    d.delay_beats = 3;
    EngineBundle b = build_world(Family::kClockSync, w)(7);
    const std::string trace = trace_engine(*b.engine, "delivery", 7, 64);
    EXPECT_EQ(trace_commitment(merge_str(trace)), p.commitment);
    // Each world exercises what its pin is meant to cover.
    const BeatTraffic& t = b.engine->metrics().total();
    EXPECT_GT(t.dropped_messages, 0u);
    EXPECT_GT(t.phantom_messages, 0u);
    EXPECT_EQ(t.eclipsed_messages > 0,
              p.kind == DeliveryKind::kEclipse ||
                  p.kind == DeliveryKind::kPartition);
    EXPECT_EQ(t.delayed_messages > 0,
              p.kind == DeliveryKind::kTargetedDelay);
    EXPECT_EQ(t.reordered_messages > 0, p.kind == DeliveryKind::kReorder);
  }
}

TEST(TraceCheck, EveryFamilyPassesAllInvariantsOver10kBeats) {
  for (const FamilyCase& fc : family_cases()) {
    SCOPED_TRACE(fc.name);
    const std::string trace = run_traced(fc.fam, fc.w, 97, 10000);
    CheckOptions opts;
    opts.require_convergence = true;
    const CheckResult res = check_str(trace, opts);
    EXPECT_TRUE(res.ok) << (res.violations.empty() ? "" : res.violations[0]);
    EXPECT_TRUE(res.converged);
    EXPECT_FALSE(res.censored);
    EXPECT_EQ(res.beats, 10000u);
    // Families tracing a shared coin must show post-convergence agreement;
    // the local-coin baselines legitimately trace no coin stream at all.
    if (res.coin_groups > 0) EXPECT_GE(res.coin_agreement_rate, 0.5);
  }
}

TEST(TraceCheck, ScheduledCorruptionIsLegalAndReconvergesWithinBound) {
  World w;
  w.n = 4;
  w.f = 1;
  w.actual = 1;
  w.k = 8;
  w.attack = Attack::kSkew;
  w.faults.corruptions[3000] = {0, 1};
  const std::string trace = run_traced(Family::kClockSync, w, 11, 10000);

  CheckOptions opts;
  opts.require_convergence = true;
  opts.bound = 6000;
  const CheckResult res = check_str(trace, opts);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? "" : res.violations[0]);
  EXPECT_TRUE(res.had_corruption);
  EXPECT_EQ(res.last_corruption, 3000u);
  EXPECT_TRUE(res.converged);

  // A missed bound names the origin it was measured from: the last
  // corruption, else network quiescence, else genesis.
  CheckOptions tight;
  tight.bound = 1;
  const auto last_violation = [&tight](const std::string& t) {
    const CheckResult r = check_str(t, tight);
    EXPECT_FALSE(r.ok);
    return r.violations.empty() ? std::string() : r.violations.back();
  };
  EXPECT_NE(last_violation(trace).find(
                "beats after the last corruption (beat 3000), bound is 1"),
            std::string::npos)
      << last_violation(trace);
  w.faults.corruptions.clear();
  const std::string clean = run_traced(Family::kClockSync, w, 11, 10000);
  EXPECT_NE(last_violation(clean).find("beats after genesis, bound is 1"),
            std::string::npos)
      << last_violation(clean);
  tight.fault_horizon = 2;
  EXPECT_NE(last_violation(clean).find(
                "beats after network quiescence (beat 2), bound is 1"),
            std::string::npos)
      << last_violation(clean);
}

// ---------------------------------------------------------------------------
// Determinism: the commitments of a traced sweep are bit-identical for
// every --jobs value, and tracing never changes TrialStats.

std::vector<SweepCell> three_cell_grid() {
  const char* names[] = {"table1/dw/n4", "gallery/split", "net/lossy"};
  std::vector<SweepCell> cells;
  for (const char* name : names) {
    const ScenarioSpec* spec = find_scenario(name);
    EXPECT_NE(spec, nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = 3 + cells.size();  // unequal cell sizes
    rc.convergence.max_beats = 400;
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }
  return cells;
}

// Parses and merges every .jsonl file in dir; returns the per-trace
// commitments in canonical (merge-key) order.
std::vector<std::string> dir_commitments(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ParsedTrace> parsed;
  for (const std::string& path : paths) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    ParseResult r = parse_trace(f);
    EXPECT_TRUE(r.ok) << path << ":" << r.error_line << ": " << r.error;
    parsed.push_back(std::move(r.trace));
  }
  MergeResult merged = merge_traces(std::move(parsed));
  EXPECT_TRUE(merged.ok) << merged.error;
  std::vector<std::string> commits;
  for (const ParsedTrace& t : merged.traces) {
    commits.push_back(trace_commitment(t));
  }
  return commits;
}

TEST(TraceCheck, CommitmentBitIdenticalAcrossJobs) {
  const auto cells = three_cell_grid();
  std::uint64_t total_trials = 0;
  for (const auto& c : cells) total_trials += c.cfg.trials;

  std::vector<std::string> baseline;
  for (std::uint64_t jobs : {1ULL, 2ULL, 0ULL}) {
    const std::string dir =
        ::testing::TempDir() + "ssbft_trace_jobs" + std::to_string(jobs);
    fs::remove_all(dir);
    SweepOptions opts;
    opts.jobs = jobs;
    opts.trace_dir = dir;
    run_sweep(cells, opts);

    const std::vector<std::string> commits = dir_commitments(dir);
    EXPECT_EQ(commits.size(), total_trials);
    if (jobs == 1) {
      baseline = commits;
    } else {
      EXPECT_EQ(commits, baseline) << "jobs=" << jobs;
      EXPECT_EQ(aggregate_commitment(commits),
                aggregate_commitment(baseline));
    }
    fs::remove_all(dir);
  }
}

// The beat workers change how a heavy beat is scheduled, never what it
// does: the n=64 FM cell, whose beats run on the pool, commits to the same
// trace at every worker cap.
TEST(TraceCheck, CommitmentBitIdenticalAcrossBeatWorkers) {
  const ScenarioSpec* spec = find_scenario("scaling-large/sync-fm/n64");
  ASSERT_NE(spec, nullptr);
  std::string serial;
  for (unsigned cap : {1u, 2u, 4u}) {
    SCOPED_TRACE(cap);
    EngineBundle b = build_scenario(*spec)(spec->base_seed);
    b.engine->set_beat_workers(cap);
    const std::string trace =
        trace_engine(*b.engine, spec->name, spec->base_seed, 40);
    EXPECT_EQ(b.engine->beat_workers(), cap);
    ParseResult p = parse_str(trace);
    ASSERT_TRUE(p.ok) << p.error << " at line " << p.error_line;
    const std::string commitment = trace_commitment(p.trace);
    if (cap == 1) {
      serial = commitment;
    } else {
      EXPECT_EQ(commitment, serial);
    }
  }
}

// Below the 1 MiB first-beat gate an engine stays on one thread whatever
// its cap: the oracle cell moves 64.5 KiB a beat, the n=32 FM cell 0.73 MiB.
TEST(TraceCheck, LightCellsStaySerial) {
  for (const char* name :
       {"scaling-large/sync/n128", "scaling-large/sync-fm/n32"}) {
    SCOPED_TRACE(name);
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr);
    EngineBundle b = build_scenario(*spec)(spec->base_seed);
    b.engine->set_beat_workers(4);
    b.engine->run_beats(2);
    EXPECT_LT(b.engine->metrics().history()[0].correct_bytes,
              Engine::kPoolMinBeatBytes);
    EXPECT_EQ(b.engine->beat_workers(), 1u);
  }
}

// Sweep workers and beat workers share the cores: at jobs = 2 every unit's
// engine is capped at half the available CPUs.
TEST(TraceCheck, SweepSharesTheCoresWithBeatWorkers) {
  struct Caps {
    std::mutex mu;
    std::vector<unsigned> seen;
  };
  // Reads its engine's cap when the first beat starts, after the sweep
  // has set it.
  class CapProbe final : public BeatListener {
   public:
    CapProbe(const Engine* engine, Caps* caps) : engine_(engine), caps_(caps) {}
    void on_beat(Beat beat) override {
      if (beat != 0) return;
      const std::lock_guard<std::mutex> lock(caps_->mu);
      caps_->seen.push_back(engine_->beat_worker_cap());
    }

   private:
    const Engine* engine_;
    Caps* caps_;
  };
  Caps caps;
  std::vector<SweepCell> cells = three_cell_grid();
  std::uint64_t units = 0;
  for (SweepCell& cell : cells) {
    units += cell.cfg.trials;
    cell.builder = [inner = cell.builder, &caps](std::uint64_t seed) {
      EngineBundle b = inner(seed);
      auto probe = std::make_shared<CapProbe>(b.engine.get(), &caps);
      b.engine->add_listener(probe.get());
      b.keepalive = std::make_shared<
          std::pair<std::shared_ptr<void>, std::shared_ptr<CapProbe>>>(
          b.keepalive, probe);
      return b;
    };
  }
  SweepOptions opts;
  opts.jobs = 2;
  run_sweep(cells, opts);
  const unsigned want = std::max(1u, available_cpus() / 2);
  EXPECT_EQ(caps.seen, std::vector<unsigned>(units, want));
}

TEST(TraceCheck, TracingNeverPerturbsTrialStats) {
  const auto cells = three_cell_grid();
  SweepOptions plain;
  plain.jobs = 1;
  const std::vector<TrialStats> base = run_sweep(cells, plain);

  const std::string dir = ::testing::TempDir() + "ssbft_trace_stats";
  fs::remove_all(dir);
  SweepOptions traced = plain;
  traced.trace_dir = dir;
  const std::vector<TrialStats> with_trace = run_sweep(cells, traced);
  fs::remove_all(dir);

  ASSERT_EQ(with_trace.size(), base.size());
  for (std::size_t c = 0; c < base.size(); ++c) {
    SCOPED_TRACE(cells[c].name);
    EXPECT_EQ(with_trace[c].trials, base[c].trials);
    EXPECT_EQ(with_trace[c].converged, base[c].converged);
    EXPECT_EQ(with_trace[c].samples, base[c].samples);
    EXPECT_EQ(with_trace[c].mean_msgs_per_beat, base[c].mean_msgs_per_beat);
  }
}

// ---------------------------------------------------------------------------
// Checker invariants on hand-crafted streams (positive control is above:
// real runs pass; here each invariant must actually fire).

const char kHeader[] =
    "{\"type\":\"header\",\"version\":1,\"scenario\":\"t\",\"trial\":0,"
    "\"seed\":1,\"n\":4,\"f\":1,\"faulty\":[3],\"max_beats\":100,"
    "\"confirm_window\":3}\n";

std::string clock_line(std::uint64_t beat, std::uint32_t node,
                       std::uint64_t clock, std::uint64_t k = 4) {
  return "{\"type\":\"clock\",\"beat\":" + std::to_string(beat) +
         ",\"node\":" + std::to_string(node) +
         ",\"clock\":" + std::to_string(clock) +
         ",\"k\":" + std::to_string(k) + "}\n";
}

// Ten beats of all three correct nodes in lockstep: converged at beat 0.
std::string converged_prefix() {
  std::string s = kHeader;
  for (std::uint64_t b = 0; b < 10; ++b) {
    for (std::uint32_t node = 0; node < 3; ++node) {
      s += clock_line(b, node, b % 4);
    }
  }
  return s;
}

TEST(TraceCheck, ClosureBreakWithoutCorruptionIsAViolation) {
  std::string s = converged_prefix();
  s += clock_line(10, 0, 2);
  s += clock_line(10, 1, 2);
  s += clock_line(10, 2, 3);  // disagrees, and no corruption recorded
  const CheckResult res = check_str(s, CheckOptions{});
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].find("closure broke"), std::string::npos);
}

TEST(TraceCheck, ClosureBreakOnACorruptionBeatIsLegal) {
  std::string s = converged_prefix();
  s += "{\"type\":\"corrupt\",\"beat\":10,\"node\":1}\n";
  s += clock_line(10, 0, 2);
  s += clock_line(10, 1, 0);  // the corrupted node diverges
  s += clock_line(10, 2, 2);
  const CheckResult res = check_str(s, CheckOptions{});
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? "" : res.violations[0]);
  EXPECT_TRUE(res.had_corruption);
  EXPECT_EQ(res.last_corruption, 10u);
}

TEST(TraceCheck, ClockValueAtOrAboveModulusIsAViolation) {
  std::string s = kHeader;
  s += clock_line(0, 0, 7);  // k = 4
  s += clock_line(0, 1, 1);
  s += clock_line(0, 2, 1);
  const CheckResult res = check_str(s, CheckOptions{});
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].find(">= modulus"), std::string::npos);
}

TEST(TraceCheck, PostConvergenceCoinDisagreementIsAViolation) {
  // Same (beat, stream) group, opposite bits, every beat: all-equal rate 0.
  std::string ordered = kHeader;
  for (std::uint64_t b = 0; b < 10; ++b) {
    for (std::uint32_t node = 0; node < 3; ++node) {
      ordered += clock_line(b, node, b % 4);
    }
    ordered += "{\"type\":\"coin\",\"beat\":" + std::to_string(b) +
               ",\"node\":0,\"stream\":5,\"bit\":0}\n";
    ordered += "{\"type\":\"coin\",\"beat\":" + std::to_string(b) +
               ",\"node\":1,\"stream\":5,\"bit\":1}\n";
  }
  const CheckResult res = check_str(ordered, CheckOptions{});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.coin_agreement_rate, 0.0);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations.back().find("coin agreement"), std::string::npos);
}

TEST(TraceCheck, RequireConvergenceUpgradesCensoredToFailure) {
  std::string s = kHeader;
  s += clock_line(0, 0, 0);
  s += clock_line(0, 1, 1);  // never in agreement
  s += clock_line(0, 2, 2);
  const CheckResult censored = check_str(s, CheckOptions{});
  EXPECT_TRUE(censored.ok);
  EXPECT_TRUE(censored.censored);
  CheckOptions strict;
  strict.require_convergence = true;
  const CheckResult res = check_str(s, strict);
  EXPECT_FALSE(res.ok);
}

TEST(TraceCheck, FaultHorizonExcusesBreaksInsideTheDeclaredWindow) {
  // Converged at beat 0, lockstep broken at beat 10 with no corruption
  // record (a dropped message inside a declared lossy window), back in
  // lockstep from beat 11 on.
  std::string s = converged_prefix();
  s += clock_line(10, 0, 2);
  s += clock_line(10, 1, 2);
  s += clock_line(10, 2, 3);
  for (std::uint64_t b = 11; b < 30; ++b) {
    for (std::uint32_t node = 0; node < 3; ++node) {
      s += clock_line(b, node, b % 4);
    }
  }
  // On a clean network that break is a closure violation...
  EXPECT_FALSE(check_str(s, CheckOptions{}).ok);
  // ...but under a declared fault horizon covering it, beats before the
  // quiescence point are treated like corruption beats: no violation, and
  // convergence is measured from the horizon.
  CheckOptions lossy;
  lossy.fault_horizon = 11;
  const CheckResult res = check_str(s, lossy);
  EXPECT_TRUE(res.ok) << (res.violations.empty() ? "" : res.violations[0]);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.synced_at, 11u);
}

// ---------------------------------------------------------------------------
// Streaming/offline equivalence: InvariantCore is the single invariant
// implementation, so a StreamingChecker attached to the live engine must
// produce exactly the verdict `ssbft_bench check` computes from the same
// run's serialized trace — same flags, same beats, same violation strings.

CheckResult run_streamed(Family fam, const World& w, std::uint64_t seed,
                         std::uint64_t beats, const CheckOptions& opts) {
  EngineBundle b = build_world(fam, w)(seed);
  StreamingChecker checker(opts);
  TraceMeta meta;
  meta.scenario = family_name(fam);
  meta.seed = seed;
  meta.n = b.engine->n();
  meta.f = b.engine->f();
  for (NodeId id = 0; id < b.engine->n(); ++id) {
    if (b.engine->is_faulty(id)) meta.faulty.push_back(id);
  }
  meta.max_beats = beats;
  meta.confirm_window = 12;
  checker.begin_trace(meta);
  b.engine->set_trace(&checker);
  b.engine->run_beats(beats);
  return checker.finish();
}

void expect_same_verdict(const CheckResult& offline, const CheckResult& live) {
  EXPECT_EQ(live.ok, offline.ok);
  EXPECT_EQ(live.converged, offline.converged);
  EXPECT_EQ(live.censored, offline.censored);
  EXPECT_EQ(live.synced_at, offline.synced_at);
  EXPECT_EQ(live.beats, offline.beats);
  EXPECT_EQ(live.had_corruption, offline.had_corruption);
  EXPECT_EQ(live.last_corruption, offline.last_corruption);
  EXPECT_EQ(live.coin_groups, offline.coin_groups);
  EXPECT_EQ(live.coin_agreement_rate, offline.coin_agreement_rate);
  EXPECT_EQ(live.violation_count, offline.violation_count);
  EXPECT_EQ(live.violations, offline.violations);
}

TEST(StreamingCheck, VerdictMatchesOfflineOnEveryFamily) {
  for (const FamilyCase& fc : family_cases()) {
    SCOPED_TRACE(fc.name);
    CheckOptions opts;
    opts.require_convergence = true;
    const CheckResult offline =
        check_str(run_traced(fc.fam, fc.w, 97, 10000), opts);
    const CheckResult live = run_streamed(fc.fam, fc.w, 97, 10000, opts);
    expect_same_verdict(offline, live);
    EXPECT_TRUE(live.ok)
        << (live.violations.empty() ? "" : live.violations[0]);
  }
}

TEST(StreamingCheck, VerdictMatchesOfflineUnderCorruptionAndBound) {
  World w;
  w.n = 4;
  w.f = 1;
  w.actual = 1;
  w.k = 8;
  w.attack = Attack::kSkew;
  w.faults.corruptions[3000] = {0, 1};
  CheckOptions opts;
  opts.require_convergence = true;
  opts.bound = 6000;
  const CheckResult offline =
      check_str(run_traced(Family::kClockSync, w, 11, 10000), opts);
  const CheckResult live = run_streamed(Family::kClockSync, w, 11, 10000, opts);
  expect_same_verdict(offline, live);
  EXPECT_TRUE(live.ok) << (live.violations.empty() ? "" : live.violations[0]);
  EXPECT_TRUE(live.had_corruption);
  EXPECT_EQ(live.last_corruption, 3000u);
}

// Feeds a hand-crafted serialized stream through the streaming path (the
// decoder supplies the records, a TraceMeta supplies the window).
CheckResult stream_str(const std::string& s, const CheckOptions& opts) {
  ParseResult p = parse_str(s);
  EXPECT_TRUE(p.ok) << p.error << " at line " << p.error_line;
  StreamingChecker checker(opts);
  TraceMeta meta;
  meta.confirm_window = p.trace.header.confirm_window;
  checker.begin_trace(meta);
  checker.write(p.trace.records.data(), p.trace.records.size());
  return checker.finish();
}

TEST(StreamingCheck, UnexplainedClosureBreakFiresInTheStream) {
  std::string s = converged_prefix();
  s += clock_line(10, 0, 2);
  s += clock_line(10, 1, 2);
  s += clock_line(10, 2, 3);  // disagrees, and no corruption recorded
  const CheckResult res = stream_str(s, CheckOptions{});
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].find("closure broke"), std::string::npos);
  expect_same_verdict(check_str(s, CheckOptions{}), res);
}

TEST(StreamingCheck, HandCraftedStreamsMatchOfflineVerdicts) {
  struct Case {
    const char* name;
    std::string stream;
    CheckOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({"converged", converged_prefix(), CheckOptions{}});
  {
    std::string s = converged_prefix();
    s += "{\"type\":\"corrupt\",\"beat\":10,\"node\":1}\n";
    s += clock_line(10, 0, 2);
    s += clock_line(10, 1, 0);
    s += clock_line(10, 2, 2);
    cases.push_back({"corrupt-break", s, CheckOptions{}});
  }
  {
    std::string s = kHeader;
    s += clock_line(0, 0, 7);
    s += clock_line(0, 1, 1);
    s += clock_line(0, 2, 1);
    cases.push_back({"overflow", s, CheckOptions{}});
  }
  {
    CheckOptions strict;
    strict.require_convergence = true;
    std::string s = kHeader;
    s += clock_line(0, 0, 0);
    s += clock_line(0, 1, 1);
    s += clock_line(0, 2, 2);
    cases.push_back({"censored-strict", s, strict});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    expect_same_verdict(check_str(c.stream, c.opts),
                        stream_str(c.stream, c.opts));
  }
}

// ---------------------------------------------------------------------------
// Decoder negative paths: structured rejection with a line number.

void expect_parse_error(const std::string& input, const char* needle,
                        std::size_t line = 0) {
  const ParseResult r = parse_str(input);
  EXPECT_FALSE(r.ok) << "expected rejection containing '" << needle << "'";
  EXPECT_NE(r.error.find(needle), std::string::npos) << r.error;
  if (line != 0) EXPECT_EQ(r.error_line, line);
}

TEST(TraceDecode, RejectsTruncatedLine) {
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"clock\",\"beat\":0,\"node\":0,\"cl",
                     "unterminated", 2);
}

TEST(TraceDecode, RejectsOutOfOrderBeats) {
  expect_parse_error(
      std::string(kHeader) + clock_line(5, 0, 1) + clock_line(3, 1, 1),
      "beats out of order", 3);
}

TEST(TraceDecode, RejectsForgedRecordsFromFaultyNodes) {
  // Node 3 is declared faulty in the header; a coin record in its name is
  // a forgery, as is a clock or corrupt record.
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"coin\",\"beat\":0,\"node\":3,"
                         "\"stream\":1,\"bit\":0}",
                     "forged coin record from faulty node 3", 2);
  expect_parse_error(std::string(kHeader) + clock_line(0, 3, 1),
                     "forged clock record", 2);
  expect_parse_error(
      std::string(kHeader) + "{\"type\":\"corrupt\",\"beat\":0,\"node\":3}",
      "forged corrupt record", 2);
}

TEST(TraceDecode, RejectsStructuralGarbage) {
  expect_parse_error("", "missing header");
  expect_parse_error("\n", "empty line", 1);
  expect_parse_error(clock_line(0, 0, 1), "record before header", 1);
  expect_parse_error(std::string(kHeader) + kHeader, "duplicate header", 2);
  expect_parse_error(std::string(kHeader) + "{\"type\":\"warp\",\"beat\":0}",
                     "unknown type", 2);
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"clock\",\"beat\":0,\"node\":0,"
                         "\"clock\":1,\"k\":4,\"x\":1}",
                     "unknown key 'x'", 2);
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"clock\",\"beat\":0,\"beat\":1,"
                         "\"node\":0,\"clock\":1,\"k\":4}",
                     "duplicate key", 2);
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"coin\",\"beat\":0,\"node\":0,"
                         "\"stream\":1,\"bit\":2}",
                     "coin bit out of range", 2);
  expect_parse_error(std::string(kHeader) + clock_line(0, 9, 1),
                     "node out of range", 2);
  expect_parse_error(std::string(kHeader) + clock_line(0, 0, 1, 0),
                     "zero modulus", 2);
  expect_parse_error(std::string(kHeader) +
                         "{\"type\":\"clock\",\"beat\":0,\"node\":-1,"
                         "\"clock\":1,\"k\":4}",
                     "unsupported value", 2);
  expect_parse_error(std::string(kHeader) + clock_line(1, 0, 1) +
                         clock_line(2, 0, 1, 8),
                     "modulus mismatch", 3);
}

TEST(TraceDecode, MergeRejectsMissingNodesAndDuplicateClocks) {
  // A beat carrying clock records must carry exactly one per correct node.
  {
    ParseResult p = parse_str(std::string(kHeader) + clock_line(0, 0, 1) +
                              clock_line(0, 1, 1));
    ASSERT_TRUE(p.ok);
    std::vector<ParsedTrace> parts;
    parts.push_back(std::move(p.trace));
    const MergeResult m = merge_traces(std::move(parts));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("missing nodes"), std::string::npos) << m.error;
  }
  {
    ParseResult p = parse_str(std::string(kHeader) + clock_line(0, 0, 1) +
                              clock_line(0, 0, 1) + clock_line(0, 1, 1) +
                              clock_line(0, 2, 1));
    ASSERT_TRUE(p.ok);
    std::vector<ParsedTrace> parts;
    parts.push_back(std::move(p.trace));
    const MergeResult m = merge_traces(std::move(parts));
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("duplicate clock"), std::string::npos) << m.error;
  }
}

TEST(TraceDecode, MergeRejectsConflictingHeaders) {
  ParseResult a = parse_str(std::string(kHeader) + clock_line(0, 0, 1) +
                            clock_line(0, 1, 1) + clock_line(0, 2, 1));
  ASSERT_TRUE(a.ok);
  ParseResult b = parse_str(kHeader);
  ASSERT_TRUE(b.ok);
  b.trace.header.max_beats = 999;  // same (scenario, trial, seed), new body
  std::vector<ParsedTrace> parts;
  parts.push_back(std::move(a.trace));
  parts.push_back(std::move(b.trace));
  const MergeResult m = merge_traces(std::move(parts));
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("conflicting headers"), std::string::npos) << m.error;
}

TEST(TraceDecode, MergeFoldsSplitFilesIntoOneCanonicalStream) {
  // The same run split across two files (clocks here, coins there) must
  // merge into the identical stream — and thus the identical commitment —
  // as the single-file serialization.
  std::string whole = kHeader;
  std::string clocks = kHeader;
  std::string coins = kHeader;
  for (std::uint64_t b = 0; b < 6; ++b) {
    for (std::uint32_t node = 0; node < 3; ++node) {
      whole += clock_line(b, node, b % 4);
      clocks += clock_line(b, node, b % 4);
    }
    const std::string coin = "{\"type\":\"coin\",\"beat\":" +
                             std::to_string(b) +
                             ",\"node\":0,\"stream\":2,\"bit\":1}\n";
    whole += coin;
    coins += coin;
  }
  auto merged_commit = [](std::vector<std::string> files) {
    std::vector<ParsedTrace> parts;
    for (const std::string& f : files) {
      ParseResult p = parse_str(f);
      EXPECT_TRUE(p.ok) << p.error;
      parts.push_back(std::move(p.trace));
    }
    MergeResult m = merge_traces(std::move(parts));
    EXPECT_TRUE(m.ok) << m.error;
    EXPECT_EQ(m.traces.size(), 1u);
    return trace_commitment(m.traces[0]);
  };
  EXPECT_EQ(merged_commit({whole}), merged_commit({clocks, coins}));
  EXPECT_EQ(merged_commit({whole}), merged_commit({coins, clocks}));
}

TEST(TraceDecode, ReadTracesMergesFilesAndNamesTheFailingLine) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ssbft_read_traces";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const std::string& body) {
    const std::string path = (dir / name).string();
    std::ofstream(path) << body;
    return path;
  };
  const std::string clocks =
      std::string(kHeader) + clock_line(0, 0, 1) + clock_line(0, 1, 1) +
      clock_line(0, 2, 1);
  const std::string coin =
      "{\"type\":\"coin\",\"beat\":0,\"node\":0,\"stream\":2,\"bit\":1}\n";
  const std::string whole_path = write("whole.jsonl", clocks + coin);
  const std::string clocks_path = write("clocks.jsonl", clocks);
  const std::string coin_path = write("coin.jsonl", kHeader + coin);

  // Split files fold into the single file's canonical stream.
  const MergeResult whole = read_traces({whole_path});
  const MergeResult split = read_traces({coin_path, clocks_path});
  ASSERT_TRUE(whole.ok) << whole.error;
  ASSERT_TRUE(split.ok) << split.error;
  ASSERT_EQ(split.traces.size(), 1u);
  EXPECT_EQ(trace_commitment(split.traces[0]),
            trace_commitment(whole.traces[0]));

  // The first failure is one PATH:LINE: msg line; later files are unread.
  const std::string bad_path =
      write("bad.jsonl", std::string(kHeader) + "{\"type\":\"clock\"");
  const MergeResult bad = read_traces({whole_path, bad_path, "no-such"});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error.rfind(bad_path + ":2: ", 0), 0u) << bad.error;

  const std::string missing = (dir / "missing.jsonl").string();
  const MergeResult gone = read_traces({missing});
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error, "cannot open " + missing);
  fs::remove_all(dir);
}

TEST(TraceCommitment, SensitiveToContentNotOrderOfAggregation) {
  ParseResult a = parse_str(std::string(kHeader) + clock_line(0, 0, 1) +
                            clock_line(0, 1, 1) + clock_line(0, 2, 1));
  ParseResult b = parse_str(std::string(kHeader) + clock_line(0, 0, 2) +
                            clock_line(0, 1, 2) + clock_line(0, 2, 2));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  const std::string ca = trace_commitment(a.trace);
  const std::string cb = trace_commitment(b.trace);
  EXPECT_EQ(ca.size(), 64u);
  EXPECT_NE(ca, cb);
  EXPECT_EQ(aggregate_commitment({ca, cb}), aggregate_commitment({cb, ca}));
  EXPECT_NE(aggregate_commitment({ca, cb}), aggregate_commitment({ca, ca}));
}

}  // namespace
}  // namespace ssbft
