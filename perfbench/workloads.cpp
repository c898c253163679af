#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/chaos.h"
#include "harness/convergence.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "layers.h"
#include "sim/engine.h"
#include "support/check.h"

namespace perfbench {

using namespace ssbft;

namespace {

// ---------------------------------------------------------------- helpers

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Engine seed of setup r: the workload seed is the benchmark's only input.
std::uint64_t engine_seed(std::uint64_t seed, std::uint64_t r) {
  return Rng(seed).split("perfbench/engine", r).next_u64();
}

void add(RunResult& res, std::string name, double value, std::string unit) {
  res.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void problem(RunResult& res, std::string what) {
  res.correct = false;
  res.problems.push_back(std::move(what));
}

// A traced run spends about half its time on the untraced reference pass
// and the rest rerunning the same inputs traced.
double untraced_seconds(const RunOptions& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

// Everything a traced pass measured, in totals over the beats it covers.
struct LayerTotals {
  LayerSpans spans;
  std::uint64_t beats = 0;
  // Busy time of the beats: run_beat spans (steady workloads) or unit
  // spans minus their EngineBuilder call (chaos-net, checker included).
  std::uint64_t beat_ns = 0;
  std::uint64_t allocs = 0;
  BeatTraffic traffic;  // engine counters over the covered beats
  std::array<std::uint64_t, 4> fm_bytes{};
  // Harness view: units, their spans and builder calls, and the wall time
  // and worker count the units were scheduled on.
  std::uint64_t units = 0;
  std::uint64_t unit_ns = 0;
  double unit_setup_ns = 0.0;  // mean EngineBuilder call per unit
  std::uint64_t wall_ns = 0;
  std::uint64_t workers = 1;
  // beats_per_s of the traced pass, and of the untraced pass over the
  // same inputs.
  double traced_beats_per_s = 0.0;
  double untraced_beats_per_s = 0.0;
};

void add_traffic(BeatTraffic& acc, const BeatTraffic& t) {
  acc.correct_messages += t.correct_messages;
  acc.correct_bytes += t.correct_bytes;
  acc.adversary_messages += t.adversary_messages;
  acc.adversary_bytes += t.adversary_bytes;
  acc.phantom_messages += t.phantom_messages;
  acc.dropped_messages += t.dropped_messages;
  acc.eclipsed_messages += t.eclipsed_messages;
  acc.delayed_messages += t.delayed_messages;
  acc.reordered_messages += t.reordered_messages;
}

BeatTraffic traffic_delta(const BeatTraffic& after, const BeatTraffic& before) {
  BeatTraffic d;
  d.correct_messages = after.correct_messages - before.correct_messages;
  d.correct_bytes = after.correct_bytes - before.correct_bytes;
  d.adversary_messages = after.adversary_messages - before.adversary_messages;
  d.adversary_bytes = after.adversary_bytes - before.adversary_bytes;
  d.phantom_messages = after.phantom_messages - before.phantom_messages;
  d.dropped_messages = after.dropped_messages - before.dropped_messages;
  d.eclipsed_messages = after.eclipsed_messages - before.eclipsed_messages;
  d.delayed_messages = after.delayed_messages - before.delayed_messages;
  d.reordered_messages = after.reordered_messages - before.reordered_messages;
  return d;
}

// The per-layer metrics, in BENCHMARK.json order. Self times are a span
// minus the spans nested in it; each must be non-negative, and together
// with the leaf spans they add up to the beat exactly, so whatever no
// decorator covers lands in sim.engine.self_ns instead of going missing.
void add_layer_metrics(const LayerTotals& t, RunResult& res) {
  const LayerSpans& s = t.spans;
  const double beats = static_cast<double>(t.beats);
  const auto per_beat = [&](double v) { return ratio(v, beats); };
  const auto kib_per_beat = [&](std::uint64_t bytes) {
    return per_beat(static_cast<double>(bytes) / 1024.0);
  };
  const std::uint64_t nested = s.core_ns() + s.adversary_ns + s.listener_ns;
  if (nested > t.beat_ns || s.coin_ns() > s.core_ns() ||
      s.fm_ns() > s.coin_ns() || t.unit_ns < t.beat_ns) {
    problem(res, "layer spans do not nest inside their parents");
    return;
  }
  const std::uint64_t engine_self = t.beat_ns - nested;
  const std::uint64_t core_self = s.core_ns() - s.coin_ns();
  const std::uint64_t coin_self = s.coin_ns() - s.fm_ns();
  if (engine_self + core_self + coin_self + s.fm_ns() + s.adversary_ns +
          s.listener_ns !=
      t.beat_ns) {
    problem(res, "per-layer self times do not add up to the beat");
  }

  add(res, "sim.engine.beat_ns", per_beat(t.beat_ns), "ns");
  add(res, "sim.engine.self_ns", per_beat(engine_self), "ns");
  add(res, "sim.listener_ns", per_beat(s.listener_ns), "ns");
  add(res, "sim.delivery.dropped_per_beat",
      per_beat(t.traffic.dropped_messages), "count");
  add(res, "sim.delivery.phantom_per_beat",
      per_beat(t.traffic.phantom_messages), "count");
  add(res, "sim.delivery.eclipsed_per_beat",
      per_beat(t.traffic.eclipsed_messages), "count");
  add(res, "sim.delivery.delayed_per_beat",
      per_beat(t.traffic.delayed_messages), "count");
  add(res, "sim.delivery.reordered_per_beat",
      per_beat(t.traffic.reordered_messages), "count");
  add(res, "sim.allocs_per_beat", per_beat(t.allocs), "count");
  add(res, "core.send_ns", per_beat(s.core_send_ns), "ns");
  add(res, "core.recv_ns", per_beat(s.core_recv_ns), "ns");
  add(res, "core.self_ns", per_beat(core_self), "ns");
  add(res, "coin.pipeline.send_ns", per_beat(s.coin_send_ns), "ns");
  add(res, "coin.pipeline.recv_ns", per_beat(s.coin_recv_ns), "ns");
  add(res, "coin.pipeline.self_ns", per_beat(coin_self), "ns");
  add(res, "coin.pipeline.calls_per_beat", per_beat(s.coin_calls), "count");
  static const char* const kRound[4] = {"deal", "cross", "vote", "recover"};
  for (int r = 0; r < 4; ++r) {
    const std::string base = std::string("coin.fm.") + kRound[r];
    add(res, base + ".send_ns", per_beat(s.fm_send_ns[r]), "ns");
    add(res, base + ".recv_ns", per_beat(s.fm_recv_ns[r]), "ns");
  }
  for (int r = 0; r < 4; ++r) {
    add(res, std::string("coin.fm.") + kRound[r] + ".kib_per_beat",
        kib_per_beat(t.fm_bytes[r]), "KiB");
  }
  add(res, "coin.agreement_ratio",
      ratio(s.coin_agree_beats, s.coin_beats), "ratio");
  add(res, "coin.beat_share", ratio(s.coin_ns(), t.beat_ns), "ratio");
  add(res, "adversary.act_ns", per_beat(s.adversary_ns), "ns");
  add(res, "adversary.msgs_per_beat", per_beat(t.traffic.adversary_messages),
      "count");
  add(res, "adversary.kib_per_beat", kib_per_beat(t.traffic.adversary_bytes),
      "KiB");
  const double units = static_cast<double>(t.units);
  add(res, "harness.unit_setup_ns", t.unit_setup_ns, "ns");
  add(res, "harness.unit_ns", ratio(t.unit_ns, units), "ns");
  add(res, "harness.unit_self_ns", ratio(t.unit_ns - nested, units), "ns");
  add(res, "harness.sweep.busy_ratio",
      ratio(t.unit_ns, static_cast<double>(t.wall_ns) * t.workers), "ratio");
  add(res, "trace.beats_per_s", t.traced_beats_per_s, "1/s");
  add(res, "trace.untraced_beats_per_s", t.untraced_beats_per_s, "1/s");
  add(res, "trace.overhead_ratio",
      ratio(t.untraced_beats_per_s, t.traced_beats_per_s) - 1.0, "ratio");
}

// ------------------------------------------------------- steady workloads

// One ss-Byz-Clock-Sync cycle: the steady workloads' unit.
constexpr std::uint64_t kCycle = 4;
// Bounded metrics history, as in the alloc_test engines: an unbounded
// history grows a vector per beat, which a timed beat must not do.
constexpr std::size_t kSteadyHistory = 8;

struct SteadySpec {
  const char* name;
  const char* cell;
  // Engines set up per untraced run: the timed one first, the others
  // spread evenly through the timed loop. setup_s is the median of their
  // set-up times, convergence_beats_mean the mean of their convergence
  // beats.
  std::uint64_t setups;
  // Beats run after confirmed convergence, so pool growth, coin scratch
  // and recovery tables reach steady size before timing.
  std::uint64_t warm_beats;
};

constexpr SteadySpec kFmN64{"fm-n64", "scaling-large/sync-fm/n64", 4, 16};
constexpr SteadySpec kOracleN128{"oracle-n128", "scaling-large/sync/n128", 16,
                                 16};

struct SteadyEngine {
  EngineBundle bundle;
  bool converged = false;
  Beat synced_at = 0;
  std::vector<ClockValue> clocks;  // the correct clocks after set-up
  std::uint64_t build_ns = 0;      // the builder call
  std::uint64_t setup_ns = 0;      // builder + convergence + warm-up
};

SteadyEngine setup_steady(const EngineBuilder& build, const ScenarioSpec& spec,
                          const SteadySpec& ws, std::uint64_t seed) {
  SteadyEngine s;
  const std::uint64_t t0 = now_ns();
  s.bundle = build(seed);
  s.build_ns = now_ns() - t0;
  const ConvergenceResult r = measure_convergence(
      *s.bundle.engine, scenario_runner_config(spec).convergence);
  s.converged = r.converged;
  s.synced_at = r.synced_at;
  s.bundle.engine->run_beats(ws.warm_beats);
  s.setup_ns = now_ns() - t0;
  s.clocks = s.bundle.engine->correct_clocks();
  return s;
}

struct BeatLoop {
  std::vector<double> cycle_ns;  // per cycle, the sum of its beat spans
  std::uint64_t beats = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t wall_ns = 0;
  BeatTraffic traffic;
  std::vector<ClockValue> final_clocks;
};

// Closed loop of whole cycles: until `seconds` of wall time have passed
// (fixed_beats == 0) or for exactly `fixed_beats` beats. Each beat is timed
// alone. Between beats, outside the span, every correct clock must equal
// the previous common value plus one mod k, or the beat fails.
BeatLoop run_timed_beats(Engine& e, double seconds, std::uint64_t fixed_beats,
                         EngineProbe* probe) {
  std::vector<const ClockProtocol*> clocks;
  for (NodeId id : e.correct_ids()) {
    clocks.push_back(dynamic_cast<const ClockProtocol*>(&e.node(id)));
    SSBFT_CHECK(clocks.back() != nullptr);
  }
  const ClockValue k = clocks.front()->modulus();
  ClockValue expect = clocks.front()->clock();
  BeatLoop loop;
  loop.cycle_ns.reserve(fixed_beats != 0 ? fixed_beats / kCycle : 1u << 14);
  const BeatTraffic before = e.metrics().total();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t start = now_ns();
  while (fixed_beats != 0 ? loop.beats < fixed_beats
                          : now_ns() - start < budget_ns) {
    std::uint64_t cycle_ns = 0;
    for (std::uint64_t c = 0; c < kCycle; ++c) {
      const std::uint64_t a0 = thread_allocations();
      const std::uint64_t t0 = now_ns();
      e.run_beat();
      const std::uint64_t dt = now_ns() - t0;
      loop.allocs += thread_allocations() - a0;
      cycle_ns += dt;
      ++loop.beats;
      expect = (expect + 1) % k;
      bool ok = true;
      for (const ClockProtocol* cp : clocks) ok = ok && cp->clock() == expect;
      if (!ok) {
        ++loop.failed;
        expect = clocks.front()->clock();
      }
      if (probe != nullptr) probe->tally_coin_agreement();
    }
    loop.busy_ns += cycle_ns;
    loop.cycle_ns.push_back(static_cast<double>(cycle_ns));
  }
  loop.wall_ns = now_ns() - start;
  loop.traffic = traffic_delta(e.metrics().total(), before);
  for (const ClockProtocol* cp : clocks) {
    loop.final_clocks.push_back(cp->clock());
  }
  return loop;
}

void append(BeatLoop& acc, const BeatLoop& part) {
  acc.cycle_ns.insert(acc.cycle_ns.end(), part.cycle_ns.begin(),
                      part.cycle_ns.end());
  acc.beats += part.beats;
  acc.failed += part.failed;
  acc.allocs += part.allocs;
  acc.busy_ns += part.busy_ns;
  acc.wall_ns += part.wall_ns;
  add_traffic(acc.traffic, part.traffic);
  acc.final_clocks = part.final_clocks;
}

std::vector<double> scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

RunResult run_steady(const SteadySpec& ws, const RunOptions& o) {
  const ScenarioSpec* spec = find_scenario(ws.cell);
  SSBFT_CHECK(spec != nullptr && spec->family == Family::kClockSync);
  RunResult res;

  const auto bench_builder = [&](EngineProbe* probe) -> EngineBuilder {
    return [&world = spec->world, probe](std::uint64_t seed) {
      return build_clock_sync_engine(world, seed, kSteadyHistory, probe);
    };
  };
  const std::uint64_t timed_seed = engine_seed(o.seed, 0);

  // Untraced pass. The host's speed drifts over tens of seconds, so the
  // set-ups after the timed engine's are spread evenly through the timed
  // loop: setup_s then samples the same stretch of time as the beats. A
  // traced run sets up only the timed engine.
  std::vector<double> setup_s;
  std::vector<double> synced;
  const auto record = [&](const SteadyEngine& s) {
    if (!s.converged) problem(res, "a set-up engine did not converge");
    setup_s.push_back(static_cast<double>(s.setup_ns) * 1e-9);
    synced.push_back(static_cast<double>(s.synced_at));
  };
  SteadyEngine eng =
      setup_steady(bench_builder(nullptr), *spec, ws, timed_seed);
  record(eng);
  const std::uint64_t slices = o.trace ? 1 : ws.setups;
  BeatLoop loop;
  for (std::uint64_t r = 1;; ++r) {
    append(loop, run_timed_beats(*eng.bundle.engine,
                                 untraced_seconds(o) / slices, 0, nullptr));
    if (r == slices) break;
    record(setup_steady(bench_builder(nullptr), *spec, ws,
                        engine_seed(o.seed, r)));
  }
  const double beats = static_cast<double>(loop.beats);
  const double busy_s = static_cast<double>(loop.busy_ns) * 1e-9;
  // The four beats of a cycle do different work (clock-sync phases 0-3,
  // sub-clock coins stepping on alternate beats), so single beat times are
  // multimodal. beat_ms is the mean beat time of each cycle, like
  // chaos-net's per-unit mean.
  const std::vector<double> cycle_ms = scaled(loop.cycle_ns, 1e-6);
  const std::vector<double> beat_ms = scaled(cycle_ms, 1.0 / kCycle);
  res.beat_samples = beat_ms.size();
  res.unit_samples = cycle_ms.size();
  if (loop.failed != 0) problem(res, "a timed beat broke clock closure");

  if (!o.trace) {
    res.attempted = loop.beats;
    res.failed = loop.failed;
    double synced_sum = 0.0;
    for (double v : synced) synced_sum += v;
    add(res, "beat_ms_p90", percentile(beat_ms, 0.9), "ms");
    add(res, "unit_ms_p90", percentile(cycle_ms, 0.9), "ms");
    add(res, "setup_s", percentile(setup_s, 0.5), "s");
    add(res, "peak_rss_mib", peak_rss_mib(), "MiB");
    add(res, "kib_per_beat", loop.traffic.correct_bytes / 1024.0 / beats,
        "KiB");
    add(res, "msgs_per_beat", loop.traffic.correct_messages / beats, "count");
    add(res, "convergence_beats_mean",
        synced_sum / static_cast<double>(synced.size()), "beats");
    return res;
  }

  // The registry's own builder must set up the same engine state: the
  // benchmark's builder differs only in its bounded metrics history.
  eng.bundle = EngineBundle{};
  const SteadyEngine registry =
      setup_steady(build_scenario(*spec), *spec, ws, timed_seed);
  if (registry.synced_at != eng.synced_at || registry.clocks != eng.clocks) {
    problem(res, "the benchmark engine differs from the registry cell's");
  }

  // Traced pass: the same engine seed, the same warm-up, the same number
  // of timed beats, every layer behind a timing decorator.
  EngineProbe probe;
  SteadyEngine traced =
      setup_steady(bench_builder(&probe), *spec, ws, timed_seed);
  traced.bundle.engine->reset_channel_bytes();
  probe.spans = LayerSpans{};
  const BeatLoop tl =
      run_timed_beats(*traced.bundle.engine, 0.0, loop.beats, &probe);
  res.attempted = tl.beats;
  res.failed = tl.failed;
  if (traced.synced_at != eng.synced_at ||
      tl.final_clocks != loop.final_clocks ||
      tl.traffic.correct_messages != loop.traffic.correct_messages ||
      tl.traffic.correct_bytes != loop.traffic.correct_bytes) {
    problem(res, "the traced run diverged from the untraced run");
  }

  LayerTotals t;
  t.spans = probe.spans;
  t.beats = tl.beats;
  t.beat_ns = tl.busy_ns;
  t.allocs = tl.allocs;
  t.traffic = tl.traffic;
  for (int r = 0; r < 4; ++r) {
    t.fm_bytes[r] = probe.fm_round_bytes(*traced.bundle.engine, r + 1);
  }
  t.units = tl.beats / kCycle;
  t.unit_ns = tl.busy_ns;
  t.unit_setup_ns = static_cast<double>(traced.build_ns);  // one engine
  t.wall_ns = tl.wall_ns;
  t.traced_beats_per_s = beats / (static_cast<double>(tl.busy_ns) * 1e-9);
  t.untraced_beats_per_s = beats / busy_s;
  add_layer_metrics(t, res);
  return res;
}

// ------------------------------------------------------------- chaos-net

constexpr const char* kChaosCells = "net/*";
// Sweep workers: fewer than the 4 hardware threads of the reference host,
// so the scheduler is measured without oversubscription.
constexpr std::uint64_t kChaosJobs = 2;
// Units per sweep batch: a multiple of the 12 net/* cells, so every batch
// perturbs each cell equally often.
constexpr std::uint64_t kChaosBatch = 48;
// Warm-up units are drawn far outside the timed unit-index range.
constexpr std::uint64_t kWarmupFirstUnit = std::uint64_t{1} << 40;

struct UnitRecord {
  std::uint64_t setup_ns = 0;  // the EngineBuilder call
  std::uint64_t unit_ns = 0;   // builder entry to bundle release
  std::uint64_t allocs = 0;
  std::uint64_t beats = 0;
  BeatTraffic traffic;
  std::array<std::uint64_t, 4> fm_bytes{};
  std::unique_ptr<EngineProbe> probe;  // traced passes only
};

// Tallies coin agreement of the previous beat at the start of each beat.
class AgreementTally final : public BeatListener {
 public:
  explicit AgreementTally(EngineProbe* probe) : probe_(probe) {}
  void on_beat(Beat beat) override {
    if (beat > 0) probe_->tally_coin_agreement();
  }

 private:
  EngineProbe* probe_;
};

// Rides in the bundle's keepalive: the sweep releases the keepalive when
// the unit ends, before the engine, so the destructor still sees the
// engine's final state.
class UnitGuard {
 public:
  UnitGuard(UnitRecord* rec, const Engine* engine, std::shared_ptr<void> inner,
            std::uint64_t start_ns, std::uint64_t start_allocs)
      : rec_(rec), engine_(engine), inner_(std::move(inner)),
        start_ns_(start_ns), start_allocs_(start_allocs),
        tally_(rec->probe.get()) {}
  ~UnitGuard() {
    rec_->unit_ns = now_ns() - start_ns_;
    rec_->allocs = thread_allocations() - start_allocs_;
    rec_->beats = engine_->beat();
    rec_->traffic = engine_->metrics().total();
    if (EngineProbe* p = rec_->probe.get()) {
      if (rec_->beats > 0) p->tally_coin_agreement();  // the final beat
      for (int r = 0; r < 4; ++r) {
        rec_->fm_bytes[r] = p->fm_round_bytes(*engine_, r + 1);
      }
    }
  }
  UnitGuard(const UnitGuard&) = delete;
  UnitGuard& operator=(const UnitGuard&) = delete;

  AgreementTally* tally() { return &tally_; }

 private:
  UnitRecord* rec_;
  const Engine* engine_;
  std::shared_ptr<void> inner_;
  std::uint64_t start_ns_;
  std::uint64_t start_allocs_;
  AgreementTally tally_;
};

// EngineBuilder decorator: times the builder call and, through the
// keepalive, the whole unit.
EngineBuilder probe_unit(EngineBuilder inner, UnitRecord* rec) {
  return [inner = std::move(inner), rec](std::uint64_t seed) {
    const std::uint64_t start = now_ns();
    const std::uint64_t allocs = thread_allocations();
    EngineBundle b = inner(seed);
    rec->setup_ns = now_ns() - start;
    auto guard = std::make_shared<UnitGuard>(rec, b.engine.get(),
                                             std::move(b.keepalive), start,
                                             allocs);
    if (rec->probe) b.engine->add_listener(guard->tally());
    b.keepalive = std::move(guard);
    return b;
  };
}

struct Batch {
  std::uint64_t prep_ns = 0;  // plan sampling + cell building
  std::uint64_t wall_ns = 0;  // the sweep
  std::vector<UnitRecord> recs;
  SweepResult res;
};

// One soak batch: units first..first+kChaosBatch-1 of the campaign, sampled
// and built exactly as `ssbft_bench soak` does, run through the sweep
// scheduler with streaming invariant checking.
Batch run_batch(const std::vector<const ScenarioSpec*>& matched,
                const FaultPlanGenerator& gen, std::uint64_t first,
                bool traced) {
  Batch bt;
  bt.recs.resize(kChaosBatch);
  const std::uint64_t t0 = now_ns();
  std::vector<SweepCell> cells;
  cells.reserve(kChaosBatch);
  for (std::uint64_t i = 0; i < kChaosBatch; ++i) {
    const std::uint64_t u = first + i;
    const ScenarioSpec& spec = *matched[u % matched.size()];
    const ChaosUnit unit = gen.make_unit(u, spec.name, spec.world.n,
                                         spec.world.actual, spec.max_beats);
    World w = spec.world;
    w.faults = unit.plan;
    w.faulty_override = unit.faulty;
    RunnerConfig rc = scenario_runner_config(spec);
    rc.trials = 1;
    rc.base_seed = unit.engine_seed;
    UnitRecord* rec = &bt.recs[i];
    EngineBuilder inner;
    if (traced) {
      rec->probe = std::make_unique<EngineProbe>();
      inner = [w, probe = rec->probe.get()](std::uint64_t seed) {
        return build_clock_sync_engine(w, seed, 0, probe);
      };
    } else {
      inner = build_world(spec.family, w);
    }
    cells.push_back(SweepCell{"chaos/s" + std::to_string(gen.campaign_seed()) +
                                  "/u" + std::to_string(u) + "/" + spec.name,
                              probe_unit(std::move(inner), rec), rc});
  }
  bt.prep_ns = now_ns() - t0;
  SweepOptions so;
  so.jobs = kChaosJobs;
  so.live_check = true;
  const std::uint64_t t1 = now_ns();
  bt.res = run_sweep_ex(cells, so);
  bt.wall_ns = now_ns() - t1;
  return bt;
}

RunResult run_chaos(const RunOptions& o) {
  const std::vector<const ScenarioSpec*> matched = match_scenarios(kChaosCells);
  SSBFT_CHECK(matched.size() == 12);
  for (const ScenarioSpec* spec : matched) {
    SSBFT_CHECK(spec->family == Family::kClockSync);
  }
  const FaultPlanGenerator gen(o.seed);
  RunResult res;

  // Warm-up: the first campaign in a fresh process runs markedly slower.
  (void)run_batch(matched, gen, kWarmupFirstUnit, false);

  std::vector<Batch> batches;
  std::uint64_t wall_ns = 0;
  const auto budget_ns = static_cast<std::uint64_t>(untraced_seconds(o) * 1e9);
  while (wall_ns < budget_ns) {
    batches.push_back(run_batch(matched, gen, batches.size() * kChaosBatch,
                                false));
    wall_ns += batches.back().wall_ns;
  }

  std::vector<double> prep_s, unit_ms, beat_ms;
  std::uint64_t units = 0, beats = 0, failed = 0, converged = 0;
  double synced_sum = 0.0;
  BeatTraffic traffic;
  for (const Batch& bt : batches) {
    prep_s.push_back(static_cast<double>(bt.prep_ns) * 1e-9);
    for (std::size_t i = 0; i < bt.recs.size(); ++i) {
      const UnitRecord& rec = bt.recs[i];
      const TrialOutcome& out = bt.res.units[i].outcome;
      ++units;
      beats += rec.beats;
      add_traffic(traffic, rec.traffic);
      unit_ms.push_back(static_cast<double>(rec.unit_ns) * 1e-6);
      beat_ms.push_back(static_cast<double>(rec.unit_ns) * 1e-6 /
                        static_cast<double>(rec.beats));
      if (out.converged) {
        ++converged;
        synced_sum += static_cast<double>(out.synced_at);
      }
      if (out.check_violations != 0 || !out.converged) ++failed;
    }
  }
  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  const double untraced_bps = static_cast<double>(beats) / wall_s;
  res.beat_samples = beat_ms.size();
  res.unit_samples = unit_ms.size();

  if (!o.trace) {
    res.attempted = units;
    res.failed = failed;
    if (failed != 0) {
      problem(res, "a chaos unit violated an invariant or did not converge");
    }
    add(res, "beat_ms_p90", percentile(beat_ms, 0.9), "ms");
    add(res, "unit_ms_p90", percentile(unit_ms, 0.9), "ms");
    add(res, "setup_s", percentile(prep_s, 0.5), "s");
    add(res, "peak_rss_mib", peak_rss_mib(), "MiB");
    add(res, "kib_per_beat",
        static_cast<double>(traffic.correct_bytes) / 1024.0 / beats, "KiB");
    add(res, "msgs_per_beat",
        static_cast<double>(traffic.correct_messages) / beats, "count");
    add(res, "convergence_beats_mean", ratio(synced_sum, converged), "beats");
    return res;
  }

  // Traced pass over exactly the same units.
  LayerTotals t;
  t.workers = kChaosJobs;
  t.untraced_beats_per_s = untraced_bps;
  std::uint64_t traced_failed = 0;
  bool diverged = false;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch tb = run_batch(matched, gen, b * kChaosBatch, true);
    t.wall_ns += tb.wall_ns;
    for (std::size_t i = 0; i < tb.recs.size(); ++i) {
      const UnitRecord& rec = tb.recs[i];
      const TrialOutcome& out = tb.res.units[i].outcome;
      const TrialOutcome& ref = batches[b].res.units[i].outcome;
      diverged = diverged || out.converged != ref.converged ||
                 out.synced_at != ref.synced_at ||
                 out.msgs_per_beat != ref.msgs_per_beat ||
                 out.check_violations != ref.check_violations ||
                 rec.traffic.correct_bytes !=
                     batches[b].recs[i].traffic.correct_bytes;
      if (out.check_violations != 0 || !out.converged) ++traced_failed;
      t.spans.add(rec.probe->spans);
      t.beats += rec.beats;
      t.beat_ns += rec.unit_ns - rec.setup_ns;
      t.allocs += rec.allocs;
      add_traffic(t.traffic, rec.traffic);
      for (int r = 0; r < 4; ++r) t.fm_bytes[r] += rec.fm_bytes[r];
      ++t.units;
      t.unit_ns += rec.unit_ns;
      t.unit_setup_ns += static_cast<double>(rec.setup_ns);
    }
  }
  t.unit_setup_ns /= static_cast<double>(t.units);
  t.traced_beats_per_s =
      static_cast<double>(t.beats) / (static_cast<double>(t.wall_ns) * 1e-9);
  res.attempted = t.units;
  res.failed = traced_failed;
  if (diverged) problem(res, "the traced run diverged from the untraced run");
  if (failed + traced_failed != 0) {
    problem(res, "a chaos unit violated an invariant or did not converge");
  }
  add_layer_metrics(t, res);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kFmN64.name,
                                                 kOracleN128.name, "chaos-net"};
  return names;
}

RunResult run_workload(const RunOptions& o) {
  if (o.workload == kFmN64.name) return run_steady(kFmN64, o);
  if (o.workload == kOracleN128.name) return run_steady(kOracleN128, o);
  if (o.workload == "chaos-net") return run_chaos(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
