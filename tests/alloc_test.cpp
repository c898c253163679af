// Proof that the steady-state beat loop is allocation-free: global
// operator new/delete are replaced with counting versions, an engine is
// warmed up until the payload arena and every scratch vector have reached
// their steady capacity, and then whole beats must run with a zero allocation
// delta — send phases, adversary turn, delivery, inbox bucketing, receive
// phases and metrics included.
//
// The protocol and adversary used here are deliberately allocation-free
// (reusable ByteWriters, span-based reads); protocols that decode
// variable-length vectors still allocate in their own receive logic, which
// is outside the engine-plumbing contract this test pins down.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "adversary/adversaries.h"
#include "coin/fm_coin.h"
#include "core/clock_sync.h"
#include "harness/live_check.h"
#include "harness/scenario.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "support/bytes.h"

namespace {

// Beat workers allocate on their own threads (while warming up), so the
// counter is atomic; relaxed is enough, it is read between beats.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ssbft {
namespace {

// Broadcasts fixed-size payloads on two channels; reads via spans only.
class SteadyProtocol final : public ClockProtocol {
 public:
  explicit SteadyProtocol(const ProtocolEnv& env) : env_(env) {}

  void send_phase(Outbox& out) override {
    ByteWriter& w = out.writer();
    w.u32(env_.self);
    w.u64(state_);
    out.broadcast(0, w.data());
    ByteWriter& w2 = out.writer();
    w2.u64(state_ ^ 0x9e3779b97f4a7c15ull);
    out.broadcast(1, w2.data());
  }

  void receive_phase(const Inbox& in) override {
    std::uint64_t acc = 0;
    for (ChannelId ch = 0; ch < 2; ++ch) {
      for (const ByteSpan* p : in.first_per_sender(ch)) {
        if (p == nullptr) continue;
        ByteReader r(*p);
        if (ch == 0) (void)r.u32();
        acc += r.u64();
      }
    }
    state_ += acc + 1;
  }

  void randomize_state(Rng& rng) override { state_ = rng.next_u64(); }
  ClockValue clock() const override { return state_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 2; }

 private:
  ProtocolEnv env_;
  std::uint64_t state_ = 0;
};

// Equivocates per recipient from every faulty node, via a reused writer.
class SteadyAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    for (NodeId from : ctx.faulty()) {
      for (NodeId to = 0; to < ctx.n(); ++to) {
        w_.clear();
        w_.u32(from);
        w_.u64(ctx.beat() * 2 + (to % 2));
        ctx.send(from, to, 0, w_.data());
      }
    }
  }

 private:
  ByteWriter w_;
};

ProtocolFactory steady_factory() {
  return [](const ProtocolEnv& env, Rng) {
    return std::make_unique<SteadyProtocol>(env);
  };
}

TEST(AllocationFreeBeat, AllCorrect) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 0;
  cfg.seed = 3;
  cfg.metrics_history_limit = 8;  // unbounded history would grow per beat
  Engine eng(cfg, steady_factory(), nullptr);
  eng.run_beats(64);  // arena and scratch capacities settle
  const std::size_t before = g_allocations;
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state run_beat() touched the heap";
}

// Equivocating sends plus a shared broadcast from every faulty node, via
// reused writers — exercises AdversaryContext::broadcast's copy-once path.
class BroadcastingAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    for (NodeId from : ctx.faulty()) {
      w_.clear();
      w_.u32(from);
      w_.u64(ctx.beat());
      ctx.broadcast(from, 0, w_.data());
      w_.clear();
      w_.u64(ctx.beat() * 3 + 1);
      ctx.send(from, from % ctx.n(), 1, w_.data());
    }
  }

 private:
  ByteWriter w_;
};

// The full fabric under stress: broadcasts fanning out as shared spans, an
// adversary observing and re-broadcasting, a permanently faulty network
// dropping messages and injecting phantom payloads, and faulty recipients
// swallowing traffic — all must reuse the arena with a zero steady-state
// allocation delta.
TEST(AllocationFreeBeat, BroadcastsDropsPhantomsAndFaultyRecipients) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
  cfg.seed = 6;
  cfg.metrics_history_limit = 8;
  cfg.faults.network_faulty_until = ~std::uint64_t{0};
  cfg.faults.faulty_drop_prob = 0.2;
  cfg.faults.phantoms_per_beat = 3;
  cfg.faults.phantom_max_len = 48;
  Engine eng(cfg, steady_factory(), std::make_unique<BroadcastingAdversary>());
  eng.run_beats(64);  // arena, inbox buckets and phantom reserve settle
  const std::size_t before = g_allocations;
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state beat with drops/phantoms/faulty targets touched the "
         "heap";
}

// Every delivery kind under a lossy, phantom-injecting network. A
// targeted delay parks payload copies across beats in its pending ring; a
// reorder collects each beat's survivors for its shuffle. Once the ring
// slots, the arenas, the shuffle scratch and the inbox buckets have
// settled, a warm beat — flush due traffic, sample drops, cut, park or
// shuffle, inject phantoms — must still not touch the heap.
TEST(AllocationFreeBeat, EveryDeliveryKindWithDropsAndPhantoms) {
  for (DeliveryKind kind :
       {DeliveryKind::kSynchronous, DeliveryKind::kEclipse,
        DeliveryKind::kPartition, DeliveryKind::kTargetedDelay,
        DeliveryKind::kReorder}) {
    SCOPED_TRACE(delivery_kind_name(kind));
    EngineConfig cfg;
    cfg.n = 16;
    cfg.f = 5;
    cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
    cfg.seed = 8;
    cfg.metrics_history_limit = 8;
    cfg.faults.network_faulty_until = ~std::uint64_t{0};
    cfg.faults.faulty_drop_prob = 0.2;
    cfg.faults.phantoms_per_beat = 3;
    cfg.faults.phantom_max_len = 48;
    cfg.faults.delivery.kind = kind;
    cfg.faults.delivery.victims = {0, 1, 2};
    cfg.faults.delivery.allowed_senders = {3};
    cfg.faults.delivery.partition_split = 8;
    cfg.faults.delivery.delay_beats = 3;
    Engine eng(cfg, steady_factory(),
               std::make_unique<BroadcastingAdversary>());
    eng.run_beats(64);  // ring slots, scratch and arena demand settle
    const std::size_t before = g_allocations;
    eng.run_beats(32);
    EXPECT_EQ(g_allocations - before, 0u)
        << "steady-state beat under this delivery kind touched the heap";
  }
}

// A trace sink that only counts: the engine-side emission path (record
// ring, per-node emitters, metrics summary) must keep whole traced beats
// heap-silent once the ring is bound; JsonlTraceSink is the deliberately
// allocating boundary, not this contract.
class CountingTraceSink final : public TraceSink {
 public:
  void write(const TraceRecord* records, std::size_t count) override {
    records_ += count;
    for (std::size_t i = 0; i < count; ++i) {
      checksum_ ^= records[i].a + records[i].beat;
    }
  }
  void end_beat(Beat) override { ++beats_; }

  std::size_t records() const { return records_; }
  std::size_t beats() const { return beats_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::size_t records_ = 0;
  std::size_t beats_ = 0;
  std::uint64_t checksum_ = 0;
};

TEST(AllocationFreeBeat, TracedBeatsWithNonAllocatingSink) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
  cfg.seed = 7;
  cfg.metrics_history_limit = 8;
  Engine eng(cfg, steady_factory(), std::make_unique<SteadyAdversary>());
  CountingTraceSink sink;
  eng.set_trace(&sink);  // binds the record ring: capacity reserved here
  eng.run_beats(64);
  const std::size_t before = g_allocations;
  const std::size_t records_before = sink.records();
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "traced steady-state run_beat() touched the heap";
  // The beats really were traced: one clock record per correct node per
  // beat plus the engine summary.
  EXPECT_GE(sink.records() - records_before, 32u * 12u);
  EXPECT_EQ(sink.beats(), 96u);
}

// Streaming invariant checking rides the same trace path: once the
// checker's per-beat scratch has settled, a whole checked beat — clock
// feeds, streak update, coin folding — must run with a zero allocation
// delta. Violation formatting is the deliberately allocating boundary; a
// green run never crosses it.
TEST(AllocationFreeBeat, TracedBeatsWithStreamingCheckerAttached) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
  cfg.seed = 7;
  cfg.metrics_history_limit = 8;
  Engine eng(cfg, steady_factory(), std::make_unique<SteadyAdversary>());
  StreamingChecker checker;
  TraceMeta meta;
  meta.scenario = "alloc";
  meta.seed = 7;
  meta.n = 16;
  meta.f = 5;
  meta.faulty = cfg.faulty;
  meta.max_beats = 96;
  meta.confirm_window = 12;
  checker.begin_trace(meta);
  eng.set_trace(&checker);
  eng.run_beats(64);  // record ring and checker scratch settle
  const std::size_t before = g_allocations;
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state run_beat() with a streaming checker touched the heap";
  const CheckResult& res = checker.finish();
  EXPECT_EQ(res.beats, 96u);
  EXPECT_TRUE(res.ok)
      << (res.violations.empty() ? "" : res.violations[0]);
}

TEST(AllocationFreeBeat, WithAdversary) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
  cfg.seed = 4;
  cfg.metrics_history_limit = 8;
  Engine eng(cfg, steady_factory(), std::make_unique<SteadyAdversary>());
  eng.run_beats(64);
  const std::size_t before = g_allocations;
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state run_beat() with an adversary touched the heap";
}

// Broadcasts one clock value (u64 < kVoteModulus) on channel 0. On even
// beats ids 0..6 agree on one value and the rest differ, which puts the
// adaptive quorum splitter in its split window (n-2f <= c < n-f at n=16,
// f=5); on odd beats every value differs, which sends it to its noise
// branch.
constexpr ClockValue kVoteModulus = 64;

class ClockVoteProtocol final : public ClockProtocol {
 public:
  explicit ClockVoteProtocol(const ProtocolEnv& env) : env_(env) {}

  void send_phase(Outbox& out) override {
    const bool agree = beat_ % 2 == 0 && env_.self < 7;
    ByteWriter& w = out.writer();
    w.u64(agree ? 5 : (env_.self + 8 + beat_) % kVoteModulus);
    out.broadcast(0, w.data());
  }

  void receive_phase(const Inbox& in) override {
    for (const ByteSpan* p : in.first_per_sender(0)) {
      if (p == nullptr) continue;
      ByteReader r(*p);
      sum_ += r.u64();
    }
    ++beat_;
  }

  void randomize_state(Rng&) override {}
  ClockValue clock() const override { return beat_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 1; }

 private:
  ProtocolEnv env_;
  std::uint64_t beat_ = 0;
  std::uint64_t sum_ = 0;
};

TEST(AllocationFreeBeat, WithAdaptiveQuorumSplitter) {
  EngineConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.faulty = EngineConfig::last_ids_faulty(16, 5);
  cfg.seed = 9;
  cfg.metrics_history_limit = 8;
  auto factory = [](const ProtocolEnv& env, Rng) {
    return std::make_unique<ClockVoteProtocol>(env);
  };
  Engine eng(cfg, factory, make_adaptive_quorum_splitter(kVoteModulus, 0));
  eng.run_beats(64);  // splitter scratch and arena settle
  const std::size_t before = g_allocations;
  eng.run_beats(32);  // both the split and the noise branch, alternately
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state beat with the adaptive quorum splitter touched the "
         "heap";
}

// The full protocol stack — ss-Byz-Clock-Sync over three FM-coin pipelines
// — must also run warm beats without touching the heap: coin instances are
// reinit-recycled by the pipeline, all round state lives in flat scratch,
// payload decode goes through masked_u64_vec_into and bits_into into that
// scratch, and share recovery uses the precomputed Lagrange tables (the
// faulty nodes are silent and carry the highest ids, so every recovery sees
// the canonical prefix subset and the Berlekamp-Welch slow path — which may
// allocate — never triggers).
TEST(AllocationFreeBeat, FmCoinClockSyncStack) {
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = EngineConfig::last_ids_faulty(4, 1);
  cfg.seed = 5;
  cfg.metrics_history_limit = 8;
  CoinSpec spec = fm_coin_spec();
  auto factory = [&spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 64, spec, rng);
  };
  Engine eng(cfg, factory, make_silent_adversary());
  eng.run_beats(96);  // arena, scratch and pipeline slots all settle
  const std::size_t before = g_allocations;
  eng.run_beats(32);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state FM-coin stack beat touched the heap";
}

// The same stack on the scaling-large/sync-fm/n64 world (n = 64, f = 21,
// skew attack), whose beats are heavy enough to run on the beat workers:
// after the switch, the workers' arenas and message vectors settle like
// the serial ones, and a steady beat allocates on no thread.
TEST(AllocationFreeBeat, FmCoinClockSyncStackOnFourWorkers) {
  constexpr std::uint64_t kWarmup = 72;
  constexpr std::uint64_t kWindow = 32;
  const ScenarioSpec* scenario = find_scenario("scaling-large/sync-fm/n64");
  ASSERT_NE(scenario, nullptr);
  ASSERT_EQ(scenario->world.coin, CoinKind::kFm);
  EngineBundle b = build_scenario(*scenario)(scenario->base_seed);
  Engine& eng = *b.engine;
  eng.set_beat_workers(4);
  eng.run_beats(kWarmup);  // converged, and every arena has settled
  ASSERT_EQ(eng.beat_workers(), 4u);
  // The engine keeps its whole metrics history; the window must not grow it.
  ASSERT_GE(eng.metrics().history().capacity(), kWarmup + kWindow);
  const std::size_t before = g_allocations;
  eng.run_beats(kWindow);
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state FM-coin beat on four workers touched the heap";
}

// Every protocol family as the registry builds it (n = 7, skew attack,
// oracle coin; queen at f = 1, its resilience bound): once warm, a beat
// plus the convergence detector's common_clock() read allocates nothing.
// Pipelined queen and king restart their BA slots in place to get here.
TEST(AllocationFreeBeat, EveryFamilyThroughBuildWorld) {
  constexpr std::uint64_t kWarmup = 200;
  constexpr std::uint64_t kWindow = 50;
  for (Family family :
       {Family::kClockSync, Family::kClock4, Family::kClock2,
        Family::kCascade, Family::kDolevWelch, Family::kDolevWelchShared,
        Family::kPipelinedQueen, Family::kPipelinedKing}) {
    SCOPED_TRACE(family_name(family));
    World w;
    w.n = 7;
    w.f = family == Family::kPipelinedQueen ? 1 : 2;
    w.actual = w.f;
    w.attack = Attack::kSkew;
    EngineBundle b = build_world(family, w)(5);
    Engine& eng = *b.engine;
    eng.run_beats(kWarmup);
    // build_world engines keep the whole metrics history; the window must
    // not grow it.
    ASSERT_GE(eng.metrics().history().capacity(), kWarmup + kWindow);
    const std::size_t before = g_allocations;
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      eng.run_beat();
      (void)eng.common_clock();  // measure_convergence's per-beat read
    }
    EXPECT_EQ(g_allocations - before, 0u)
        << "steady-state beat of this family touched the heap";
  }
}

}  // namespace
}  // namespace ssbft
