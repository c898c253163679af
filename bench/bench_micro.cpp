// Microbenchmarks (google-benchmark): the hot paths under every
// experiment — field arithmetic, polynomial evaluation, Lagrange
// interpolation, Berlekamp-Welch decoding (clean fast path vs adversarial
// slow path), GVSS dealing, and whole-engine beat throughput for the full
// ss-Byz-Clock-Sync stack.
#include <benchmark/benchmark.h>

#include "adversary/adversaries.h"
#include "coin/fm_coin.h"
#include "coin/gvss.h"
#include "core/clock_sync.h"
#include "field/reed_solomon.h"
#include "sim/engine.h"
#include "support/bytes.h"

namespace ssbft {
namespace {

void BM_FieldMul(benchmark::State& state) {
  PrimeField F;
  Rng rng(1);
  std::uint64_t a = F.uniform(rng), b = F.uniform(rng);
  for (auto _ : state) {
    a = F.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(2);
  std::uint64_t a = F.uniform_nonzero(rng);
  for (auto _ : state) {
    a = F.inv(a);
    benchmark::DoNotOptimize(a);
    if (a == 0) a = 1;
  }
}
BENCHMARK(BM_FieldInv);

// --- Field batch-kernel benchmarks ------------------------------------------
//
// The kernels behind the FM coin's share-matrix arithmetic. CI smokes these
// together with BM_FullStackBeat (filter BM_FieldKernels|BM_FullStackBeat)
// so the perf path cannot rot silently.

void BM_FieldKernels_BatchInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(22);
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> vals(len), scratch(len);
  for (auto& v : vals) v = F.uniform_nonzero(rng);
  for (auto _ : state) {
    // Involution: inverting twice restores the inputs, so the working set
    // stays nonzero across iterations.
    F.batch_inv(vals.data(), len, scratch.data());
    benchmark::DoNotOptimize(vals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_FieldKernels_BatchInv)->Arg(16)->Arg(256);

// --- Wide-shape kernel benchmarks ------------------------------------------
//
// The large-n scaling grid's shapes: the n x (f+1) by (f+1) x n products
// and node-point evaluations of the GVSS rounds for n up to 128 (the two
// kernels with a runtime-dispatched SIMD backend), and the length-n batch
// inversion. Rerun against a -DSSBFT_SIMD=off build for the scalar
// reference on identical inputs.

void BM_FieldKernelsWide_MatMul(benchmark::State& state) {
  // A square-ish wide product: n x (f+1) times (f+1) x n, f = (n-1)/3 (the
  // GVSS recovery checks run 1-row slices of this shape).
  PrimeField F;
  Rng rng(32);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t w = (n - 1) / 3 + 1;
  std::vector<std::uint64_t> a(n * w), b(w * n), out(n * n);
  for (auto& x : a) x = F.uniform(rng);
  for (auto& x : b) x = F.uniform(rng);
  for (auto _ : state) {
    F.matmul(a.data(), b.data(), out.data(), n, w, n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * w * n));
}
BENCHMARK(BM_FieldKernelsWide_MatMul)->ArgName("n")->Arg(32)->Arg(64)
    ->Arg(128);

void BM_FieldKernelsWide_NodePoints(benchmark::State& state) {
  // The deal-receive evaluation pass: n received rows of f+1 coefficients,
  // f = (n-1)/3, stored coefficient-major, evaluated at every node point
  // 1..n. Items are Horner steps.
  PrimeField F;
  Rng rng(34);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t w = (n - 1) / 3 + 1;
  std::vector<std::uint64_t> coef(w * n), out(n * n);
  for (auto& x : coef) x = F.uniform(rng);
  for (auto _ : state) {
    F.eval_points(coef.data(), w, n, n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * w * n));
}
BENCHMARK(BM_FieldKernelsWide_NodePoints)->ArgName("n")->Arg(32)->Arg(64)
    ->Arg(128);

void BM_FieldKernelsWide_BatchInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(33);
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> vals(len), scratch(len);
  for (auto& v : vals) v = F.uniform_nonzero(rng);
  for (auto _ : state) {
    F.batch_inv(vals.data(), len, scratch.data());
    benchmark::DoNotOptimize(vals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_FieldKernelsWide_BatchInv)->ArgName("n")->Arg(32)->Arg(128);

// --- Masked wire codec ------------------------------------------------------
//
// ByteWriter::masked_u64_vec and ByteReader::masked_u64_vec_into at the FM
// coin's shapes on fm-n64 (n = 64, f = 21, the last f ids faulty): a cross
// or share vector of len 64 with the 43 correct ids present, and a deal row
// of len 22, all present. Items are vector entries.

std::vector<std::uint64_t> codec_vector(std::size_t len, std::size_t present) {
  PrimeField F;
  Rng rng(41);
  std::vector<std::uint64_t> v(len, F.modulus());  // the coin's sentinel
  for (std::size_t i = 0; i < present; ++i) v[i] = F.uniform(rng);
  return v;
}

void BM_Codec_MaskedEncode(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto v = codec_vector(len, static_cast<std::size_t>(state.range(1)));
  const PrimeField F;
  ByteWriter w;
  for (auto _ : state) {
    w.clear();
    w.masked_u64_vec(v.data(), len, F.modulus(), F.value_bits());
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Codec_MaskedEncode)->ArgNames({"len", "present"})
    ->Args({64, 43})->Args({22, 22});

void BM_Codec_MaskedDecode(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto v = codec_vector(len, static_cast<std::size_t>(state.range(1)));
  const PrimeField F;
  ByteWriter w;
  w.masked_u64_vec(v.data(), len, F.modulus(), F.value_bits());
  std::vector<std::uint64_t> out(len);
  for (auto _ : state) {
    ByteReader r(w.data());
    benchmark::DoNotOptimize(r.masked_u64_vec_into(
        out.data(), len, F.modulus(), F.value_bits()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Codec_MaskedDecode)->ArgNames({"len", "present"})
    ->Args({64, 43})->Args({22, 22});

void BM_FieldKernels_ScalarInv(benchmark::State& state) {
  // Extended-Euclid scalar inverse (the batch path amortizes this away;
  // kept visible so regressions in the scalar route are caught too).
  PrimeField F;
  Rng rng(24);
  std::uint64_t a = F.uniform_nonzero(rng);
  for (auto _ : state) {
    a = F.inv(a);
    benchmark::DoNotOptimize(a);
    if (a == 0) a = 1;
  }
}
BENCHMARK(BM_FieldKernels_ScalarInv);

void BM_PolyEval(benchmark::State& state) {
  PrimeField F;
  Rng rng(3);
  Poly p = Poly::random(F, static_cast<int>(state.range(0)), rng);
  std::uint64_t x = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval(F, x));
  }
}
BENCHMARK(BM_PolyEval)->Arg(2)->Arg(4)->Arg(8);

void BM_LagrangeInterpolate(benchmark::State& state) {
  PrimeField F;
  Rng rng(4);
  const int deg = static_cast<int>(state.range(0));
  Poly p = Poly::random(F, deg, rng);
  std::vector<std::uint64_t> xs, ys;
  for (int i = 0; i <= deg; ++i) {
    xs.push_back(static_cast<std::uint64_t>(i + 1));
    ys.push_back(p.eval(F, static_cast<std::uint64_t>(i + 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_interpolate(F, xs, ys));
  }
}
BENCHMARK(BM_LagrangeInterpolate)->Arg(2)->Arg(4)->Arg(8);

// Clean shares: gvss_recover's interpolation fast path.
void BM_GvssRecoverClean(benchmark::State& state) {
  PrimeField F;
  Rng rng(5);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n; ++i) {
    shares.push_back({node_point(i), Poly(dealing.row_for(F, i)).eval(F, 0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gvss_recover(F, f, shares));
  }
}
BENCHMARK(BM_GvssRecoverClean)->Arg(1)->Arg(2)->Arg(4);

// f lying shares: the Berlekamp-Welch slow path.
void BM_GvssRecoverAdversarial(benchmark::State& state) {
  PrimeField F;
  Rng rng(6);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n; ++i) {
    std::uint64_t y = Poly(dealing.row_for(F, i)).eval(F, 0);
    if (i < f) y = F.uniform(rng);
    shares.push_back({node_point(i), y});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gvss_recover(F, f, shares));
  }
}
BENCHMARK(BM_GvssRecoverAdversarial)->Arg(1)->Arg(2)->Arg(4);

void BM_GvssDealing(benchmark::State& state) {
  PrimeField F;
  Rng rng(7);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  for (auto _ : state) {
    auto d = GvssDealing::sample(F, f, rng);
    for (NodeId i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(d.row_for(F, i));
    }
  }
}
BENCHMARK(BM_GvssDealing)->Arg(1)->Arg(2)->Arg(4);

// --- Beat-loop plumbing benchmarks ----------------------------------------
//
// Measures the engine's per-beat message plumbing (outbox fill, adversary
// observation, delivery, inbox bucketing) with deliberately cheap protocol
// logic, so the numbers isolate the send/deliver/receive path rather than
// field arithmetic. Modes: 0 = all-correct, 1 = with a flooding adversary,
// 2 = adversary + a permanently faulty network injecting phantoms.

// Broadcasts a fixed-size payload on two channels and tallies what arrives.
class BeatLoopProtocol final : public ClockProtocol {
 public:
  explicit BeatLoopProtocol(const ProtocolEnv& env) : env_(env) {}

  void send_phase(Outbox& out) override {
    w_.clear();
    w_.u32(env_.self);
    w_.u64(state_);
    out.broadcast(0, w_.data());
    w_.clear();
    w_.u64(state_ ^ 0x9e3779b97f4a7c15ull);
    out.broadcast(1, w_.data());
  }

  void receive_phase(const Inbox& in) override {
    std::uint64_t acc = 0;
    for (ChannelId ch = 0; ch < 2; ++ch) {
      const auto payloads = in.first_per_sender(ch);
      for (const ByteSpan* p : payloads) {
        if (p == nullptr) continue;
        ByteReader r(*p);
        if (ch == 0) (void)r.u32();
        acc += r.u64();
        if (!r.at_end()) ++garbage_;
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
  ByteWriter w_;
  std::uint64_t state_ = 0;
  std::uint64_t garbage_ = 0;
};

// Each faulty node floods both channels with equivocating per-recipient
// payloads, exercising the adversary-observation and delivery paths.
class BeatLoopAdversary final : public Adversary {
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

void BM_BeatLoop(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto mode = static_cast<int>(state.range(1));
  const std::uint32_t f = mode == 0 ? 0 : (n - 1) / 3;
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = 21;
  cfg.metrics_history_limit = 8;  // measure the allocation-free configuration
  if (mode == 2) {
    // Permanently faulty network: phantom traffic on every beat.
    cfg.faults.network_faulty_until = ~std::uint64_t{0};
    cfg.faults.phantoms_per_beat = 2;
    cfg.faults.phantom_max_len = 24;
  }
  auto factory = [](const ProtocolEnv& env, Rng) {
    return std::make_unique<BeatLoopProtocol>(env);
  };
  Engine eng(cfg, factory,
             f > 0 ? std::unique_ptr<Adversary>(new BeatLoopAdversary)
                   : nullptr);
  eng.run_beats(8);  // settle buffers before timing
  for (auto _ : state) {
    eng.run_beat();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BeatLoop)
    ->ArgNames({"n", "mode"})
    ->Args({4, 0})->Args({4, 1})->Args({4, 2})
    ->Args({16, 0})->Args({16, 1})->Args({16, 2})
    ->Args({64, 0})->Args({64, 1})->Args({64, 2});

// Broadcast-heavy variant: every node broadcasts an n-word vector on each
// of four channels per beat — the FM coin's GVSS traffic shape. This is
// the path the copy-once payload fabric targets: with shared payloads the
// per-beat memcpy volume is O(n * B) (one encode per broadcast) instead of
// O(n^2 * B) (one copy per recipient).
class BroadcastHeavyProtocol final : public ClockProtocol {
 public:
  explicit BroadcastHeavyProtocol(const ProtocolEnv& env)
      : env_(env), vec_(env.n) {}

  void send_phase(Outbox& out) override {
    for (ChannelId ch = 0; ch < 4; ++ch) {
      for (std::uint32_t i = 0; i < env_.n; ++i) {
        vec_[i] = state_ + ch * 1000 + i;
      }
      ByteWriter& w = out.writer();
      w.u64_vec(vec_.data(), vec_.size());
      out.broadcast(ch, w.data());
    }
  }

  void receive_phase(const Inbox& in) override {
    std::uint64_t acc = 0;
    for (ChannelId ch = 0; ch < 4; ++ch) {
      for (const ByteSpan* p : in.first_per_sender(ch)) {
        if (p == nullptr) continue;
        ByteReader r(*p);
        acc += r.u64_vec_into(vec_.data(), vec_.size());
      }
    }
    state_ += acc + 1;
  }

  void randomize_state(Rng& rng) override { state_ = rng.next_u64(); }
  ClockValue clock() const override { return state_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 4; }

 private:
  ProtocolEnv env_;
  std::vector<std::uint64_t> vec_;
  std::uint64_t state_ = 0;
};

void BM_BeatLoopBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t f = (n - 1) / 3;
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = 23;
  cfg.metrics_history_limit = 8;
  auto factory = [](const ProtocolEnv& env, Rng) {
    return std::make_unique<BroadcastHeavyProtocol>(env);
  };
  Engine eng(cfg, factory,
             f > 0 ? std::unique_ptr<Adversary>(new BeatLoopAdversary)
                   : nullptr);
  eng.run_beats(8);  // settle buffers before timing
  for (auto _ : state) {
    eng.run_beat();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BeatLoopBroadcast)->ArgName("n")->Arg(4)->Arg(16)->Arg(64);

// Whole-stack beat throughput: ss-Byz-Clock-Sync + FM coin + skew attack.
void BM_FullStackBeat(benchmark::State& state) {
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = 9;
  CoinSpec spec = fm_coin_spec();
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 64, spec, rng);
  };
  Engine eng(cfg, factory, make_clock_skew_adversary(64, 0));
  for (auto _ : state) {
    eng.run_beat();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullStackBeat)->Arg(1)->Arg(2);

// Large-n full stack: the scaling-grid configurations (f = (n-1)/3), the
// workloads the SIMD kernels target end to end.
void BM_FullStackBeatLarge(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t f = (n - 1) / 3;
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = 12;
  cfg.metrics_history_limit = 8;
  CoinSpec spec = fm_coin_spec();
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 64, spec, rng);
  };
  Engine eng(cfg, factory, make_clock_skew_adversary(64, 0));
  eng.run_beats(2);  // settle buffers before timing
  for (auto _ : state) {
    eng.run_beat();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullStackBeatLarge)
    ->ArgName("n")
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Oracle-coin stack: the protocol-logic cost with coin traffic removed.
void BM_OracleStackBeat(benchmark::State& state) {
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = 10;
  auto beacon = std::make_shared<OracleBeacon>(n, OracleCoinParams{0.45, 0.45},
                                               Rng(11));
  CoinSpec spec = oracle_coin_spec(beacon);
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 64, spec, rng);
  };
  Engine eng(cfg, factory, make_clock_skew_adversary(64, 0));
  eng.add_listener(beacon.get());
  for (auto _ : state) {
    eng.run_beat();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleStackBeat)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace ssbft

BENCHMARK_MAIN();
