#include "layers.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "adversary/adversaries.h"
#include "coin/coin_pipeline.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/clock4.h"
#include "core/clock_sync.h"
#include "support/check.h"

namespace perfbench {

using namespace ssbft;

std::uint64_t LayerSpans::fm_ns() const {
  std::uint64_t sum = 0;
  for (int r = 0; r < 4; ++r) sum += fm_send_ns[r] + fm_recv_ns[r];
  return sum;
}

void LayerSpans::add(const LayerSpans& o) {
  core_send_ns += o.core_send_ns;
  core_recv_ns += o.core_recv_ns;
  coin_send_ns += o.coin_send_ns;
  coin_recv_ns += o.coin_recv_ns;
  coin_calls += o.coin_calls;
  for (int r = 0; r < 4; ++r) {
    fm_send_ns[r] += o.fm_send_ns[r];
    fm_recv_ns[r] += o.fm_recv_ns[r];
  }
  adversary_ns += o.adversary_ns;
  listener_ns += o.listener_ns;
  coin_beats += o.coin_beats;
  coin_agree_beats += o.coin_agree_beats;
}

void EngineProbe::tally_coin_agreement() {
  const CoinComponent* first = nullptr;
  bool agree = true;
  for (const CoinComponent* c : phase3_coin) {
    if (c == nullptr) continue;
    if (first == nullptr) {
      first = c;
    } else if (c->last_output() != first->last_output()) {
      agree = false;
      break;
    }
  }
  if (first == nullptr) return;
  ++spans.coin_beats;
  if (agree) ++spans.coin_agree_beats;
}

std::uint64_t EngineProbe::fm_round_bytes(const Engine& e, int round) const {
  const std::vector<std::uint64_t>& bytes = e.channel_bytes();
  std::uint64_t sum = 0;
  for (ChannelId base : fm_bases) {
    const std::size_t ch =
        std::size_t{base} + static_cast<std::size_t>(round - 1);
    if (ch < bytes.size()) sum += bytes[ch];
  }
  return sum;
}

namespace {

// Adds the elapsed time of its scope to one counter.
class Span {
 public:
  explicit Span(std::uint64_t& acc) : acc_(acc), start_(now_ns()) {}
  ~Span() { acc_ += now_ns() - start_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t& acc_;
  std::uint64_t start_;
};

class TimedClock final : public ClockProtocol {
 public:
  TimedClock(std::unique_ptr<ClockProtocol> inner, LayerSpans* s)
      : inner_(std::move(inner)), s_(s) {}

  void send_phase(Outbox& out) override {
    Span span(s_->core_send_ns);
    inner_->send_phase(out);
  }
  void receive_phase(const Inbox& in) override {
    Span span(s_->core_recv_ns);
    inner_->receive_phase(in);
  }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }
  std::uint32_t channel_count() const override {
    return inner_->channel_count();
  }
  void trace_state(TraceEmitter& em) const override { inner_->trace_state(em); }
  ClockValue clock() const override { return inner_->clock(); }
  ClockValue modulus() const override { return inner_->modulus(); }

 private:
  std::unique_ptr<ClockProtocol> inner_;
  LayerSpans* s_;
};

class TimedCoin final : public CoinComponent {
 public:
  TimedCoin(std::unique_ptr<CoinComponent> inner, LayerSpans* s)
      : inner_(std::move(inner)), s_(s) {}

  void send_phase(Outbox& out) override {
    ++s_->coin_calls;
    Span span(s_->coin_send_ns);
    inner_->send_phase(out);
  }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }

 protected:
  bool do_receive_phase(const Inbox& in) override {
    ++s_->coin_calls;
    Span span(s_->coin_recv_ns);
    return inner_->receive_phase(in);
  }

 private:
  std::unique_ptr<CoinComponent> inner_;
  LayerSpans* s_;
};

class TimedInstance final : public CoinInstance {
 public:
  TimedInstance(std::unique_ptr<CoinInstance> inner, LayerSpans* s)
      : inner_(std::move(inner)), s_(s) {}

  int rounds() const override { return inner_->rounds(); }
  void send_round(int round, Outbox& out, ChannelId base) override {
    Span span(s_->fm_send_ns[slot(round)]);
    inner_->send_round(round, out, base);
  }
  void receive_round(int round, const Inbox& in, ChannelId base) override {
    Span span(s_->fm_recv_ns[slot(round)]);
    inner_->receive_round(round, in, base);
  }
  bool output() const override { return inner_->output(); }
  void reinit(Rng rng) override { inner_->reinit(rng); }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }

 private:
  static std::size_t slot(int round) {
    SSBFT_CHECK(round >= 1 && round <= 4);
    return static_cast<std::size_t>(round - 1);
  }

  std::unique_ptr<CoinInstance> inner_;
  LayerSpans* s_;
};

class TimedAdversary final : public Adversary {
 public:
  TimedAdversary(std::unique_ptr<Adversary> inner, LayerSpans* s)
      : inner_(std::move(inner)), s_(s) {}

  void act(AdversaryContext& ctx) override {
    Span span(s_->adversary_ns);
    inner_->act(ctx);
  }

 private:
  std::unique_ptr<Adversary> inner_;
  LayerSpans* s_;
};

class TimedListener final : public BeatListener {
 public:
  TimedListener(BeatListener* inner, LayerSpans* s) : inner_(inner), s_(s) {}

  void on_beat(Beat beat) override {
    Span span(s_->listener_ns);
    inner_->on_beat(beat);
  }

 private:
  BeatListener* inner_;
  LayerSpans* s_;
};

// fm_coin_spec() with every FM instance wrapped: the same per-pipeline
// scratch sharing and instance parameters, so the wire and the coin bits
// are unchanged.
CoinSpec timed_fm_coin_spec(EngineProbe* probe) {
  CoinSpec spec;
  spec.channels = FmCoinInstance::kRounds;
  spec.make = [probe](const ProtocolEnv& env, ChannelId base, Rng rng) {
    if (std::find(probe->fm_bases.begin(), probe->fm_bases.end(), base) ==
        probe->fm_bases.end()) {
      probe->fm_bases.push_back(base);
    }
    auto scratch = std::make_shared<FmCoinScratch>();
    CoinInstanceFactory factory = [env, scratch, probe](Rng inst_rng) {
      return std::make_unique<TimedInstance>(
          std::make_unique<FmCoinInstance>(env, FmCoinParams{}, inst_rng,
                                           scratch),
          &probe->spans);
    };
    return std::make_unique<SsByzCoinFlip>(std::move(factory),
                                           FmCoinInstance::kRounds, base, rng);
  };
  return spec;
}

// Wraps every component `inner` makes. SsByzClockSync makes its own
// phase-3 coin last, at `phase3_base`, so the last component made there
// per node is the clock-sync layer's coin (with the channel-less oracle
// coin several components share that base).
CoinSpec timed_coin_spec(CoinSpec inner, EngineProbe* probe,
                         ChannelId phase3_base) {
  CoinSpec spec;
  spec.channels = inner.channels;
  spec.make = [make = std::move(inner.make), probe, phase3_base](
                  const ProtocolEnv& env, ChannelId base, Rng rng) {
    auto coin =
        std::make_unique<TimedCoin>(make(env, base, rng), &probe->spans);
    if (base == phase3_base) probe->phase3_coin[env.self] = coin.get();
    return coin;
  };
  return spec;
}

// The listener and the beacon it wraps, kept alive together by the bundle.
struct TimedBeacon {
  std::shared_ptr<OracleBeacon> beacon;
  TimedListener listener;
};

}  // namespace

EngineBundle build_clock_sync_engine(const World& w, std::uint64_t seed,
                                     std::size_t history_limit,
                                     EngineProbe* probe) {
  EngineBundle b;
  CoinSpec spec;
  std::shared_ptr<OracleBeacon> beacon;
  if (w.coin == CoinKind::kOracle) {
    beacon = std::make_shared<OracleBeacon>(w.n, OracleCoinParams{0.45, 0.45},
                                            Rng(seed).split("beacon"));
    spec = oracle_coin_spec(beacon);
  } else {
    spec = probe != nullptr ? timed_fm_coin_spec(probe) : fm_coin_spec();
  }
  const CoinPipelineMode mode = w.shared_pipeline
                                    ? CoinPipelineMode::kShared
                                    : CoinPipelineMode::kPerSubClock;
  const auto coin_base =
      static_cast<ChannelId>(3 + SsByz4Clock::channels_needed(spec, mode));
  std::unique_ptr<Adversary> adv;
  if (w.actual != 0) {
    adv = w.attack == Attack::kAntiCoin
              ? make_anti_coin_adversary(beacon, 0)
              : make_attack(w.attack, w.k, coin_base, w.noise_msgs_per_beat);
  }
  EngineConfig cfg = world_config(w, seed);
  cfg.metrics_history_limit = history_limit;
  if (probe != nullptr) {
    probe->phase3_coin.assign(w.n, nullptr);
    spec = timed_coin_spec(std::move(spec), probe, coin_base);
    if (adv) {
      adv = std::make_unique<TimedAdversary>(std::move(adv), &probe->spans);
    }
    cfg.track_channel_bytes = true;
  }
  auto factory = [spec, k = w.k, mode, probe](
                     const ProtocolEnv& env,
                     Rng rng) -> std::unique_ptr<Protocol> {
    auto proto = std::make_unique<SsByzClockSync>(env, k, spec, rng, 0, mode);
    if (probe == nullptr) return proto;
    return std::make_unique<TimedClock>(std::move(proto), &probe->spans);
  };
  b.engine = std::make_unique<Engine>(std::move(cfg), factory, std::move(adv));
  if (beacon && probe != nullptr) {
    auto timed = std::make_shared<TimedBeacon>(
        TimedBeacon{beacon, TimedListener(beacon.get(), &probe->spans)});
    b.engine->add_listener(&timed->listener);
    b.keepalive = timed;
  } else if (beacon) {
    b.engine->add_listener(beacon.get());
    b.keepalive = beacon;
  }
  return b;
}

}  // namespace perfbench
