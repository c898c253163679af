#include "baselines/dolev_welch.h"

#include <map>

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

DolevWelchClock::DolevWelchClock(const ProtocolEnv& env, ClockValue k, Rng rng,
                                 ChannelId base)
    : env_(env), k_(k), base_(base), rng_(rng) {
  SSBFT_REQUIRE(k >= 1);
}

void DolevWelchClock::send_phase(Outbox& out) {
  ByteWriter& w = out.writer();
  w.u64(clock_ % k_);
  out.broadcast(base_, w.data());
}

void DolevWelchClock::receive_phase(const Inbox& in) {
  std::map<ClockValue, std::uint32_t> counts;
  for (const ByteSpan* p : in.first_per_sender(base_)) {
    if (p == nullptr) continue;
    ByteReader r(*p);
    const std::uint64_t v = r.u64();
    if (!r.at_end() || v >= k_) continue;
    ++counts[v];
  }
  for (const auto& [v, c] : counts) {
    if (c >= env_.n - env_.f) {
      clock_ = (v + 1) % k_;
      gambled_ = false;
      return;
    }
  }
  // No quorum: gamble with local randomness. This is the exponential
  // bottleneck the common coin removes.
  gambled_ = true;
  clock_ = rng_.next_below(k_);
}

void DolevWelchClock::trace_state(TraceEmitter& em) const {
  em.phase(base_, gambled_ ? 1 : 0);
}

void DolevWelchClock::randomize_state(Rng& rng) {
  clock_ = rng.next_u64() % (2 * k_);  // possibly out of range; self-heals
  rng_ = Rng(rng.next_u64());
}

DolevWelchSharedCoin::DolevWelchSharedCoin(const ProtocolEnv& env,
                                           ClockValue k, const CoinSpec& coin,
                                           Rng rng, ChannelId base)
    : env_(env),
      k_(k),
      base_(base),
      channels_end_(base + channels_needed(coin)),
      coin_(coin.make(env, static_cast<ChannelId>(base + 1),
                      rng.split("coin"))) {
  SSBFT_REQUIRE(k >= 1);
  SSBFT_CHECK(coin_ != nullptr);
}

void DolevWelchSharedCoin::send_phase(Outbox& out) {
  ByteWriter& w = out.writer();
  w.u64(clock_ % k_);
  out.broadcast(base_, w.data());
  coin_->send_phase(out);
}

void DolevWelchSharedCoin::receive_phase(const Inbox& in) {
  // The coin bit is revealed only after all beat-r messages are committed
  // (the same commitment ordering as Remark 3.1).
  const bool rand = coin_->receive_phase(in);
  std::map<ClockValue, std::uint32_t> counts;
  for (const ByteSpan* p : in.first_per_sender(base_)) {
    if (p == nullptr) continue;
    ByteReader r(*p);
    const std::uint64_t v = r.u64();
    if (!r.at_end() || v >= k_) continue;
    ++counts[v];
  }
  ClockValue best = 0;
  std::uint32_t best_count = 0;
  for (const auto& [v, c] : counts) {
    if (c >= env_.n - env_.f) {
      clock_ = (v + 1) % k_;
      gambled_ = false;
      return;
    }
    if (c > best_count) {
      best = v;
      best_count = c;
    }
  }
  // No quorum: the common gamble. rand = 0 lands every gambling node on
  // the canonical value 0 simultaneously.
  gambled_ = true;
  clock_ = rand ? (best + 1) % k_ : 0;
}

void DolevWelchSharedCoin::trace_state(TraceEmitter& em) const {
  em.phase(base_, gambled_ ? 1 : 0);
  // The shared coin is consumed every beat (drawn before the quorum scan),
  // so its latched bit is always fresh.
  em.coin(static_cast<std::uint32_t>(base_ + 1), coin_->last_output());
}

void DolevWelchSharedCoin::randomize_state(Rng& rng) {
  clock_ = rng.next_u64() % (2 * k_);
  coin_->randomize_state(rng);
}

}  // namespace ssbft
