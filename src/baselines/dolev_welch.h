// The Dolev-Welch-style randomized digital clock synchronization baseline
// (the paper's reference [9,10], synchronous-model row of Table 1).
//
// Rule per beat: broadcast clock; if >= n-f received values agree on v,
// adopt v+1 mod k; otherwise gamble on a uniformly random clock value —
// with *local*, uncoordinated randomness. Convergence requires the
// gambling correct nodes to collide on the same value (and survive the
// Byzantine votes), which happens with probability exponentially small in
// the number of disagreeing nodes: expected convergence O(k^(n-f)) flavor,
// the paper cites O(2^(2(n-f))) for the original. Closure is deterministic
// once synced. This baseline is what the common coin replaces.
#pragma once

#include <memory>

#include "coin/coin_interface.h"
#include "sim/protocol.h"
#include "sim/tally.h"
#include "support/rng.h"

namespace ssbft {

class DolevWelchClock final : public ClockProtocol {
 public:
  DolevWelchClock(const ProtocolEnv& env, ClockValue k, Rng rng,
                  ChannelId base = 0);

  void send_phase(Outbox& out) override;
  void receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;
  ClockValue clock() const override { return clock_ % k_; }
  ClockValue modulus() const override { return k_; }
  std::uint32_t channel_count() const override { return base_ + 1; }
  // Reports only whether this beat gambled; the local coin draw is private
  // randomness, not a shared stream, so it is not traced as a coin.
  void trace_state(TraceEmitter& em) const override;

 private:
  ProtocolEnv env_;
  ClockValue k_;
  ChannelId base_;
  Rng rng_;
  ValueTally tally_;  // this beat's clock broadcasts
  ClockValue clock_ = 0;
  bool gambled_ = false;  // latched by receive_phase for trace_state
};

// The Section 6.1 adaptation: the same gamble-on-disagreement structure,
// but gambling with the *shared* coin stream of ss-Byz-Coin-Flip instead
// of local randomness. On a no-quorum beat every node bets on the same
// side — rand = 0 resets to the canonical clock 0, rand = 1 bets on the
// locally most frequent value + 1 — so a single common "0" beat where no
// correct node holds a quorum synchronizes everyone at once: expected
// O(1/p0) convergence instead of the exponential all-local-coins-align
// event. This is the paper's point that the coin, not the clock rule, is
// where the exponential/constant divide lives.
class DolevWelchSharedCoin final : public ClockProtocol {
 public:
  DolevWelchSharedCoin(const ProtocolEnv& env, ClockValue k,
                       const CoinSpec& coin, Rng rng, ChannelId base = 0);

  void send_phase(Outbox& out) override;
  void receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;
  ClockValue clock() const override { return clock_ % k_; }
  ClockValue modulus() const override { return k_; }
  std::uint32_t channel_count() const override { return channels_end_; }
  void trace_state(TraceEmitter& em) const override;

  static std::uint32_t channels_needed(const CoinSpec& coin) {
    return 1 + coin.channels;
  }

 private:
  ProtocolEnv env_;
  ClockValue k_;
  ChannelId base_;
  std::uint32_t channels_end_;
  std::unique_ptr<CoinComponent> coin_;
  ValueTally tally_;  // this beat's clock broadcasts
  ClockValue clock_ = 0;
  bool gambled_ = false;  // latched by receive_phase for trace_state
};

}  // namespace ssbft
