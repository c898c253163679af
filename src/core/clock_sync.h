// ss-Byz-Clock-Sync (Figure 4): the k-Clock for any k, with constant
// overhead — the paper's headline algorithm (Theorem 4).
//
// An ss-Byz-4-Clock A provides four repeating phases; each phase is one
// beat and the full clock is agreed on via a Turpin-Coan/Rabin-style
// exchange spread over them (clock(A) is read at the start of the beat):
//
//   phase 0: broadcast full_clock;
//   phase 1: propose the value seen n-f times in the previous beat (else ?);
//   phase 2: save := majority non-? proposal; bit := [save had n-f support];
//            broadcast bit; save := 0 if ?;
//   phase 3: n-f "1" bits  -> full_clock := save + 3
//            n-f "0" bits  -> full_clock := 0
//            else coin: rand = 1 -> save + 3, rand = 0 -> 0.
//
// full_clock increments every beat (mod k); the phase-3 assignment lands
// exactly on the incremented value once synced (Lemma 6's timeline), so
// closure is deterministic. The phase-3 coin gamble gives a constant
// success probability per 4-beat cycle (Lemma 8), hence expected-constant
// convergence for ANY k — unlike the Section 5 cascade whose cost grows
// with log k.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coin/coin_interface.h"
#include "core/clock4.h"
#include "sim/protocol.h"

namespace ssbft {

class SsByzClockSync final : public ClockProtocol {
 public:
  // `coin` is used for the embedded 4-clock's pipelines and for this
  // layer's own phase-3 coin.
  SsByzClockSync(const ProtocolEnv& env, ClockValue k, const CoinSpec& coin,
                 Rng rng, ChannelId base = 0,
                 CoinPipelineMode mode = CoinPipelineMode::kPerSubClock);

  void send_phase(Outbox& out) override;
  void receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;
  ClockValue clock() const override { return full_clock_ % k_; }
  ClockValue modulus() const override { return k_; }
  std::uint32_t channel_count() const override { return channels_end_; }
  bool node_local_phases() const override { return node_local_; }
  void trace_state(TraceEmitter& em) const override;

  static std::uint32_t channels_needed(const CoinSpec& coin,
                                       CoinPipelineMode mode) {
    return 3 + SsByz4Clock::channels_needed(coin, mode) + coin.channels;
  }

 private:
  void tally(ClockValue v);
  void recv_phase0(const Inbox& in);
  void recv_phase1(const Inbox& in);
  void recv_phase2(const Inbox& in);
  void recv_phase3(bool rand);

  ProtocolEnv env_;
  ClockValue k_;
  ChannelId ch_full_, ch_prop_, ch_bit_;
  ChannelId coin_base_ = 0;  // phase-3 coin's channel range (trace stream)
  std::uint32_t channels_end_;
  bool node_local_;  // the coin's CoinSpec::node_local
  std::unique_ptr<SsByz4Clock> a_;
  std::unique_ptr<CoinComponent> coin_;
  // Per-beat value tally for phases 0 and 1. At most n distinct values
  // arrive per beat (one counted message per sender), so a small flat
  // pair list with linear lookup replaces the per-beat std::map and its
  // node churn; capacity n is reserved once. k itself can be huge
  // (tests go to 1e9+7), so a k-slot array is not an option.
  std::vector<std::pair<ClockValue, std::uint32_t>> value_counts_;

  ClockValue full_clock_ = 0;
  // Phase latched at send time so send/receive act on the same case block.
  ClockValue phase_ = 0;
  // State carried between phases (arbitrary after a transient fault;
  // harmless — it is rewritten every 4-beat cycle).
  std::optional<ClockValue> strong_value_;  // phase-0 value with n-f support
  ClockValue save_ = 0;
  std::uint8_t bit_ = 0;
  std::uint32_t ones_count_ = 0;
  std::uint32_t zeros_count_ = 0;
};

}  // namespace ssbft
