// The Section 5 cascade: a 2^L-Clock built as a tower of 2-Clocks.
//
// Level 0 steps every beat; level i steps exactly when all lower levels
// are about to wrap (start-of-beat value all-ones below i) — the repeated
// application of the Figure 3 construction. The combined clock
// sum_i 2^i * clock(level_i) increments by one per beat once converged.
//
// This is the construction the paper contrasts with ss-Byz-Clock-Sync: it
// needs log k concurrent 2-clocks (log k message overhead) and level i only
// advances once per 2^i beats, so upper levels converge slowly; the k-Clock
// of Figure 4 replaces it with a constant-overhead agreement cascade.
// `ssbft_bench run kclock_scaling` measures exactly this comparison.
#pragma once

#include <memory>
#include <vector>

#include "coin/coin_interface.h"
#include "core/clock2.h"
#include "sim/protocol.h"

namespace ssbft {

class CascadeClock final : public ClockProtocol {
 public:
  // Solves the 2^levels-Clock problem. levels >= 1.
  CascadeClock(const ProtocolEnv& env, std::uint32_t levels,
               const CoinSpec& coin, Rng rng, ChannelId base = 0);

  void send_phase(Outbox& out) override;
  void receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;
  ClockValue clock() const override;
  ClockValue modulus() const override { return ClockValue{1} << levels_; }
  std::uint32_t channel_count() const override { return channels_end_; }
  void trace_state(TraceEmitter& em) const override;

  static std::uint32_t channels_needed(std::uint32_t levels,
                                       const CoinSpec& coin) {
    return levels * SsByz2Clock::channels_needed(coin);
  }

 private:
  ProtocolEnv env_;
  std::uint32_t levels_;
  std::uint32_t channels_end_;
  std::vector<std::unique_ptr<SsByz2Clock>> level_;
  std::vector<bool> active_;  // latched per beat during send_phase
};

}  // namespace ssbft
