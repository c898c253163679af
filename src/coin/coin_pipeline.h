// ss-Byz-Coin-Flip (Figure 1): the pipelining transform.
//
// Runs Delta_A staggered instances of a probabilistic coin-flipping
// algorithm A, one per round-position. Each beat, slot j executes round
// j+1 of its instance; the oldest slot finishes and yields the beat's bit;
// slots shift and a fresh instance enters at slot 0. Round r travels on
// channel base + r - 1, so the round position doubles as the paper's
// "session number": at any beat exactly one live instance is executing
// round j+1, so the fixed channel space is unambiguous and recyclable —
// no unbounded counters, as self-stabilization demands.
//
// Lemma 1: once every slot has been refreshed under a coherent network
// (Delta_A beats), the wrapper is a pipelined probabilistic coin-flipping
// algorithm; convergence time equals Delta_A.
#pragma once

#include <memory>
#include <vector>

#include "coin/coin_interface.h"

namespace ssbft {

using CoinInstanceFactory = std::function<std::unique_ptr<CoinInstance>(Rng)>;

class SsByzCoinFlip final : public CoinComponent {
 public:
  // `rounds` must equal the instances' rounds() (the spec carries it so the
  // channel budget is a static constant).
  SsByzCoinFlip(const CoinInstanceFactory& factory, int rounds,
                ChannelId base, Rng rng);

  void send_phase(Outbox& out) override;
  bool do_receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;

  int rounds() const { return rounds_; }

 private:
  int rounds_;
  ChannelId base_;
  Rng rng_;
  // slots_[j] executes round j+1 at the current beat.
  std::vector<std::unique_ptr<CoinInstance>> slots_;
};

}  // namespace ssbft
