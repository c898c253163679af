// Binary Phase-Queen Byzantine agreement: f < n/4, f+1 phases of 2 rounds.
//
// The lighter sibling of phase king, matching the resiliency class of the
// paper's [15] baseline (deterministic, linear, but only f < n/4). Phase p
// (queen = node p):
//   R1  broadcast v; if some value has >= n-f support adopt it and mark
//       strong, else v := majority (not strong);
//   R2  queen broadcasts v; non-strong nodes adopt the queen's value.
//
// With n > 4f, a strong node's value d has >= n-2f correct senders, so
// every correct node's majority is d (the other values total < n-2f) — in
// particular a correct queen's, which unifies everyone; strength persists
// unanimity. With f >= n/4 the majority argument collapses, which is
// exactly what `ssbft_bench run resiliency` demonstrates.
#pragma once

#include "agreement/ba_interface.h"

namespace ssbft {

class PhaseQueenInstance final : public BaInstance {
 public:
  PhaseQueenInstance(const ProtocolEnv& env, bool input);

  int rounds() const override { return 2 * (static_cast<int>(env_.f) + 1); }
  void send_round(int round, Outbox& out, ChannelId base) override;
  void receive_round(int round, const Inbox& in, ChannelId base) override;
  std::uint64_t output() const override { return v_ ? 1 : 0; }
  void reinit(std::uint64_t input) override;
  void randomize_state(Rng& rng) override;

 private:
  ProtocolEnv env_;
  bool v_;
  bool strong_ = false;
};

// Binary phase-queen instances (inputs taken mod 2).
BaInstanceFactory phase_queen_factory();

}  // namespace ssbft
