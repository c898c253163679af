// Binary Phase-King Byzantine agreement (Berman-Garay-Perry style):
// f < n/3, f+1 phases of 3 rounds, polynomial messages — the agreement
// core of the deterministic-linear f < n/3 baseline ([7]'s row in Table 1).
//
// Phase p (king = node p), value v in {0,1}:
//   R1  broadcast v; propose := the value with >= n-f support (else ?);
//   R2  broadcast propose; d := most frequent non-? proposal;
//       support >= n-f -> v := d, lock := 2;
//       support >= f+1 -> v := d, lock := 1;  else lock := 0;
//   R3  king broadcasts v; nodes with lock < 2 adopt the king's value.
//
// Correct non-? proposals are single-valued (two n-f quorums intersect in
// a correct node for n > 3f), so any locked-2 node forces every correct
// node onto the same d; a correct king then unifies the rest, and the R1/R2
// thresholds persist unanimity through later phases.
#pragma once

#include "agreement/ba_interface.h"

namespace ssbft {

class PhaseKingInstance final : public BaInstance {
 public:
  PhaseKingInstance(const ProtocolEnv& env, bool input);

  int rounds() const override { return 3 * (static_cast<int>(env_.f) + 1); }
  void send_round(int round, Outbox& out, ChannelId base) override;
  void receive_round(int round, const Inbox& in, ChannelId base) override;
  std::uint64_t output() const override { return v_ ? 1 : 0; }
  void reinit(std::uint64_t input) override;
  void randomize_state(Rng& rng) override;

 private:
  ProtocolEnv env_;
  bool v_;
  // Per-phase scratch.
  std::uint8_t propose_ = 2;  // 0, 1, or 2 = "?"
  std::uint8_t lock_ = 0;
};

// Binary phase-king instances (inputs taken mod 2).
BaInstanceFactory phase_king_factory();

}  // namespace ssbft
