// Turpin-Coan multivalued Byzantine agreement from a binary protocol
// (reference [18] of the paper — also the intellectual ancestor of
// Figure 4's four-phase structure).
//
// Two pre-rounds reduce arbitrary u64 inputs to a binary question:
//   R1  broadcast input; z := the value with >= n-f support (else ?);
//   R2  broadcast z; x := most frequent non-? value, b := [x had n-f
//       support]; then run binary BA on b.
// Output: x if the binary BA decides 1, else the default 0. If any correct
// node computed b = 1, then >= n-2f correct nodes sent z = x, so every
// correct node's most frequent non-? value is the same x (correct non-?
// z's are single-valued by quorum intersection, Observation 3.1) — the
// adopted x is common. Needs n > 3f and the binary protocol's resilience.
// The binary instance is built once and restarted by reinit; until round 2
// (or a transient fault) starts it, the output is the default 0.
#pragma once

#include "agreement/ba_interface.h"
#include "sim/tally.h"

namespace ssbft {

class TurpinCoanInstance final : public BaInstance {
 public:
  TurpinCoanInstance(const ProtocolEnv& env, std::uint64_t input,
                     const BaInstanceFactory& binary);

  int rounds() const override { return 2 + inner_->rounds(); }
  void send_round(int round, Outbox& out, ChannelId base) override;
  void receive_round(int round, const Inbox& in, ChannelId base) override;
  std::uint64_t output() const override;
  void reinit(std::uint64_t input) override;
  void randomize_state(Rng& rng) override;

 private:
  void ensure_inner(bool input);

  ProtocolEnv env_;
  std::uint64_t input_ = 0;
  ValueTally tally_;  // rounds 1 and 2's vote count

  bool have_z_ = false;
  std::uint64_t z_ = 0;
  std::uint64_t x_ = 0;  // the common candidate
  std::unique_ptr<BaInstance> inner_;
  bool inner_live_ = false;
};

// Multivalued BA over u64 from binary instances. Rounds: 2 + binary's.
BaInstanceFactory turpin_coan_factory(BaInstanceFactory binary);

}  // namespace ssbft
