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
#pragma once

#include "agreement/ba_interface.h"
#include "sim/tally.h"

namespace ssbft {

class TurpinCoanInstance final : public BaInstance {
 public:
  TurpinCoanInstance(const ProtocolEnv& env, std::uint64_t input,
                     const BaSpec& binary, Rng rng);

  int rounds() const override;
  void send_round(int round, Outbox& out, ChannelId base) override;
  void receive_round(int round, const Inbox& in, ChannelId base) override;
  std::uint64_t output() const override;
  void randomize_state(Rng& rng) override;

 private:
  void ensure_inner(bool input);

  ProtocolEnv env_;
  std::uint64_t input_;
  BaSpec binary_;
  Rng rng_;
  ValueTally tally_;  // rounds 1 and 2's vote count

  bool have_z_ = false;
  std::uint64_t z_ = 0;
  std::uint64_t x_ = 0;  // the common candidate
  std::unique_ptr<BaInstance> inner_;
};

// Multivalued BA over u64 from a binary BaSpec. Rounds: 2 + binary's.
BaSpec turpin_coan_spec(BaSpec binary);

}  // namespace ssbft
