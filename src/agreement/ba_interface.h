// One-shot synchronous Byzantine agreement instances.
//
// The deterministic baselines of Table 1 ([15]- and [7]-class) are built by
// pipelining one-shot BA on the clock value (the "pipelining concept" of
// Section 6.2). An instance runs a fixed number of rounds; round r's
// messages travel on channel base + r - 1, so a pipeline of staggered
// instances (one per round position) needs no session numbers — the same
// recycling trick as ss-Byz-Coin-Flip. An instance is a fixed-round state
// machine determined by its input, so the pipeline restarts its oldest one
// in place (reinit) instead of building a new one each beat.
//
// Contract (for n > resilience bound):
//   agreement: all correct nodes output the same value, whatever the
//              inputs and the Byzantine behavior;
//   validity:  if all correct inputs equal v, the output is v.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/message.h"
#include "sim/protocol.h"
#include "support/rng.h"

namespace ssbft {

class BaInstance {
 public:
  virtual ~BaInstance() = default;
  // A constant of the code: every node computes the same value from n, f.
  virtual int rounds() const = 0;
  // Round r in [1, rounds()]; messages go on channel base + r - 1.
  virtual void send_round(int round, Outbox& out, ChannelId base) = 0;
  virtual void receive_round(int round, const Inbox& in, ChannelId base) = 0;
  // Valid after receive_round(rounds()).
  virtual std::uint64_t output() const = 0;
  // Restarts as a freshly made instance with `input` would start, reusing
  // its storage.
  virtual void reinit(std::uint64_t input) = 0;
  virtual void randomize_state(Rng& rng) = 0;
};

using BaInstanceFactory = std::function<std::unique_ptr<BaInstance>(
    const ProtocolEnv&, std::uint64_t input)>;

}  // namespace ssbft
