// Coin-flipping interfaces mirroring Definitions 2.6-2.8.
//
// Two layers:
//
//  * CoinInstance — one invocation of a probabilistic coin-flipping
//    algorithm A (Definition 2.6): a fixed number of synchronous rounds,
//    after the last of which it emits one bit. Instances are the unit the
//    ss-Byz-Coin-Flip pipeline (Figure 1) stacks.
//
//  * CoinComponent — a self-stabilizing coin-flipping algorithm C
//    (Definition 2.8) embeddable in a host protocol: every host beat it
//    sends messages (send_phase) and yields one bit (receive_phase). After
//    its convergence time it behaves as a pipelined probabilistic
//    coin-flipping algorithm (Definition 2.7): one common-with-constant-
//    probability bit per beat.
//
// Hosts allocate each embedded component a contiguous channel range
// starting at `base`; the component must use only
// [base, base + CoinSpec::channels).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/message.h"
#include "sim/protocol.h"
#include "support/rng.h"

namespace ssbft {

class CoinInstance {
 public:
  virtual ~CoinInstance() = default;

  // Number of send rounds (the paper's Delta_A).
  virtual int rounds() const = 0;

  // Emit round `round`'s messages (1-based) on channel `base`, as given:
  // the caller picks the round's channel. SsByzCoinFlip passes slot j,
  // which runs round j + 1, its own channel base_ + j. (BaInstance instead
  // adds round - 1 to the base itself; see agreement/ba_interface.h.)
  virtual void send_round(int round, Outbox& out, ChannelId base) = 0;

  // Process round `round`'s inbox, read on channel `base` as given. After
  // receive_round(rounds()) the output bit is available.
  virtual void receive_round(int round, const Inbox& in, ChannelId base) = 0;

  // The coin (valid only after the final receive_round).
  virtual bool output() const = 0;

  // Re-initializes to the state a freshly constructed instance would have,
  // reusing existing storage. The pipeline retires its oldest instance
  // every beat by reinit-ing it in place instead of reallocating, so the
  // steady-state beat never touches the heap. `rng` plays the role of the
  // constructor's rng argument.
  virtual void reinit(Rng rng) = 0;

  // Transient fault injection.
  virtual void randomize_state(Rng& rng) = 0;
};

class CoinComponent {
 public:
  virtual ~CoinComponent() = default;
  virtual void send_phase(Outbox& out) = 0;
  // Returns this beat's random bit and latches it for last_output().
  bool receive_phase(const Inbox& in) {
    return last_output_ = do_receive_phase(in);
  }
  // The bit the most recent receive_phase returned — what the trace layer
  // records without re-running (and re-randomizing) the coin.
  bool last_output() const { return last_output_; }
  virtual void randomize_state(Rng& rng) = 0;

 protected:
  // Implementation hook behind the latching receive_phase.
  virtual bool do_receive_phase(const Inbox& in) = 0;

 private:
  bool last_output_ = false;
};

// A recipe for creating coin components inside host protocols. `channels`
// is a constant of the code (Remark 2.1): the host's channel layout depends
// on it and must be identical at every node.
struct CoinSpec {
  std::function<std::unique_ptr<CoinComponent>(const ProtocolEnv&,
                                               ChannelId base, Rng rng)>
      make;
  std::uint32_t channels = 0;
  // True iff the components' send and receive phases touch only their own
  // node's state, plus shared state nothing writes during the phases (a
  // host's Protocol::node_local_phases). Left false by anything that wraps
  // components around shared counters.
  bool node_local = false;
};

}  // namespace ssbft
