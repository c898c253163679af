// Deterministic self-stabilizing clock synchronization via pipelined
// one-shot Byzantine agreement — the [15]/[7] baseline family of Table 1.
//
// Two coupled mechanisms:
//
//   * quorum stepping: every beat each node broadcasts its clock; when some
//     value v reaches n-f support (unique by quorum intersection), the node
//     steps to v+1. Once all correct nodes are equal, this branch fires at
//     every correct node forever — deterministic closure.
//   * BA reconciliation: R staggered one-shot BA instances (R = the BA's
//     round count, a function of f) run concurrently, one completing per
//     beat; when the quorum branch fails, the node adopts the completing
//     instance's output. Agreement makes every BA-branch node adopt the
//     same value, so at most R+2 beats after coherence there is a beat
//     where all correct nodes are equal — from which the quorum branch
//     locks in. Convergence is deterministic Theta(f).
//
// The genuine [15]/[7] algorithms defeat an *adaptive* quorum-splitting
// adversary (which keeps exactly n-2f correct nodes on a boosted value)
// with substantially heavier machinery; this baseline preserves their
// Table-1 characteristics — deterministic, Theta(f) convergence, f < n/4
// (phase queen) vs f < n/3 (phase king) resiliency — under the adversary
// suite this repository fields. It is a deliberate substitution: a
// stand-in with the same Table-1 row, not a reimplementation.
//
// Instantiate with:
//   * turpin_coan(phase_queen): deterministic, O(f), f < n/4 — [15]'s row;
//   * turpin_coan(phase_king):  deterministic, O(f), f < n/3 — [7]'s row.
#pragma once

#include <memory>
#include <vector>

#include "agreement/ba_interface.h"
#include "sim/protocol.h"
#include "sim/tally.h"

namespace ssbft {

class PipelinedBaClock final : public ClockProtocol {
 public:
  PipelinedBaClock(const ProtocolEnv& env, ClockValue k, const BaSpec& spec,
                   Rng rng, ChannelId base = 0);

  void send_phase(Outbox& out) override;
  void receive_phase(const Inbox& in) override;
  void randomize_state(Rng& rng) override;
  ClockValue clock() const override { return clock_ % k_; }
  ClockValue modulus() const override { return k_; }
  std::uint32_t channel_count() const override {
    return base_ + static_cast<std::uint32_t>(rounds_) + 1;
  }
  // Reports which branch stepped the clock this beat (1 = quorum, 0 = BA
  // reconciliation); the protocol is deterministic, so no coin stream.
  void trace_state(TraceEmitter& em) const override;

  int pipeline_depth() const { return rounds_; }

 private:
  std::unique_ptr<BaInstance> fresh_instance();

  ProtocolEnv env_;
  ClockValue k_;
  BaSpec spec_;
  ChannelId base_;
  ChannelId clock_channel_;  // base_ + rounds_
  Rng rng_;
  int rounds_;
  ValueTally tally_;  // this beat's clock broadcasts
  ClockValue clock_ = 0;
  bool quorum_step_ = false;  // latched by receive_phase for trace_state
  // slots_[j] executes round j+1 at the current beat.
  std::vector<std::unique_ptr<BaInstance>> slots_;
};

}  // namespace ssbft
