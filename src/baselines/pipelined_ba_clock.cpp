#include "baselines/pipelined_ba_clock.h"

#include <algorithm>
#include <optional>

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

PipelinedBaClock::PipelinedBaClock(const ProtocolEnv& env, ClockValue k,
                                   const BaInstanceFactory& make,
                                   ChannelId base)
    : env_(env), k_(k), base_(base), tally_(env.n) {
  SSBFT_REQUIRE(k >= 1);
  slots_.push_back(make(env_, 0));
  SSBFT_CHECK(slots_.front() != nullptr);
  rounds_ = slots_.front()->rounds();
  SSBFT_REQUIRE(rounds_ >= 1);
  clock_channel_ = static_cast<ChannelId>(base_ + rounds_);
  slots_.front()->reinit(next_input());
  slots_.reserve(static_cast<std::size_t>(rounds_));
  while (slots_.size() < static_cast<std::size_t>(rounds_)) {
    slots_.push_back(make(env_, next_input()));
  }
}

std::uint64_t PipelinedBaClock::next_input() const {
  // The value the clock should hold when this instance completes, R+1
  // beats from the state it samples (entering at the end of beat t,
  // adopted at the end of beat t+R).
  return (clock_ % k_ + static_cast<std::uint64_t>(rounds_) + 1) % k_;
}

void PipelinedBaClock::send_phase(Outbox& out) {
  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->send_round(j + 1, out, base_);
  }
  ByteWriter& w = out.writer();
  w.u64(clock_ % k_);
  out.broadcast(clock_channel_, w.data());
}

void PipelinedBaClock::receive_phase(const Inbox& in) {
  // Quorum scan over this beat's clock broadcasts.
  tally_.count_values(in, clock_channel_, k_ - 1);
  const std::optional<ClockValue> strong = tally_.quorum(env_.n - env_.f);

  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->receive_round(j + 1, in, base_);
  }
  const std::uint64_t agreed = slots_.back()->output();

  quorum_step_ = strong.has_value();
  if (strong) {
    // Deterministic closure branch: all correct nodes equal => everyone
    // sees the quorum and steps identically, forever.
    clock_ = (*strong + 1) % k_;
  } else {
    // Reconciliation branch: agreement makes this value common across all
    // nodes that take it; one common beat later the quorum branch locks in.
    clock_ = agreed % k_;
  }

  // Retire the completed instance: rotate it to slot 0 and restart it.
  std::rotate(slots_.rbegin(), slots_.rbegin() + 1, slots_.rend());
  slots_.front()->reinit(next_input());
}

void PipelinedBaClock::randomize_state(Rng& rng) {
  clock_ = rng.next_u64() % (2 * k_);
  for (auto& s : slots_) s->randomize_state(rng);
}

void PipelinedBaClock::trace_state(TraceEmitter& em) const {
  em.phase(clock_channel_, quorum_step_ ? 1 : 0);
}

}  // namespace ssbft
