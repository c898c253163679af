#include "baselines/pipelined_ba_clock.h"

#include <optional>

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

PipelinedBaClock::PipelinedBaClock(const ProtocolEnv& env, ClockValue k,
                                   const BaSpec& spec, Rng rng, ChannelId base)
    : env_(env),
      k_(k),
      spec_(spec),
      base_(base),
      rng_(rng),
      rounds_(spec.rounds_for(env.f)),
      tally_(env.n) {
  SSBFT_REQUIRE(k >= 1 && rounds_ >= 1);
  clock_channel_ = static_cast<ChannelId>(base_ + rounds_);
  slots_.reserve(static_cast<std::size_t>(rounds_));
  for (int j = 0; j < rounds_; ++j) slots_.push_back(fresh_instance());
}

std::unique_ptr<BaInstance> PipelinedBaClock::fresh_instance() {
  // Input = the value the clock should hold when this instance completes,
  // R+1 beats from the state it samples (created at the end of beat t,
  // adopted at the end of beat t+R).
  const std::uint64_t predicted =
      (clock_ % k_ + static_cast<std::uint64_t>(rounds_) + 1) % k_;
  auto inst = spec_.make(env_, predicted, rng_.split("ba", rng_.next_u64()));
  SSBFT_CHECK(inst != nullptr);
  SSBFT_CHECK(inst->rounds() == rounds_);
  return inst;
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

  for (std::size_t j = slots_.size() - 1; j > 0; --j) {
    slots_[j] = std::move(slots_[j - 1]);
  }
  slots_[0] = fresh_instance();
}

void PipelinedBaClock::randomize_state(Rng& rng) {
  clock_ = rng.next_u64() % (2 * k_);
  for (auto& s : slots_) s->randomize_state(rng);
}

void PipelinedBaClock::trace_state(TraceEmitter& em) const {
  em.phase(clock_channel_, quorum_step_ ? 1 : 0);
}

}  // namespace ssbft
