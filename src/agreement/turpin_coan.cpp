#include "agreement/turpin_coan.h"

#include <optional>

#include "support/check.h"

namespace ssbft {

TurpinCoanInstance::TurpinCoanInstance(const ProtocolEnv& env,
                                       std::uint64_t input,
                                       const BaInstanceFactory& binary)
    : env_(env), tally_(env.n), inner_(binary(env, 0)) {
  SSBFT_CHECK(inner_ != nullptr);
  reinit(input);
}

void TurpinCoanInstance::ensure_inner(bool input) {
  if (!inner_live_) {
    inner_->reinit(input ? 1 : 0);
    inner_live_ = true;
  }
}

void TurpinCoanInstance::reinit(std::uint64_t input) {
  input_ = input;
  have_z_ = false;
  z_ = 0;
  x_ = 0;
  inner_live_ = false;
}

void TurpinCoanInstance::send_round(int round, Outbox& out, ChannelId base) {
  if (round == 1) {
    ByteWriter& w = out.writer();
    w.u64(input_);
    out.broadcast(base, w.data());
  } else if (round == 2) {
    ByteWriter& w = out.writer();
    write_proposal(w, have_z_, z_);
    out.broadcast(static_cast<ChannelId>(base + 1), w.data());
  } else {
    // A transient fault (or pipeline-genesis garbage) can reach round >= 3
    // without a live inner instance; start a default one — this instance
    // predates coherence and its output is allowed to be arbitrary.
    ensure_inner(false);
    inner_->send_round(round - 2, out, static_cast<ChannelId>(base + 2));
  }
}

void TurpinCoanInstance::receive_round(int round, const Inbox& in,
                                       ChannelId base) {
  if (round == 1) {
    // Inputs are arbitrary u64s: every value counts, with no range check.
    tally_.count_values(in, base);
    const std::optional<std::uint64_t> z = tally_.quorum(env_.n - env_.f);
    have_z_ = z.has_value();
    z_ = z.value_or(0);
  } else if (round == 2) {
    tally_.count_proposals(in, static_cast<ChannelId>(base + 1));
    const ValueTally::Count top = tally_.plurality();
    x_ = top.value;
    ensure_inner(top.count >= env_.n - env_.f);
  } else {
    ensure_inner(false);
    inner_->receive_round(round - 2, in, static_cast<ChannelId>(base + 2));
  }
}

std::uint64_t TurpinCoanInstance::output() const {
  if (!inner_live_) return 0;
  return inner_->output() == 1 ? x_ : 0;
}

void TurpinCoanInstance::randomize_state(Rng& rng) {
  input_ = rng.next_u64();
  have_z_ = rng.next_bool();
  z_ = rng.next_u64();
  x_ = rng.next_u64();
  if (inner_live_) {
    inner_->randomize_state(rng);
  } else if (rng.next_bool()) {
    ensure_inner(rng.next_bool());
    inner_->randomize_state(rng);
  }
}

BaInstanceFactory turpin_coan_factory(BaInstanceFactory binary) {
  return [binary = std::move(binary)](const ProtocolEnv& env,
                                      std::uint64_t input) {
    return std::make_unique<TurpinCoanInstance>(env, input, binary);
  };
}

}  // namespace ssbft
