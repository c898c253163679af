#include "core/clock_sync.h"

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

SsByzClockSync::SsByzClockSync(const ProtocolEnv& env, ClockValue k,
                               const CoinSpec& coin, Rng rng, ChannelId base,
                               CoinPipelineMode mode)
    : env_(env),
      k_(k),
      ch_full_(base),
      ch_prop_(static_cast<ChannelId>(base + 1)),
      ch_bit_(static_cast<ChannelId>(base + 2)),
      channels_end_(base + channels_needed(coin, mode)),
      node_local_(coin.node_local),
      tally_(env.n) {
  SSBFT_REQUIRE_MSG(k >= 1, "k-Clock needs k >= 1");
  const auto a_base = static_cast<ChannelId>(base + 3);
  a_ = std::make_unique<SsByz4Clock>(env, coin, a_base, rng.split("four"),
                                     mode);
  coin_base_ =
      static_cast<ChannelId>(a_base + SsByz4Clock::channels_needed(coin, mode));
  coin_ = coin.make(env, coin_base_, rng.split("phase3-coin"));
  SSBFT_CHECK(coin_ != nullptr);
}

void SsByzClockSync::trace_state(TraceEmitter& em) const {
  em.phase(ch_full_, phase_);
  // The phase-3 coin is consumed every beat (receive_phase draws it
  // unconditionally), so its latched bit is always fresh.
  em.coin(coin_base_, coin_->last_output());
  a_->trace_state(em);
}

void SsByzClockSync::send_phase(Outbox& out) {
  // Line 3's "clock(A) at the beginning of the beat".
  phase_ = a_->clock();
  // Line 1: a beat of A (send half), plus our own coin stream.
  a_->sub_send(out);
  coin_->send_phase(out);
  // Line 2: the every-beat increment.
  full_clock_ = (full_clock_ + 1) % k_;

  switch (phase_) {
    case 0: {  // Block (a): broadcast the full clock.
      ByteWriter& w = out.writer();
      w.u64(full_clock_);
      out.broadcast(ch_full_, w.data());
      break;
    }
    case 1: {  // Block (b): propose what had n-f support in the previous beat.
      ByteWriter& w = out.writer();
      write_proposal(w, strong_value_.has_value(), strong_value_.value_or(0));
      out.broadcast(ch_prop_, w.data());
      break;
    }
    case 2: {  // Block (c): broadcast whether save had n-f support.
      ByteWriter& w = out.writer();
      w.u8(bit_);
      out.broadcast(ch_bit_, w.data());
      break;
    }
    default:  // Block (d) sends nothing.
      break;
  }
}

void SsByzClockSync::receive_phase(const Inbox& in) {
  // The coin bit becomes known only now, after all beat-r messages are
  // committed (same commitment argument as Remark 3.1).
  const bool rand = coin_->receive_phase(in);
  a_->sub_receive(in);
  switch (phase_) {
    case 0: recv_phase0(in); break;
    case 1: recv_phase1(in); break;
    case 2: recv_phase2(in); break;
    default: recv_phase3(rand); break;
  }
}

// End of block (a)'s beat: remember the value (if any) that n-f nodes sent.
void SsByzClockSync::recv_phase0(const Inbox& in) {
  tally_.count_values(in, ch_full_, k_ - 1);
  strong_value_ = tally_.quorum(env_.n - env_.f);
}

// End of block (b)'s beat: save := majority non-? proposal, bit := whether
// it had n-f support, save := 0 when everything was ? (the empty tally's
// plurality is {0, 0}).
void SsByzClockSync::recv_phase1(const Inbox& in) {
  tally_.count_proposals(in, ch_prop_, k_ - 1);
  const ValueTally::Count top = tally_.plurality();
  bit_ = top.count >= env_.n - env_.f ? 1 : 0;
  save_ = top.value;
}

// End of block (c)'s beat: tally the support bits.
void SsByzClockSync::recv_phase2(const Inbox& in) {
  const ByteVotes bits = count_byte_votes(in, ch_bit_, 1);
  zeros_count_ = bits[0];
  ones_count_ = bits[1];
}

// Block (d): adopt save+3, or reset to 0, deterministically when n-f bits
// agree and by the common coin otherwise. `save` was fixed in the previous
// beat while rand is drawn this beat, so the two are independent — the
// Lemma 8 gamble.
void SsByzClockSync::recv_phase3(bool rand) {
  const ClockValue adopted = (save_ + 3) % k_;
  if (ones_count_ >= env_.n - env_.f) {
    full_clock_ = adopted;
  } else if (zeros_count_ >= env_.n - env_.f) {
    full_clock_ = 0;
  } else if (rand) {
    full_clock_ = adopted;
  } else {
    full_clock_ = 0;
  }
}

void SsByzClockSync::randomize_state(Rng& rng) {
  a_->randomize_state(rng);
  coin_->randomize_state(rng);
  full_clock_ = rng.next_below(k_);
  phase_ = rng.next_below(4);
  if (rng.next_bool()) {
    strong_value_ = rng.next_below(k_);
  } else {
    strong_value_.reset();
  }
  save_ = rng.next_below(k_);
  bit_ = static_cast<std::uint8_t>(rng.next_below(2));
  ones_count_ = static_cast<std::uint32_t>(rng.next_below(env_.n + 1));
  zeros_count_ = static_cast<std::uint32_t>(rng.next_below(env_.n + 1));
}

}  // namespace ssbft
