#include "core/clock_sync.h"

#include <algorithm>

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

namespace {

constexpr std::uint8_t kPropBottom = 0;
constexpr std::uint8_t kPropValue = 1;

}  // namespace

SsByzClockSync::SsByzClockSync(const ProtocolEnv& env, ClockValue k,
                               const CoinSpec& coin, Rng rng, ChannelId base,
                               CoinPipelineMode mode)
    : env_(env),
      k_(k),
      ch_full_(base),
      ch_prop_(static_cast<ChannelId>(base + 1)),
      ch_bit_(static_cast<ChannelId>(base + 2)),
      channels_end_(base + channels_needed(coin, mode)),
      node_local_(coin.node_local) {
  value_counts_.reserve(env.n);
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
      if (strong_value_) {
        w.u8(kPropValue);
        w.u64(*strong_value_);
      } else {
        w.u8(kPropBottom);
        w.u64(0);
      }
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

void SsByzClockSync::tally(ClockValue v) {
  for (auto& [value, count] : value_counts_) {
    if (value == v) {
      ++count;
      return;
    }
  }
  value_counts_.emplace_back(v, 1);
}

// End of block (a)'s beat: remember the value (if any) that n-f nodes sent.
void SsByzClockSync::recv_phase0(const Inbox& in) {
  value_counts_.clear();
  for (const ByteSpan* payload : in.first_per_sender(ch_full_)) {
    if (payload == nullptr) continue;
    ByteReader r(*payload);
    const std::uint64_t v = r.u64();
    if (!r.at_end() || v >= k_) continue;  // out-of-range: Byzantine garbage
    tally(v);
  }
  strong_value_.reset();
  // Smallest qualifying value, matching the old ascending-map scan (at
  // most one value can qualify anyway: 2(n-f) > n for f < n/3).
  for (const auto& [v, c] : value_counts_) {
    if (c < env_.n - env_.f) continue;
    if (!strong_value_ || v < *strong_value_) strong_value_ = v;
  }
}

// End of block (b)'s beat: save := majority non-? proposal, bit := whether
// it had n-f support, save := 0 when everything was ?.
void SsByzClockSync::recv_phase1(const Inbox& in) {
  value_counts_.clear();
  for (const ByteSpan* payload : in.first_per_sender(ch_prop_)) {
    if (payload == nullptr) continue;
    ByteReader r(*payload);
    const std::uint8_t tag = r.u8();
    const std::uint64_t v = r.u64();
    if (!r.at_end() || tag > kPropValue) continue;
    if (tag == kPropBottom) continue;  // "?" proposals carry no value
    if (v >= k_) continue;
    tally(v);
  }
  // Highest count; ties break toward the smallest value, matching the old
  // ascending-map scan.
  ClockValue best = 0;
  std::uint32_t best_count = 0;
  for (const auto& [v, c] : value_counts_) {
    if (c > best_count || (c == best_count && best_count > 0 && v < best)) {
      best = v;
      best_count = c;
    }
  }
  bit_ = best_count >= env_.n - env_.f ? 1 : 0;
  save_ = best_count > 0 ? best : 0;  // "if save = ? set save := 0"
}

// End of block (c)'s beat: tally the support bits.
void SsByzClockSync::recv_phase2(const Inbox& in) {
  ones_count_ = 0;
  zeros_count_ = 0;
  for (const ByteSpan* payload : in.first_per_sender(ch_bit_)) {
    if (payload == nullptr) continue;
    ByteReader r(*payload);
    const std::uint8_t b = r.u8();
    if (!r.at_end() || b > 1) continue;
    if (b == 1) ++ones_count_; else ++zeros_count_;
  }
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
