#include "core/clock2.h"

#include "sim/trace.h"
#include "support/check.h"

namespace ssbft {

SsByz2Clock::SsByz2Clock(const ProtocolEnv& env, const CoinSpec& coin,
                         ChannelId base, Rng rng)
    : env_(env),
      clock_channel_(base),
      channels_end_(base + channels_needed(coin)),
      coin_(coin.make(env, static_cast<ChannelId>(base + 1),
                      rng.split("coin"))) {
  SSBFT_CHECK(coin_ != nullptr);
}

SsByz2Clock::SsByz2Clock(const ProtocolEnv& env, ChannelId base, Rng rng)
    : env_(env),
      clock_channel_(base),
      channels_end_(base + channels_needed_external_coin()) {
  (void)rng;
}

void SsByz2Clock::sub_send(Outbox& out) {
  // Line 1: broadcast clock (one byte: 0, 1 or ?).
  ByteWriter& w = out.writer();
  w.u8(static_cast<std::uint8_t>(clock_));
  out.broadcast(clock_channel_, w.data());
  // Line 2 (send half): the coin's messages for this beat.
  if (coin_) coin_->send_phase(out);
}

void SsByz2Clock::sub_receive(const Inbox& in) {
  SSBFT_REQUIRE_MSG(coin_ != nullptr,
                    "external-coin 2-clock needs sub_receive_with_rand");
  // Line 2 (receive half): rand becomes known only now, after every node —
  // Byzantine included — committed its beat-r messages (Remark 3.1).
  const bool rand = coin_->receive_phase(in);
  apply_majority_rule(in, rand);
}

void SsByz2Clock::sub_receive_with_rand(const Inbox& in, bool rand) {
  SSBFT_REQUIRE_MSG(coin_ == nullptr,
                    "embedded-coin 2-clock drives its own coin");
  apply_majority_rule(in, rand);
}

void SsByz2Clock::apply_majority_rule(const Inbox& in, bool rand) {
  // Lines 3-4: count values with "?" read as rand. Malformed or missing
  // payloads are ignored (a Byzantine sender gains nothing by gibberish).
  std::uint32_t count[2] = {0, 0};
  for (const ByteSpan* payload : in.first_per_sender(clock_channel_)) {
    if (payload == nullptr) continue;
    ByteReader r(*payload);
    const std::uint8_t v = r.u8();
    if (!r.at_end() || v > static_cast<std::uint8_t>(Tri::kBottom)) continue;
    if (v == static_cast<std::uint8_t>(Tri::kBottom)) {
      ++count[rand ? 1 : 0];
    } else {
      ++count[v];
    }
  }
  // maj = most frequent value. Ties cannot matter: #maj >= n-f > n/2 is
  // required below, and two values above n/2 cannot coexist; break toward 0.
  const int maj = count[1] > count[0] ? 1 : 0;
  const std::uint32_t maj_count = count[maj];
  // Lines 5-6.
  if (maj_count >= env_.n - env_.f) {
    clock_ = (1 - maj) == 0 ? Tri::kZero : Tri::kOne;
  } else {
    clock_ = Tri::kBottom;
  }
}

void SsByz2Clock::randomize_state(Rng& rng) {
  clock_ = static_cast<Tri>(rng.next_below(3));
  if (coin_) coin_->randomize_state(rng);
}

ClockValue SsByz2Clock::clock() const {
  return clock_ == Tri::kOne ? 1 : 0;
}

void SsByz2Clock::trace_state(TraceEmitter& em) const {
  // The raw tri-state (0, 1, 2 = ?) — clock() hides ? and the checker wants
  // to see convergence to the alternating closed orbit, not its projection.
  em.phase(clock_channel_, static_cast<std::uint64_t>(clock_));
  if (coin_) {
    em.coin(static_cast<std::uint32_t>(clock_channel_ + 1),
            coin_->last_output());
  }
}

}  // namespace ssbft
