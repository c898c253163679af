#include "agreement/phase_king.h"

#include "sim/tally.h"

namespace ssbft {

PhaseKingInstance::PhaseKingInstance(const ProtocolEnv& env, bool input)
    : env_(env), v_(input) {}

void PhaseKingInstance::send_round(int round, Outbox& out, ChannelId base) {
  const int phase = (round - 1) / 3;
  const int sub = (round - 1) % 3;
  const auto ch = static_cast<ChannelId>(base + round - 1);
  ByteWriter& w = out.writer();
  switch (sub) {
    case 0:  // R1: universal exchange of v.
      w.u8(v_ ? 1 : 0);
      out.broadcast(ch, w.data());
      break;
    case 1:  // R2: exchange proposals ("?" = 2).
      w.u8(propose_);
      out.broadcast(ch, w.data());
      break;
    case 2:  // R3: only the phase's king speaks.
      if (env_.self == static_cast<NodeId>(phase) % env_.n) {
        w.u8(v_ ? 1 : 0);
        out.broadcast(ch, w.data());
      }
      break;
  }
}

void PhaseKingInstance::receive_round(int round, const Inbox& in,
                                      ChannelId base) {
  const int phase = (round - 1) / 3;
  const int sub = (round - 1) % 3;
  const auto ch = static_cast<ChannelId>(base + round - 1);
  const std::uint32_t n = env_.n;
  const std::uint32_t f = env_.f;
  switch (sub) {
    case 0: {
      const ByteVotes cnt = count_byte_votes(in, ch, 1);
      propose_ = 2;
      for (int w = 0; w < 2; ++w) {
        if (cnt[w] >= n - f) propose_ = static_cast<std::uint8_t>(w);
      }
      break;
    }
    case 1: {
      // "?" (2) proposals are read but count toward neither value.
      const ByteVotes cnt = count_byte_votes(in, ch, 2);
      const int d = cnt[1] > cnt[0] ? 1 : 0;
      if (cnt[d] >= n - f) {
        v_ = d != 0;
        lock_ = 2;
      } else if (cnt[d] >= f + 1) {
        v_ = d != 0;
        lock_ = 1;
      } else {
        lock_ = 0;
      }
      break;
    }
    case 2: {
      const NodeId king = static_cast<NodeId>(phase) % env_.n;
      if (lock_ < 2) {
        // Missing/garbled king value defaults to 0 — every correct node
        // applies the same default, preserving agreement in king phases.
        v_ = byte_vote_of(in, ch, king, 1) == 1;
      }
      break;
    }
  }
}

void PhaseKingInstance::reinit(std::uint64_t input) {
  v_ = (input & 1) != 0;
  propose_ = 2;
  lock_ = 0;
}

void PhaseKingInstance::randomize_state(Rng& rng) {
  v_ = rng.next_bool();
  propose_ = static_cast<std::uint8_t>(rng.next_below(3));
  lock_ = static_cast<std::uint8_t>(rng.next_below(3));
}

BaInstanceFactory phase_king_factory() {
  return [](const ProtocolEnv& env, std::uint64_t input) {
    return std::make_unique<PhaseKingInstance>(env, (input & 1) != 0);
  };
}

}  // namespace ssbft
