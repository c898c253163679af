#include "agreement/phase_queen.h"

#include "sim/tally.h"

namespace ssbft {

PhaseQueenInstance::PhaseQueenInstance(const ProtocolEnv& env, bool input)
    : env_(env), v_(input) {}

void PhaseQueenInstance::send_round(int round, Outbox& out, ChannelId base) {
  const int phase = (round - 1) / 2;
  const int sub = (round - 1) % 2;
  const auto ch = static_cast<ChannelId>(base + round - 1);
  ByteWriter& w = out.writer();
  if (sub == 0) {
    w.u8(v_ ? 1 : 0);
    out.broadcast(ch, w.data());
  } else if (env_.self == static_cast<NodeId>(phase) % env_.n) {
    w.u8(v_ ? 1 : 0);
    out.broadcast(ch, w.data());
  }
}

void PhaseQueenInstance::receive_round(int round, const Inbox& in,
                                       ChannelId base) {
  const int phase = (round - 1) / 2;
  const int sub = (round - 1) % 2;
  const auto ch = static_cast<ChannelId>(base + round - 1);
  if (sub == 0) {
    const ByteVotes cnt = count_byte_votes(in, ch, 1);
    strong_ = false;
    for (int w = 0; w < 2; ++w) {
      if (cnt[w] >= env_.n - env_.f) {
        v_ = w != 0;
        strong_ = true;
      }
    }
    if (!strong_) v_ = cnt[1] > cnt[0];
  } else {
    const NodeId queen = static_cast<NodeId>(phase) % env_.n;
    // An absent or garbled queen value defaults to 0.
    if (!strong_) v_ = byte_vote_of(in, ch, queen, 1) == 1;
  }
}

void PhaseQueenInstance::reinit(std::uint64_t input) {
  v_ = (input & 1) != 0;
  strong_ = false;
}

void PhaseQueenInstance::randomize_state(Rng& rng) {
  v_ = rng.next_bool();
  strong_ = rng.next_bool();
}

BaInstanceFactory phase_queen_factory() {
  return [](const ProtocolEnv& env, std::uint64_t input) {
    return std::make_unique<PhaseQueenInstance>(env, (input & 1) != 0);
  };
}

}  // namespace ssbft
