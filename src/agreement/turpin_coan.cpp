#include "agreement/turpin_coan.h"

#include <algorithm>
#include <map>

#include "support/check.h"

namespace ssbft {

namespace {
constexpr std::uint8_t kBottom = 0;
constexpr std::uint8_t kValue = 1;
}  // namespace

TurpinCoanInstance::TurpinCoanInstance(const ProtocolEnv& env,
                                       std::uint64_t input,
                                       const BaSpec& binary, Rng rng)
    : env_(env), input_(input), binary_(binary), rng_(rng) {}

int TurpinCoanInstance::rounds() const {
  return 2 + binary_.rounds_for(env_.f);
}

void TurpinCoanInstance::ensure_inner(bool input) {
  if (inner_ == nullptr) {
    inner_ = binary_.make(env_, input ? 1 : 0, rng_.split("inner"));
    SSBFT_CHECK(inner_ != nullptr);
  }
}

void TurpinCoanInstance::send_round(int round, Outbox& out, ChannelId base) {
  if (round == 1) {
    ByteWriter& w = out.writer();
    w.u64(input_);
    out.broadcast(base, w.data());
  } else if (round == 2) {
    ByteWriter& w = out.writer();
    w.u8(have_z_ ? kValue : kBottom);
    w.u64(z_);
    out.broadcast(static_cast<ChannelId>(base + 1), w.data());
  } else {
    // A transient fault (or pipeline-genesis garbage) can reach round >= 3
    // without an inner instance; materialize a default one — this instance
    // predates coherence and its output is allowed to be arbitrary.
    ensure_inner(false);
    inner_->send_round(round - 2, out, static_cast<ChannelId>(base + 2));
  }
}

void TurpinCoanInstance::receive_round(int round, const Inbox& in,
                                       ChannelId base) {
  if (round == 1) {
    std::map<std::uint64_t, std::uint32_t> counts;
    for (const ByteSpan* p : in.first_per_sender(base)) {
      if (p == nullptr) continue;
      ByteReader r(*p);
      const std::uint64_t v = r.u64();
      if (!r.at_end()) continue;
      ++counts[v];
    }
    have_z_ = false;
    z_ = 0;
    for (const auto& [v, c] : counts) {
      if (c >= env_.n - env_.f) {
        have_z_ = true;
        z_ = v;
        break;  // unique by quorum intersection
      }
    }
  } else if (round == 2) {
    std::map<std::uint64_t, std::uint32_t> counts;
    for (const ByteSpan* p : in.first_per_sender(static_cast<ChannelId>(base + 1))) {
      if (p == nullptr) continue;
      ByteReader r(*p);
      const std::uint8_t tag = r.u8();
      const std::uint64_t v = r.u64();
      if (!r.at_end() || tag > kValue) continue;
      if (tag == kBottom) continue;
      ++counts[v];
    }
    x_ = 0;
    std::uint32_t best = 0;
    for (const auto& [v, c] : counts) {
      if (c > best) {  // ties resolve to the smallest value (map order)
        best = c;
        x_ = v;
      }
    }
    ensure_inner(best >= env_.n - env_.f);
  } else {
    ensure_inner(false);
    inner_->receive_round(round - 2, in, static_cast<ChannelId>(base + 2));
  }
}

std::uint64_t TurpinCoanInstance::output() const {
  if (inner_ == nullptr) return 0;
  return inner_->output() == 1 ? x_ : 0;
}

void TurpinCoanInstance::randomize_state(Rng& rng) {
  input_ = rng.next_u64();
  have_z_ = rng.next_bool();
  z_ = rng.next_u64();
  x_ = rng.next_u64();
  if (inner_) {
    inner_->randomize_state(rng);
  } else if (rng.next_bool()) {
    ensure_inner(rng.next_bool());
    inner_->randomize_state(rng);
  }
}

BaSpec turpin_coan_spec(BaSpec binary) {
  BaSpec spec;
  spec.resilience_denominator = std::max(3, binary.resilience_denominator);
  spec.rounds_for = [inner = binary.rounds_for](std::uint32_t f) {
    return 2 + inner(f);
  };
  spec.make = [binary](const ProtocolEnv& env, std::uint64_t input, Rng rng) {
    return std::make_unique<TurpinCoanInstance>(env, input, binary, rng);
  };
  return spec;
}

}  // namespace ssbft
