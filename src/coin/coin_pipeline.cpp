#include "coin/coin_pipeline.h"

#include <algorithm>

#include "support/check.h"

namespace ssbft {

SsByzCoinFlip::SsByzCoinFlip(const CoinInstanceFactory& factory, int rounds,
                             ChannelId base, Rng rng)
    : rounds_(rounds), base_(base), rng_(rng) {
  SSBFT_REQUIRE(rounds_ >= 1);
  slots_.reserve(static_cast<std::size_t>(rounds_));
  for (int j = 0; j < rounds_; ++j) {
    slots_.push_back(factory(rng_.split("instance", rng_.next_u64())));
    SSBFT_CHECK(slots_.back() != nullptr);
    SSBFT_CHECK_MSG(slots_.back()->rounds() == rounds_,
                    "instance rounds " << slots_.back()->rounds()
                                       << " != pipeline depth " << rounds_);
  }
}

void SsByzCoinFlip::send_phase(Outbox& out) {
  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->send_round(j + 1, out, base_);
  }
}

bool SsByzCoinFlip::do_receive_phase(const Inbox& in) {
  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->receive_round(j + 1, in, base_);
  }
  const bool bit = slots_.back()->output();
  // Figure 1 lines 3-4: shift the pipeline and admit a fresh instance. The
  // retired instance is recycled in place (same rng derivation as a
  // factory-made one), so the steady-state beat allocates nothing.
  std::rotate(slots_.rbegin(), slots_.rbegin() + 1, slots_.rend());
  slots_.front()->reinit(rng_.split("instance", rng_.next_u64()));
  return bit;
}

void SsByzCoinFlip::randomize_state(Rng& rng) {
  // A transient fault may leave any garbage in any slot; convergence must
  // not depend on what it is.
  for (auto& slot : slots_) slot->randomize_state(rng);
}

}  // namespace ssbft
