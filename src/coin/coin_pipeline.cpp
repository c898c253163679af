#include "coin/coin_pipeline.h"

#include "support/check.h"

namespace ssbft {

SsByzCoinFlip::SsByzCoinFlip(CoinInstanceFactory factory, int rounds,
                             ChannelId base, Rng rng)
    : factory_(std::move(factory)), rounds_(rounds), base_(base), rng_(rng) {
  SSBFT_REQUIRE(rounds_ >= 1);
  slots_.reserve(static_cast<std::size_t>(rounds_));
  for (int j = 0; j < rounds_; ++j) slots_.push_back(fresh_instance());
}

std::unique_ptr<CoinInstance> SsByzCoinFlip::fresh_instance() {
  auto inst = factory_(rng_.split("instance", rng_.next_u64()));
  SSBFT_CHECK(inst != nullptr);
  SSBFT_CHECK_MSG(inst->rounds() == rounds_,
                  "instance rounds " << inst->rounds() << " != pipeline depth "
                                     << rounds_);
  return inst;
}

void SsByzCoinFlip::send_phase(Outbox& out) {
  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->send_round(
        j + 1, out, static_cast<ChannelId>(base_ + j));
  }
}

bool SsByzCoinFlip::do_receive_phase(const Inbox& in) {
  for (int j = 0; j < rounds_; ++j) {
    slots_[static_cast<std::size_t>(j)]->receive_round(
        j + 1, in, static_cast<ChannelId>(base_ + j));
  }
  const bool bit = slots_.back()->output();
  // Figure 1 lines 3-4: shift the pipeline and admit a fresh instance. The
  // retired instance is recycled in place (same rng derivation as a
  // factory-made one), so the steady-state beat allocates nothing.
  std::unique_ptr<CoinInstance> retired = std::move(slots_.back());
  for (std::size_t j = slots_.size() - 1; j > 0; --j) {
    slots_[j] = std::move(slots_[j - 1]);
  }
  retired->reinit(rng_.split("instance", rng_.next_u64()));
  slots_[0] = std::move(retired);
  return bit;
}

void SsByzCoinFlip::randomize_state(Rng& rng) {
  // A transient fault may leave any garbage in any slot; convergence must
  // not depend on what it is.
  for (auto& slot : slots_) slot->randomize_state(rng);
}

}  // namespace ssbft
