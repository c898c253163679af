// Shared test scaffolding: a top-level Protocol wrapper that hosts a
// one-shot BA instance on the engine, plus a bit-stream statistic over
// coin/coin_host.h's CoinHost.
#pragma once

#include <memory>
#include <vector>

#include "agreement/ba_interface.h"
#include "coin/coin_host.h"
#include "sim/engine.h"

namespace ssbft::testing {

// Hosts one BA instance: runs its rounds once, then idles holding the
// output.
class OneShotBaProtocol final : public Protocol {
 public:
  OneShotBaProtocol(const ProtocolEnv& env, const BaInstanceFactory& make,
                    std::uint64_t input)
      : instance_(make(env, input)), rounds_(instance_->rounds()) {}

  void send_phase(Outbox& out) override {
    if (next_round_ <= rounds_) instance_->send_round(next_round_, out, 0);
  }
  void receive_phase(const Inbox& in) override {
    if (next_round_ <= rounds_) {
      instance_->receive_round(next_round_, in, 0);
      ++next_round_;
    }
  }
  void randomize_state(Rng& rng) override { instance_->randomize_state(rng); }
  std::uint32_t channel_count() const override {
    return static_cast<std::uint32_t>(rounds_);
  }

  bool done() const { return next_round_ > rounds_; }
  std::uint64_t output() const { return instance_->output(); }

 private:
  std::unique_ptr<BaInstance> instance_;
  int rounds_;
  int next_round_ = 1;
};

// Fraction of beats from skip_warmup on where all correct hosts reported
// the same bit.
inline double common_bit_fraction(const Engine& engine,
                                  std::size_t skip_warmup) {
  const std::vector<bool> agree = coin_agreement(engine);
  if (agree.size() <= skip_warmup) return 0.0;
  std::size_t common = 0;
  for (std::size_t i = skip_warmup; i < agree.size(); ++i) common += agree[i];
  return static_cast<double>(common) /
         static_cast<double>(agree.size() - skip_warmup);
}

}  // namespace ssbft::testing
