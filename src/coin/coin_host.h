// Hosts a CoinComponent as a top-level protocol and records its per-beat
// bit stream: the smallest protocol that runs a self-stabilizing coin on
// the engine by itself (coin-quality measurements, the coin_stream
// example, the coin tests). coin_agreement reads the hosts' streams back.
#pragma once

#include <memory>
#include <vector>

#include "coin/coin_interface.h"
#include "sim/engine.h"

namespace ssbft {

class CoinHost final : public Protocol {
 public:
  CoinHost(const ProtocolEnv& env, const CoinSpec& spec, Rng rng)
      : channels_(spec.channels == 0 ? 1 : spec.channels),
        coin_(spec.make(env, 0, rng)) {}

  void send_phase(Outbox& out) override { coin_->send_phase(out); }
  void receive_phase(const Inbox& in) override {
    bits_.push_back(coin_->receive_phase(in));
  }
  void randomize_state(Rng& rng) override { coin_->randomize_state(rng); }
  std::uint32_t channel_count() const override { return channels_; }

  // One bit per beat run so far, in beat order.
  const std::vector<bool>& bits() const { return bits_; }

 private:
  std::uint32_t channels_;
  std::unique_ptr<CoinComponent> coin_;
  std::vector<bool> bits_;
};

// Per beat run so far, whether every correct node of `engine` (each a
// CoinHost) output the same bit: entry i is beat i. Callers apply their
// own warm-up rule. Empty when the engine has no correct node.
inline std::vector<bool> coin_agreement(const Engine& engine) {
  std::vector<const CoinHost*> hosts;
  for (NodeId id : engine.correct_ids()) {
    hosts.push_back(&dynamic_cast<const CoinHost&>(engine.node(id)));
  }
  if (hosts.empty()) return {};
  const std::vector<bool>& first = hosts[0]->bits();
  std::vector<bool> agree(first.size(), true);
  for (const CoinHost* h : hosts) {
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (h->bits()[i] != first[i]) agree[i] = false;
    }
  }
  return agree;
}

}  // namespace ssbft
