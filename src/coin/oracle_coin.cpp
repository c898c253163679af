#include "coin/oracle_coin.h"

#include "support/check.h"

namespace ssbft {

OracleBeacon::OracleBeacon(std::uint32_t n, OracleCoinParams params, Rng rng)
    : n_(n), params_(params), rng_(rng), bits_(n, false) {
  SSBFT_REQUIRE(params.p0 >= 0 && params.p1 >= 0 &&
                params.p0 + params.p1 <= 1.0);
}

void OracleBeacon::on_beat(Beat /*beat*/) {
  const double roll = rng_.next_double();
  if (roll < params_.p0) {
    common_ = true;
    common_value_ = false;
    bits_.assign(n_, false);
  } else if (roll < params_.p0 + params_.p1) {
    common_ = true;
    common_value_ = true;
    bits_.assign(n_, true);
  } else {
    common_ = false;
    for (std::uint32_t i = 0; i < n_; ++i) bits_[i] = rng_.next_bool();
  }
}

namespace {

class OracleCoinComponent final : public CoinComponent {
 public:
  OracleCoinComponent(std::shared_ptr<OracleBeacon> beacon, NodeId self)
      : beacon_(std::move(beacon)), self_(self) {}

  void send_phase(Outbox&) override {}
  bool do_receive_phase(const Inbox&) override { return beacon_->bit_for(self_); }
  // Stateless: a transient fault leaves nothing to corrupt, so the oracle
  // pipeline's convergence time is zero.
  void randomize_state(Rng&) override {}

 private:
  std::shared_ptr<OracleBeacon> beacon_;
  NodeId self_;
};

}  // namespace

CoinSpec oracle_coin_spec(std::shared_ptr<OracleBeacon> beacon) {
  SSBFT_REQUIRE(beacon != nullptr);
  CoinSpec spec;
  spec.channels = 0;
  // The beacon draws in on_beat, before any phase; phases only read it.
  spec.node_local = true;
  spec.make = [beacon](const ProtocolEnv& env, ChannelId, Rng) {
    return std::make_unique<OracleCoinComponent>(beacon, env.self);
  };
  return spec;
}

}  // namespace ssbft
