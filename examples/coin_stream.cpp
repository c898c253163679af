// The self-stabilizing shared-coin stream as a standalone service
// (Section 6.1: "a self-stabilizing access to a stream of shared coins").
//
// Runs ss-Byz-Coin-Flip over the Feldman-Micali-style GVSS coin on n nodes
// with f Byzantine, prints every node's per-beat output bit, and marks the
// beats where all correct nodes agree. After the pipeline's Delta_A = 4
// warmup every beat should be marked.
//
//   $ ./coin_stream [n] [f] [beats] [seed]
#include <iostream>
#include <string>

#include "adversary/adversaries.h"
#include "coin/coin_host.h"
#include "coin/fm_coin.h"
#include "sim/engine.h"

using namespace ssbft;

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::stoul(argv[1])) : 4;
  const std::uint32_t f = argc > 2 ? static_cast<std::uint32_t>(std::stoul(argv[2])) : 1;
  const std::uint64_t beats = argc > 3 ? std::stoull(argv[3]) : 24;
  const std::uint64_t seed = argc > 4 ? std::stoull(argv[4]) : 3;

  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f);
  cfg.seed = seed;
  CoinSpec spec = fm_coin_spec();
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<CoinHost>(env, spec, rng);
  };
  Engine engine(cfg, factory,
                f > 0 ? make_fm_coin_attacker(PrimeField::kDefaultPrime, 0)
                      : nullptr);
  engine.run_beats(beats);

  std::cout << "self-stabilizing coin stream: n=" << n << " f=" << f
            << " (GVSS attacker active), field p = 2^61-1\n"
            << "pipeline warmup Delta_A = " << FmCoinInstance::kRounds
            << " beats (Lemma 1)\n\nbeat | bits per correct node | common?\n";
  const std::vector<bool> agree = coin_agreement(engine);
  std::uint64_t common_after_warmup = 0;
  for (std::uint64_t i = 0; i < beats; ++i) {
    std::cout << (i < 10 ? "   " : "  ") << i << " | ";
    for (NodeId id : engine.correct_ids()) {
      const bool bit =
          dynamic_cast<const CoinHost&>(engine.node(id)).bits()[i];
      std::cout << (bit ? '1' : '0') << ' ';
    }
    std::cout << "| " << (agree[i] ? "yes" : "NO") << "\n";
    if (agree[i] && i >= FmCoinInstance::kRounds) ++common_after_warmup;
  }
  std::cout << "\ncommon beats after warmup: " << common_after_warmup << "/"
            << (beats - FmCoinInstance::kRounds)
            << "  (each is one shared random bit usable by any randomized "
               "self-stabilizing protocol)\n";
  return 0;
}
