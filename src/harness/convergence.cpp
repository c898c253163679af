#include "harness/convergence.h"

#include "support/check.h"

namespace ssbft {

bool ConvergenceStreak::step(Beat b, std::optional<ClockValue> common,
                             ClockValue k) {
  const bool continues = common.has_value() && prev.has_value() &&
                         length > 0 && *common == (*prev + 1) % k;
  prev = common;
  if (!common.has_value()) {
    length = 0;
    return false;
  }
  if (continues) {
    ++length;
    return false;
  }
  // First synced beat, or synced but the increment chain broke: a fresh
  // streak starts here.
  start = b;
  length = 1;
  return true;
}

bool clocks_agree(const Engine& engine) {
  return engine.common_clock().has_value();
}

ConvergenceResult measure_convergence(Engine& engine,
                                      const ConvergenceConfig& cfg) {
  SSBFT_REQUIRE(!engine.correct_ids().empty());
  // A zero window would satisfy `streak >= confirm_window` after the very
  // first beat, declaring convergence regardless of agreement.
  SSBFT_REQUIRE_MSG(cfg.confirm_window >= 1,
                    "confirm_window must be at least 1 beat");
  const auto* first =
      dynamic_cast<const ClockProtocol*>(&engine.node(engine.correct_ids()[0]));
  SSBFT_REQUIRE_MSG(first != nullptr, "engine does not host ClockProtocols");
  const ClockValue k = first->modulus();

  ConvergenceResult res;
  ConvergenceStreak streak;
  for (std::uint64_t i = 0; i < cfg.max_beats; ++i) {
    engine.run_beat();
    ++res.beats_run;
    const Beat executed = engine.beat() - 1;
    streak.step(executed, engine.common_clock(), k);
    if (streak.length >= cfg.confirm_window) {
      res.converged = true;
      res.synced_at = streak.start;
      return res;
    }
  }
  return res;
}

}  // namespace ssbft
