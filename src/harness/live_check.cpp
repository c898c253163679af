#include "harness/live_check.h"

#include <string>

namespace ssbft {

void InvariantCore::reset(const CheckOptions& opts,
                          std::uint64_t header_confirm_window) {
  opts_ = opts;
  window_ = opts.confirm_window != 0
                ? opts.confirm_window
                : (header_confirm_window != 0 ? header_confirm_window : 12);
  res_ = CheckResult{};
  mode_ = Mode::kSearching;
  streak_ = ConvergenceStreak{};
  k_ = 0;
  total_groups_ = total_equal_ = 0;
  after_groups_ = after_equal_ = 0;
  coin_acc_.clear();
  beat_open_ = false;
  cur_beat_ = 0;
  corrupt_here_ = false;
  have_clocks_ = false;
  clocks_common_ = true;
  common_value_ = 0;
  finished_ = false;
}

void InvariantCore::violation(std::string msg) {
  res_.ok = false;
  ++res_.violation_count;
  if (res_.violations.size() < 32) res_.violations.push_back(std::move(msg));
}

void InvariantCore::feed(const TraceRecord& r) {
  if (!beat_open_ || r.beat != cur_beat_) {
    if (beat_open_) finalize_beat();
    beat_open_ = true;
    cur_beat_ = r.beat;
    ++res_.beats;
    corrupt_here_ = false;
    have_clocks_ = false;
    clocks_common_ = true;
    common_value_ = 0;
    coin_acc_.clear();
  }
  switch (r.event) {
    case TraceEvent::kCorrupt:
      corrupt_here_ = true;
      res_.had_corruption = true;
      res_.last_corruption = cur_beat_;
      break;
    case TraceEvent::kClock: {
      if (k_ == 0) k_ = r.b;
      if (r.a >= k_) {
        violation("beat " + std::to_string(cur_beat_) + " node " +
                  std::to_string(r.node) + ": clock value " +
                  std::to_string(r.a) + " >= modulus " + std::to_string(k_));
      }
      if (!have_clocks_) {
        have_clocks_ = true;
        common_value_ = r.a;
      } else if (r.a != common_value_) {
        clocks_common_ = false;
      }
      break;
    }
    case TraceEvent::kCoin: {
      const bool bit = r.a != 0;
      bool found = false;
      for (CoinAcc& acc : coin_acc_) {
        if (acc.stream != r.stream) continue;
        found = true;
        ++acc.count;
        if (acc.first_bit != bit) acc.equal = false;
        break;
      }
      if (!found) coin_acc_.push_back({r.stream, 1, bit, true});
      break;
    }
    default:
      break;
  }
}

void InvariantCore::finalize_beat() {
  const Beat beat = cur_beat_;
  const std::optional<ClockValue> common =
      (have_clocks_ && clocks_common_)
          ? std::optional<ClockValue>(common_value_)
          : std::nullopt;

  // A recorded corruption invalidates the known-good state at this beat
  // even when the visible clocks still step legally: the engine corrupts
  // before the send phase, so randomized *internal* state can surface as
  // a clock break only after the next exchange (or later). Withdraw the
  // converged claim / candidate streak here — re-convergence is measured
  // from the corruption — instead of excusing only a break that becomes
  // visible on exactly this beat. Beats inside the declared network-fault
  // horizon (lossy window, unhealed delivery adversary) are faulted for
  // the same reason: message suppression legally breaks lockstep there.
  const bool faulted = corrupt_here_ || beat < opts_.fault_horizon;
  if (faulted) {
    mode_ = Mode::kSearching;
    streak_.length = 0;
  }

  if (have_clocks_) {
    if (mode_ == Mode::kConverged) {
      const bool legal_step = common.has_value() && streak_.prev.has_value() &&
                              *common == (*streak_.prev + 1) % k_;
      if (!legal_step) {
        violation("beat " + std::to_string(beat) +
                  ": closure broke without a recorded corruption");
        mode_ = Mode::kSearching;
        streak_.length = 0;
      }
    }
    // A faulted beat never accrues streak: its common clock (if any)
    // predates the damage just injected, or sits inside the declared
    // network-fault window.
    if (mode_ == Mode::kSearching && !faulted) {
      if (streak_.step(beat, common, k_)) after_groups_ = after_equal_ = 0;
      if (streak_.length >= window_) {
        mode_ = Mode::kConverged;
        res_.synced_at = streak_.start;
      }
    } else {
      streak_.prev = common;
    }
  }

  // Fold the beat's coin groups after the streak update, so a group on a
  // streak's first beat lands on the excluded (`beat <= synced_at`) side
  // of the offline filter if that streak confirms.
  for (const CoinAcc& acc : coin_acc_) {
    if (acc.count < 2) continue;
    ++total_groups_;
    if (acc.equal) ++total_equal_;
    const bool candidate = mode_ == Mode::kConverged || streak_.length > 0;
    if (candidate && beat > streak_.start) {
      ++after_groups_;
      if (acc.equal) ++after_equal_;
    }
  }
  beat_open_ = false;
}

const CheckResult& InvariantCore::finish() {
  if (finished_) return res_;
  finished_ = true;
  if (beat_open_) finalize_beat();

  res_.converged = mode_ == Mode::kConverged;
  res_.censored = !res_.converged;

  // Coin agreement over confirmed-converged beats (gates derive from the
  // common clocks there, so groups are aligned across nodes). A censored
  // trace reports its rate over every group but enforces nothing.
  const std::uint64_t groups = res_.converged ? after_groups_ : total_groups_;
  const std::uint64_t equal = res_.converged ? after_equal_ : total_equal_;
  res_.coin_groups = groups;
  res_.coin_agreement_rate =
      groups == 0 ? 1.0
                  : static_cast<double>(equal) / static_cast<double>(groups);
  if (res_.converged && groups > 0 &&
      res_.coin_agreement_rate < opts_.coin_agreement) {
    violation("coin agreement rate " + std::to_string(res_.coin_agreement_rate) +
              " below required " + std::to_string(opts_.coin_agreement));
  }

  if (opts_.require_convergence && res_.censored) {
    violation("never converged within " + std::to_string(res_.beats) +
              " recorded beats");
  }
  if (opts_.bound != 0) {
    if (!res_.converged) {
      violation("re-convergence bound set but the trace never (re)converged");
    } else {
      // Re-convergence is measured from the later of the last corruption
      // and network quiescence, or from genesis when there is neither.
      Beat origin = 0;
      std::string from = "genesis";
      if (res_.had_corruption && res_.last_corruption >= opts_.fault_horizon) {
        origin = res_.last_corruption;
        from = "the last corruption (beat " + std::to_string(origin) + ")";
      } else if (opts_.fault_horizon != 0) {
        origin = opts_.fault_horizon;
        from = "network quiescence (beat " + std::to_string(origin) + ")";
      }
      if (res_.synced_at >= origin && res_.synced_at - origin > opts_.bound) {
        violation("re-converged " + std::to_string(res_.synced_at - origin) +
                  " beats after " + from + ", bound is " +
                  std::to_string(opts_.bound));
      }
    }
  }
  return res_;
}

}  // namespace ssbft
