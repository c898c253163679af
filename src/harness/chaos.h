// Seed-driven fault-space search: the chaos campaign generator behind
// `ssbft_bench soak`.
//
// The registry (harness/scenario.h) samples five hand-picked points of
// the FaultPlan x DeliverySpec space; a campaign walks the rest of it.
// FaultPlanGenerator turns one (campaign_seed, unit_index) pair into an
// arbitrary-but-valid fault assignment — faulty-set placement, transient
// corruption schedule, drop/phantom network axes, and a composed delivery
// adversary (eclipse / partition / targeted delay / reorder with
// randomized victims, splits and heal beats) — inside a fixed envelope
// (chaos.cpp's sampling bounds), so every sampled plan is
// `validate()`-clean, eventually quiescent (all faults scheduled within
// the first half of the unit's beat budget, so a censored-but-clean run
// is meaningful), and exactly reproducible: the sampler is a pure
// function of (campaign_seed, unit_index, scenario shape), built on
// split-stable named Rng streams (support/rng.h). `soak --minimize`
// re-runs candidate plans through the campaign's own unit runner (a
// one-cell live-checked sweep), so a minimized verdict is the campaign's.
//
// encode_chaos_unit / chaos_unit_digest give each sampled unit a
// canonical text form and a SHA-256 digest — the identity a violation's
// one-line repro carries and the byte-identity tests pin.
// chaos_reductions enumerates the strictly-weaker candidate plans the
// `--minimize` delta-debugger re-runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_plan.h"
#include "support/rng.h"
#include "support/types.h"

namespace ssbft {

// One sampled campaign unit: everything needed to rebuild its engine —
// the registry cell it perturbs, the engine seed, the faulty-set
// placement and the full FaultPlan. The (campaign_seed, index) pair is
// the unit's reproducible identity.
struct ChaosUnit {
  std::uint64_t campaign_seed = 0;
  std::uint64_t index = 0;
  std::string scenario;  // registry cell whose world the plan perturbs
  std::uint64_t engine_seed = 0;
  std::vector<NodeId> faulty;  // sorted placement, size = world's `actual`
  FaultPlan plan;
};

class FaultPlanGenerator {
 public:
  explicit FaultPlanGenerator(std::uint64_t campaign_seed)
      : campaign_seed_(campaign_seed) {}

  // Samples unit `index` against a world of `n` nodes with `actual`
  // faulty ones and a `max_beats` run budget. Pure: the same arguments
  // always return the same unit, and the returned plan is
  // validate()-clean against n.
  ChaosUnit make_unit(std::uint64_t index, const std::string& scenario,
                      std::uint32_t n, std::uint32_t actual,
                      std::uint64_t max_beats) const;

  std::uint64_t campaign_seed() const { return campaign_seed_; }

 private:
  std::uint64_t campaign_seed_;
};

// Canonical text form of a unit ("ssbft-chaos-v1", one axis per line).
// Doubles round-trip through hexfloat, so the encoding — and therefore
// the digest — is byte-identical across platforms and re-draws.
std::string encode_chaos_unit(const ChaosUnit& unit);

// SHA-256 (64 hex chars) of encode_chaos_unit — the plan identity in
// repro lines.
std::string chaos_unit_digest(const ChaosUnit& unit);

// Strictly-weaker candidate plans for delta-debugging a violating unit:
// whole axes dropped (delivery -> synchronous, network faults cleared,
// corruption schedule cleared), individual corruption beats removed,
// corruption node lists and victim sets halved, horizons halved, delay
// reduced. Ordered boldest-cut first; every candidate validates against
// any n the input validated against.
std::vector<FaultPlan> chaos_reductions(const FaultPlan& plan);

}  // namespace ssbft
