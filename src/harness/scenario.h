// Scenario library: the experiment layer's vocabulary. A scenario is a
// named, fully-specified simulation cell — algorithm family, (n, f, k)
// world, adversary, coin, and the FaultPlan network/transient axes — plus
// the trial-run defaults (trials, seed, beat budget) that make it a cell
// of a sweep. Every bench table row is registered here by name, and every
// engine — registry cell, experiment probe, test world or `ssbft_bench
// sim` run — is assembled by the one family builder, build_world.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "sim/adversary.h"
#include "sim/fault_plan.h"

namespace ssbft {

// Which coin the paper's algorithms run on.
enum class CoinKind {
  kOracle,  // idealized beacon with p0 = p1 = 0.45 (layer isolation)
  kFm,      // full message-level GVSS coin
};

// Adversary selection, uniform across families.
enum class Attack {
  kSilent,
  kNoise,
  kSplit,      // equivocates 0/1 on channel 0
  kSkew,       // conflicting clock stories on channels 0..2
  kCoinAttack, // FM-coin attacker on the given channel base (FM runs only)
  kAntiCoin,   // oracle-rushing anti-coin adversary (beacon families only)
  kAdaptive,   // adaptive quorum splitter on the clock channel
};

// Algorithm family — which protocol stack the scenario instantiates.
enum class Family {
  kClockSync,        // ss-Byz-Clock-Sync (the paper)
  kClock4,           // ss-Byz-4-Clock building block
  kClock2,           // ss-Byz-2-Clock on the oracle coin
  kCascade,          // Section 5 cascade (2^levels-clock)
  kDolevWelch,       // Dolev-Welch randomized baseline ([10] sync row)
  kDolevWelchShared, // Section 6.1 retrofit: DW gamble on a shared coin
  kPipelinedQueen,   // pipelined BA clock over phase-queen ([15])
  kPipelinedKing,    // pipelined BA clock over TC + phase-king ([7])
};

const char* family_name(Family f);
const char* attack_name(Attack a);

struct World {
  std::uint32_t n = 4;
  std::uint32_t f = 1;      // protocol's assumed bound
  std::uint32_t actual = 1; // actually-faulty node count (for boundary runs)
  ClockValue k = 64;
  Attack attack = Attack::kSkew;
  // kNoise only: messages sprayed per faulty node per beat (the gallery's
  // noise world uses 10; the bench default is 8).
  std::uint32_t noise_msgs_per_beat = 8;
  CoinKind coin = CoinKind::kOracle;
  // kCascade only: number of 2-clock levels (solves k = 2^levels).
  std::uint32_t levels = 2;
  // Coin-pipeline sharing for the clock-sync / 4-clock stacks (Remark 4.1
  // ablation). Numeric to avoid dragging coin_pipeline.h into every
  // bench: 0 = per-sub-clock (the default), 1 = shared.
  std::uint32_t shared_pipeline = 0;
  // Per-channel byte accounting (message_complexity's breakdown).
  bool track_channel_bytes = false;
  // Network/transient fault axes (drop probability, phantom injection,
  // mid-run corruption schedule), passed through to the engine.
  FaultPlan faults;
  // Which node ids are actually faulty. Empty = the registry default
  // (the `actual` highest ids); chaos campaigns (harness/chaos.h)
  // randomize the placement through this override. Size must equal
  // `actual` when set.
  std::vector<NodeId> faulty_override;
};

// Beacon-free attacks (everything but kAntiCoin, which needs the world's
// oracle beacon and is built inside build_world). noise_msgs tunes kNoise
// only (World::noise_msgs_per_beat flows through here).
std::unique_ptr<Adversary> make_attack(Attack a, ClockValue k,
                                       ChannelId coin_base,
                                       std::uint32_t noise_msgs = 8);

EngineConfig world_config(const World& w, std::uint64_t seed);

// The family builder: an EngineBuilder that constructs one seeded engine
// of `family` in world `w` (plus the keepalive oracle beacon when the
// family runs the oracle coin). Clock-sync, the 4-clock and DW-shared run
// w.coin; the 2-clock and the cascade always run the oracle coin; DW and
// the pipelined-BA baselines run none.
EngineBuilder build_world(Family family, const World& w);

// ---------------------------------------------------------------------------
// Registry: string-keyed scenario specs.

struct ScenarioSpec {
  std::string name;     // registry key, e.g. "table1/sync/n7"
  std::string summary;  // one-liner for `ssbft_bench list`
  Family family = Family::kClockSync;
  World world;
  // Trial-run defaults for this cell (CLI overrides layer on top).
  std::uint64_t trials = 20;
  std::uint64_t base_seed = 1;
  std::uint64_t max_beats = 8000;
  std::uint64_t confirm_window = 0;  // 0 = ConvergenceConfig default
};

// EngineBuilder for one cell of the spec.
EngineBuilder build_scenario(const ScenarioSpec& spec);

// RunnerConfig carrying the spec's defaults (trials, base seed,
// convergence budget).
RunnerConfig scenario_runner_config(const ScenarioSpec& spec);

// One-line audit detail for `ssbft_bench list`: the cell's DeliverySpec
// (kind, victim/allowed-sender id lists, split/delay/heal), the network
// fault axes (drop probability, phantoms) with their horizon, the
// corruption schedule, and the trial-run defaults — everything needed to
// audit a grid before running it.
std::string scenario_detail(const ScenarioSpec& spec);

// All registered scenarios, sorted by name. Built once, immutable.
const std::vector<ScenarioSpec>& scenario_registry();

// Lookup by exact name; nullptr when unknown.
const ScenarioSpec* find_scenario(const std::string& name);

// Glob matching with `*` (any run, including `/`) and `?` (any one char).
bool glob_match(const std::string& pattern, const std::string& text);

// Registry entries matching the glob, in registry (sorted) order.
std::vector<const ScenarioSpec*> match_scenarios(const std::string& pattern);

}  // namespace ssbft
