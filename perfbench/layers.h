// Per-layer spans measured from outside the library: timing decorators
// around the public interfaces the engine calls (ClockProtocol,
// CoinComponent, CoinInstance, Adversary, BeatListener), installed by a
// benchmark-side builder that assembles the same ss-Byz-Clock-Sync engine
// the scenario registry builds. No library source is instrumented; a
// traced engine must replay its untraced twin exactly, which the workloads
// check.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "coin/coin_interface.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Heap allocations made by the calling thread so far (the benchmark binary
// replaces global operator new; see main.cpp).
std::uint64_t thread_allocations();

// Busy nanoseconds and call counts per layer, summed over the beats they
// cover. Spans nest by construction: a core span contains the coin spans
// of the components it embeds, a coin span contains its FM round spans,
// and a beat contains the core, adversary and listener spans.
struct LayerSpans {
  std::uint64_t core_send_ns = 0;
  std::uint64_t core_recv_ns = 0;
  std::uint64_t coin_send_ns = 0;
  std::uint64_t coin_recv_ns = 0;
  std::uint64_t coin_calls = 0;
  // FM rounds 1-4: deal, cross, vote, recover.
  std::array<std::uint64_t, 4> fm_send_ns{};
  std::array<std::uint64_t, 4> fm_recv_ns{};
  std::uint64_t adversary_ns = 0;
  std::uint64_t listener_ns = 0;
  // Beats tallied for coin agreement, and how many of them agreed.
  std::uint64_t coin_beats = 0;
  std::uint64_t coin_agree_beats = 0;

  std::uint64_t core_ns() const { return core_send_ns + core_recv_ns; }
  std::uint64_t coin_ns() const { return coin_send_ns + coin_recv_ns; }
  std::uint64_t fm_ns() const;
  void add(const LayerSpans& o);
};

// What the decorators of one engine record into. One probe per engine, so
// concurrent sweep units never share one.
struct EngineProbe {
  LayerSpans spans;
  // Channel bases of the FM coin pipelines; round r travels on base + r - 1.
  std::vector<ssbft::ChannelId> fm_bases;
  // Per node id: the clock-sync layer's own phase-3 coin (null for faulty
  // ids).
  std::vector<const ssbft::CoinComponent*> phase3_coin;

  // Tallies the most recent beat: did every correct node's phase-3 coin
  // latch the same bit?
  void tally_coin_agreement();
  // Correct-node bytes sent on FM round `round` (1-based) across all
  // pipelines, from the engine's channel-byte accounting.
  std::uint64_t fm_round_bytes(const ssbft::Engine& e, int round) const;
};

// An ss-Byz-Clock-Sync engine for world `w`, built exactly as
// ssbft::build_clock_sync builds it (same seed streams, coin, adversary and
// listener), with the metrics history bounded to `history_limit` beats
// (0 = unbounded, the registry default). With a probe, every layer
// interface is wrapped in a timing decorator recording into it and the
// engine tracks per-channel bytes; the probe must outlive the engine.
ssbft::EngineBundle build_clock_sync_engine(const ssbft::World& w,
                                            std::uint64_t seed,
                                            std::size_t history_limit,
                                            EngineProbe* probe);

}  // namespace perfbench
