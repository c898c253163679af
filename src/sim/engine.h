// The lock-step simulation engine: global beat system, rushing Byzantine
// adversary, transient/network fault injection, deterministic replay.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/adversary.h"
#include "sim/delivery.h"
#include "sim/fault_plan.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/protocol.h"
#include "sim/trace.h"
#include "support/rng.h"

namespace ssbft {

// CPUs this process may run on: the count in its sched_getaffinity mask
// (so `taskset -c 0` gives 1), else hardware_concurrency(), at least 1.
// The default beat-worker cap and the sweep's job count both read it.
unsigned available_cpus();

// Hook invoked at the start of every beat, before any send phase. Used by
// environment-level components such as the oracle coin beacon.
class BeatListener {
 public:
  virtual ~BeatListener() = default;
  virtual void on_beat(Beat beat) = 0;
};

struct EngineConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  // Identities of the Byzantine nodes (size <= f typically; the engine
  // permits any subset so resiliency-boundary experiments can overload f).
  std::vector<NodeId> faulty;
  std::uint64_t seed = 1;
  FaultPlan faults;
  // 0 = record every beat's traffic; k > 0 = keep only the most recent k
  // beats (bounded memory, allocation-free steady state).
  std::size_t metrics_history_limit = 0;
  // Accumulate correct-node sent bytes per channel (one extra pass over
  // the beat's messages; off by default). Read via channel_bytes(); reset
  // via reset_channel_bytes() after warmup. Used by the per-round traffic
  // breakdown in `ssbft_bench run message_complexity`.
  bool track_channel_bytes = false;

  // The highest-id nodes are faulty by default.
  static std::vector<NodeId> last_ids_faulty(std::uint32_t n, std::uint32_t count);
};

using ProtocolFactory =
    std::function<std::unique_ptr<Protocol>(const ProtocolEnv&, Rng)>;

class Engine {
 public:
  // Builds protocols for every non-faulty node. Per FaultPlan, genesis
  // state is randomized by default (the self-stabilization start).
  Engine(EngineConfig cfg, const ProtocolFactory& factory,
         std::unique_ptr<Adversary> adversary);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Executes one full beat (listener hooks, scheduled corruption, send
  // phases, adversary, delivery with network faults, receive phases).
  // If send or receive phases throw on the beat workers, every other node
  // still runs its phase, and then run_beat rethrows the exception of the
  // lowest node id that threw; the engine can then still be destroyed,
  // nothing more.
  void run_beat();
  void run_beats(std::uint64_t count);

  Beat beat() const { return beat_; }
  std::uint32_t n() const { return cfg_.n; }
  std::uint32_t f() const { return cfg_.f; }

  bool is_faulty(NodeId id) const { return is_faulty_[id]; }
  const std::vector<NodeId>& correct_ids() const { return correct_ids_; }

  // The declared fault schedule this engine runs under (trace checkers
  // derive the network-quiescence horizon from it).
  const FaultPlan& fault_plan() const { return cfg_.faults; }

  // The protocol instance of a correct node.
  Protocol& node(NodeId id);
  const Protocol& node(NodeId id) const;

  // Clock values of all correct nodes, in correct_ids() order. Requires the
  // protocols to be ClockProtocols.
  std::vector<ClockValue> correct_clocks() const;

  // The value every correct clock holds, if they all hold the same one.
  // Requires the protocols to be ClockProtocols; allocates nothing.
  std::optional<ClockValue> common_clock() const;

  // Immediately randomizes the state of a correct node (manual transient
  // fault, in addition to any FaultPlan schedule).
  void corrupt_node(NodeId id);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  // Cumulative correct-node sent bytes per channel id (empty unless
  // EngineConfig::track_channel_bytes). Entry ch covers every message a
  // correct node emitted on channel ch, broadcasts counted once per
  // recipient — the same wire-byte semantics as Metrics. Scope: correct-
  // sender traffic only (no adversary or phantom bytes), accumulated at
  // send time — before the delivery phase runs — so drops, eclipses and
  // delays never change what a protocol is charged for.
  const std::vector<std::uint64_t>& channel_bytes() const {
    return channel_bytes_;
  }
  std::uint64_t channel_bytes_beats() const { return channel_bytes_beats_; }
  void reset_channel_bytes();

  // Listener is not owned; must outlive the engine's run.
  void add_listener(BeatListener* l) { listeners_.push_back(l); }

  // Attaches (or with nullptr detaches) a trace sink (sim/trace.h). The
  // sink is not owned and must outlive the run. With no sink the beat loop
  // pays one pointer test.
  void set_trace(TraceSink* sink);

  // Beat workers. Within a beat's send phase, and again within its receive
  // phase, correct nodes do not depend on each other, so a heavy beat can
  // run them on a pool of threads. Every thread, the caller of run_beat
  // included, claims nodes one at a time from a shared cursor, and each
  // node sends through an outbox, arena and message vector of its own,
  // appended in id order after the phase. Between runs the threads spin
  // briefly, then sleep. The engine decides once, at the end of its first
  // beat, and keeps the decision: it starts min(cap, correct nodes)
  // workers iff every correct node's Protocol::node_local_phases() is
  // true, that beat moved at least kPoolMinBeatBytes of correct-node
  // traffic and the cap is above 1. Messages, metrics and everything serial — listeners,
  // corruption, the adversary, delivery, channel bytes, the trace — come
  // out exactly as on one thread. The cap defaults to available_cpus(); a
  // sweep lowers it so its engines share the cores. It may only be set
  // before the first beat.
  static constexpr std::uint64_t kPoolMinBeatBytes = std::uint64_t{1} << 20;
  void set_beat_workers(unsigned cap);
  unsigned beat_worker_cap() const { return worker_cap_; }
  // Workers the beats run on: 1 until (and unless) the pool starts.
  unsigned beat_workers() const;

 private:
  class BeatPool;  // sim/engine.cpp

  // Starts the pool if the first beat qualifies (see set_beat_workers).
  void decide_beat_workers();
  void send_phases();
  void receive_phases();
  // End-of-beat trace pass: per-node clock + protocol records, then the
  // engine-level traffic summary. Only called when trace_ is attached.
  void emit_beat_trace();
  // The ClockProtocol of correct node `id`; requires one.
  const ClockProtocol& clock_view(NodeId id) const;

  EngineConfig cfg_;
  Beat beat_ = 0;
  std::vector<bool> is_faulty_;
  std::vector<NodeId> correct_ids_;
  std::vector<std::unique_ptr<Protocol>> protocols_;  // null for faulty ids
  // Every payload of the current beat — sends, adversary traffic and
  // phantoms — rewound at the end of run_beat (message.h ownership rules).
  PayloadArena arena_;
  // The delivery phase of run_beat (sim/delivery.h), built from
  // FaultPlan once the world's shape is known. It owns the network rng and
  // copies what a targeted delay holds back into arenas of its own, so it
  // borrows nothing across beats.
  Delivery delivery_;
  std::vector<Inbox> inboxes_;                        // per node id
  std::unique_ptr<Adversary> adversary_;
  std::uint32_t channel_count_ = 0;
  Rng adv_rng_;
  Rng corrupt_rng_;
  Metrics metrics_;
  std::vector<BeatListener*> listeners_;
  TraceSink* trace_ = nullptr;
  TraceBuffer trace_buf_;
  // Per-id clock views, resolved once at construction (null for faulty ids
  // and non-clock protocols), so reading clocks never dynamic_casts.
  std::vector<const ClockProtocol*> clock_views_;
  std::vector<std::uint64_t> channel_bytes_;  // per channel, when tracked
  std::uint64_t channel_bytes_beats_ = 0;
  // Persistent per-beat scratch: cleared every beat, capacity retained.
  Outbox outbox_{0, 0, &arena_};
  std::vector<Message> correct_msgs_;
  std::vector<Message> adv_msgs_;
  std::vector<Message> observed_;  // the rushing view
  unsigned worker_cap_;
  bool all_node_local_ = true;
  bool workers_decided_ = false;
  // Declared last: its threads are joined before anything they touch dies.
  std::unique_ptr<BeatPool> pool_;
};

}  // namespace ssbft
