// Pluggable delivery engine: the phase of a beat that moves the sent
// messages into inboxes is a DeliveryPolicy, selected per run through
// FaultPlan::delivery.
//
// The default SynchronousDelivery is the paper's network — every message
// that survives the loss lottery arrives in the beat it was sent — and is
// replay-exact with the pre-extraction engine (same net_rng draw
// sequence). The adversarial policies model the *scheduling* power Lewko
// (arXiv:1106.5170, arXiv:1301.3223) identifies as the axis separating BA
// protocols: eclipsing a victim behind a sender allowlist, cutting the
// node set into groups until a heal beat, holding a victim's traffic for
// d beats, and permuting arrival order within a beat.
//
// Contract notes shared by every policy:
//   * Drop sampling (FaultPlan::faulty_drop_prob) and phantom injection
//     apply under every policy — the loss/phantom axes compose with the
//     topology axis. The drop decision is made once per beat
//     (DeliveryBeat::sample_drops), not re-evaluated per message.
//   * Payloads are spans into the engine's beat arena, which rewinds at
//     the end of the beat (sim/message.h). Delivering a message writes its
//     12-byte span into the recipient inbox's (channel, sender) slot if
//     that slot is still empty, never the bytes: the first arrival wins,
//     so a policy's arrival order decides which of a sender's duplicates a
//     protocol sees. A policy that defers delivery
//     (TargetedDelayDelivery) copies each held-back payload into an arena
//     owned by its ring slot — the only payload copy that crosses a beat —
//     and keeps a flushed slot's bytes readable until the end of the beat
//     that delivers them. Arena reserves follow deterministic pre-drop
//     bounds, so the steady-state beat stays allocation-free
//     (tests/alloc_test.cpp).
//   * Messages addressed to faulty nodes never reach an inbox (their
//     inboxes live inside the adversary).
//   * Policies own all cross-beat state. The engine hands each beat's
//     inputs over as one DeliveryBeat view and promises nothing about
//     engine internals beyond it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/fault_plan.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "support/rng.h"

namespace ssbft {

// One beat's delivery inputs, assembled by the engine (all pointers borrow
// engine-owned state for the duration of the call).
struct DeliveryBeat {
  Beat beat = 0;
  // beat < FaultPlan::network_faulty_until: loss and phantoms may occur.
  bool network_faulty = false;
  // Hoisted per-beat drop decision: network_faulty AND drop_prob > 0.
  // Policies consult this flag, never the plan, inside message loops.
  bool sample_drops = false;
  double drop_prob = 0.0;
  std::uint32_t n = 0;
  std::uint32_t channel_count = 0;
  const FaultPlan* faults = nullptr;
  const std::vector<bool>* is_faulty = nullptr;    // size n
  const std::vector<NodeId>* correct_ids = nullptr;
  std::vector<Message>* correct_msgs = nullptr;    // send-phase traffic
  std::vector<Message>* adv_msgs = nullptr;        // adversary traffic
  std::vector<Inbox>* inboxes = nullptr;           // per node id
  Rng* net_rng = nullptr;
  Metrics* metrics = nullptr;
  // The engine's beat arena; phantom payloads are written into it.
  PayloadArena* arena = nullptr;
};

class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  // Called once, after the engine knows the world shape; policies size
  // their cross-beat state (victim masks, pending rings) here.
  virtual void bind(std::uint32_t n, std::uint32_t channel_count) {
    (void)n;
    (void)channel_count;
  }

  // Runs the delivery phase of one beat: delivers (or parks) the beat
  // scratch's messages, fills inboxes, injects phantoms.
  virtual void deliver_beat(DeliveryBeat& b) = 0;
};

// Policy for a validated spec. Never returns null.
std::unique_ptr<DeliveryPolicy> make_delivery_policy(const DeliverySpec& spec);

// Short registry/blurb name for a kind ("synchronous", "eclipse", ...).
const char* delivery_kind_name(DeliveryKind k);

}  // namespace ssbft
