// The delivery phase of a beat: moves the sent messages into inboxes under
// the network FaultPlan declares.
//
// The synchronous default is the paper's network — every message that
// survives the loss lottery arrives in the beat it was sent — and is
// replay-exact with the pre-extraction engine (same net_rng draw
// sequence). The other DeliveryKinds model the *scheduling* power Lewko
// (arXiv:1106.5170, arXiv:1301.3223) identifies as the axis separating BA
// protocols: eclipsing a victim behind a sender allowlist, cutting the
// node set into groups until a heal beat, holding a victim's traffic for
// d beats, and permuting arrival order within a beat. All of them are one
// message loop; per message, in order:
//
//   1. a message to a faulty node is skipped (its inbox lives inside the
//      adversary);
//   2. while an eclipse or partition is active, the cut rule suppresses
//      the message (counted as eclipsed, no net_rng draw);
//   3. the loss lottery (FaultPlan::faulty_drop_prob) draws once from
//      net_rng on a lossy beat;
//   4. the survivor is parked (targeted delay, victim recipient, before
//      heal_at), collected for the shuffle (reorder) or delivered.
//
// Before the loop a targeted delay flushes the messages parked d beats
// ago; after it a reorder permutes the collected survivors with a
// Fisher-Yates on net_rng and delivers them, and then a lossy beat injects
// its phantoms.
//
// Contract notes:
//   * Drops and phantoms compose with every kind: the loss/phantom axes
//     are orthogonal to the scheduling axis.
//   * Payloads are spans into the engine's beat arena, which rewinds at
//     the end of the beat (sim/message.h). Delivering a message writes its
//     12-byte span into the recipient inbox's (channel, sender) slot if
//     that slot is still empty, never the bytes: the first arrival per
//     (channel, sender) wins, so the arrival order decides which of a
//     sender's duplicates a protocol sees.
//   * A targeted delay copies each held-back payload into one of d + 1
//     rotating arenas of the Delivery's own — the only payload copy that
//     crosses a beat — and keeps a flushed slot's bytes readable until
//     the end of the beat that delivers them.
//   * Buffer and arena reserves follow deterministic pre-drop counts,
//     never random survivor peaks, so the steady-state beat stays
//     allocation-free (tests/alloc_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fault_plan.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "support/rng.h"

namespace ssbft {

class Delivery {
 public:
  // Empty until the engine, once it knows its channel count, assigns the
  // real one.
  Delivery() = default;
  // Built once per engine from its validated plan, its fault mask (size n)
  // and its channel count; `net_rng` is the network's random stream.
  Delivery(const FaultPlan& faults, std::vector<bool> is_faulty,
           std::uint32_t channel_count, Rng net_rng);

  // Runs the delivery phase of `beat`: delivers (or parks) the beat's
  // correct-node and adversary messages, in that order, into `inboxes`
  // (per node id) and writes the phantoms' payloads into `arena`.
  void deliver_beat(Beat beat, const std::vector<Message>& correct_msgs,
                    const std::vector<Message>& adv_msgs,
                    std::vector<Inbox>& inboxes, PayloadArena& arena,
                    Metrics& metrics);

 private:
  // Step 2: whether an active eclipse or partition suppresses m.
  bool cut(const Message& m) const;
  void inject_phantoms(std::vector<Inbox>& inboxes, PayloadArena& arena,
                       Metrics& metrics);

  DeliverySpec spec_;
  Beat network_faulty_until_ = 0;
  double drop_prob_ = 0.0;
  std::uint32_t phantoms_per_beat_ = 0;
  std::uint32_t phantom_max_len_ = 0;
  std::uint32_t channel_count_ = 0;
  std::vector<bool> is_faulty_;   // per node id
  std::vector<bool> victim_;      // eclipse / delay victims, per node id
  std::vector<bool> allowed_;     // eclipse allowlist, per node id
  Rng net_rng_;
  // Targeted delay: ring slot beat % d holds what is due at `beat`; its
  // payloads live in arena beat % (d + 1) of the beat that parked them.
  std::vector<std::vector<Message>> ring_;
  std::vector<PayloadArena> arenas_;
  // Reorder: the beat's survivors, and their pre-shuffle indices.
  std::vector<Message> scratch_;
  std::vector<std::uint32_t> order_;
};

// Short registry/blurb name for a kind ("synchronous", "eclipse", ...).
const char* delivery_kind_name(DeliveryKind k);

}  // namespace ssbft
