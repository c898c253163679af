// Transient-fault and network-fault injection schedules.
//
// Models the paper's failure assumptions beyond Byzantine nodes: arbitrary
// memory corruption of non-faulty nodes, and a communication network that
// may deliver "phantom" messages / lose messages until it becomes non-faulty
// (Definition 2.2 and the surrounding discussion). The DeliverySpec extends
// the network axis with adversarial *scheduling* power — who receives which
// message, when — the dimension Lewko (arXiv:1106.5170, arXiv:1301.3223)
// identifies as what actually separates BA protocols.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "support/check.h"
#include "support/types.h"

namespace ssbft {

// Which network runs between the send and receive phases of a beat
// (sim/delivery.h runs every kind; this enum is the sweepable spec
// field).
enum class DeliveryKind : std::uint8_t {
  kSynchronous,    // every surviving message arrives in its send beat
  kEclipse,        // victims hear only an allowlist of senders until heal_at
  kPartition,      // no cross-group delivery until heal_at
  kTargetedDelay,  // messages to victims arrive delay_beats beats late
  kReorder,        // rng-permuted arrival order within each beat
};

// Fully-specified delivery adversary, a value type so scenario worlds can
// sweep it like every other fault axis. Interpreted by Delivery
// (sim/delivery.h).
struct DeliverySpec {
  // heal_at value meaning "the topology adversary never stops".
  static constexpr Beat kNever = ~Beat{0};
  // Largest supported targeted delay. The pending ring holds
  // delay_beats x one beat's victim traffic (messages and payload
  // copies), so the bound keeps the delivery's steady-state memory a sane
  // multiple of the per-beat traffic shape.
  static constexpr std::uint32_t kMaxDelayBeats = 1u << 12;

  DeliveryKind kind = DeliveryKind::kSynchronous;
  // kEclipse / kTargetedDelay: the targeted (victim) node ids.
  std::vector<NodeId> victims;
  // kEclipse: senders a victim still hears while eclipsed. A victim
  // always hears itself (loopback is local, not network traffic).
  std::vector<NodeId> allowed_senders;
  // kPartition: nodes with id < partition_split form group 0, the rest
  // group 1. Must cut the system into two non-empty groups.
  std::uint32_t partition_split = 0;
  // First beat at which the topology adversary stops: the eclipse lifts,
  // the partition heals, the delay stops holding *new* messages (already
  // held ones still arrive late). kNever = active for the whole run.
  Beat heal_at = kNever;
  // kTargetedDelay: beats a victim-addressed message is held (>= 1).
  std::uint32_t delay_beats = 1;

  void validate(std::uint32_t n) const {
    for (NodeId v : victims) {
      SSBFT_REQUIRE_MSG(v < n, "delivery victim id " << v
                                   << " out of range for n = " << n);
    }
    for (NodeId s : allowed_senders) {
      SSBFT_REQUIRE_MSG(s < n, "delivery allowed-sender id "
                                   << s << " out of range for n = " << n);
    }
    // Duplicate ids would double-count victims in the delivery's set
    // handling and make plan digests non-canonical; require each list to
    // name every id at most once.
    const auto has_duplicate = [](std::vector<NodeId> ids) {
      std::sort(ids.begin(), ids.end());
      return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
    };
    SSBFT_REQUIRE_MSG(!has_duplicate(victims),
                      "delivery victims list names a node id twice");
    SSBFT_REQUIRE_MSG(!has_duplicate(allowed_senders),
                      "delivery allowed-senders list names a node id twice");
    switch (kind) {
      case DeliveryKind::kSynchronous:
      case DeliveryKind::kReorder:
        break;
      case DeliveryKind::kEclipse:
        SSBFT_REQUIRE_MSG(!victims.empty(),
                          "eclipse delivery needs at least one victim");
        break;
      case DeliveryKind::kPartition:
        SSBFT_REQUIRE_MSG(partition_split >= 1 && partition_split < n,
                          "partition_split " << partition_split
                                             << " must cut n = " << n
                                             << " into two non-empty groups");
        break;
      case DeliveryKind::kTargetedDelay:
        SSBFT_REQUIRE_MSG(!victims.empty(),
                          "targeted-delay delivery needs at least one victim");
        SSBFT_REQUIRE_MSG(delay_beats >= 1 && delay_beats <= kMaxDelayBeats,
                          "delay_beats " << delay_beats
                                         << " out of [1, " << kMaxDelayBeats
                                         << "]");
        break;
    }
  }
};

struct FaultPlan {
  // Start every node from an arbitrary memory state. This is the default
  // initial condition of every convergence experiment ("starting from any
  // state", Definition 3.2).
  bool randomize_genesis = true;

  // Nodes whose entire state is randomized immediately before the send
  // phase of the given beat (mid-run transient faults).
  std::map<Beat, std::vector<NodeId>> corruptions;

  // The communication network is faulty for beats < network_faulty_until:
  // phantom messages (never sent by any current node) may be delivered and
  // real messages may be lost. From this beat on, Definition 2.2 holds.
  Beat network_faulty_until = 0;
  // Phantom messages injected into each correct node per faulty-network beat.
  std::uint32_t phantoms_per_beat = 0;
  std::uint32_t phantom_max_len = 64;
  // Probability that a real message is dropped during a faulty-network beat.
  double faulty_drop_prob = 0.0;

  // The delivery adversary (default: synchronous, the paper's network).
  // Orthogonal to the loss/phantom axes above: drops and phantoms apply
  // under every delivery kind.
  DeliverySpec delivery;

  // Largest phantom payload a plan may ask for (1 MiB). Far beyond any
  // protocol's real message size, yet small enough that the sampling bound
  // `phantom_max_len + 1` (computed in 64 bits — the engine widens before
  // the increment, so even the type's maximum cannot wrap the bound to
  // zero) never asks the simulator for a pathological allocation.
  static constexpr std::uint32_t kMaxPhantomLen = 1u << 20;

  // First beat from which the declared network and delivery axes are
  // provably quiet: the lossy/phantom window ends at network_faulty_until
  // and a suppressing delivery adversary at heal_at (kTargetedDelay keeps
  // flushing parked messages for delay_beats more beats). kReorder never
  // heals but still delivers every message within its send beat, so it
  // never defers quiescence. Returns DeliverySpec::kNever when a
  // suppressing adversary runs forever. Trace checkers treat beats before
  // this horizon like corruption beats: the synchronous-network
  // assumption the closure invariant rests on does not hold there.
  // (Scheduled corruptions are excluded — they are visible in the trace.)
  Beat network_quiescence() const {
    Beat q = network_faulty_until;
    switch (delivery.kind) {
      case DeliveryKind::kSynchronous:
      case DeliveryKind::kReorder:
        break;
      case DeliveryKind::kEclipse:
      case DeliveryKind::kPartition:
        if (delivery.heal_at == DeliverySpec::kNever) {
          return DeliverySpec::kNever;
        }
        q = std::max(q, delivery.heal_at);
        break;
      case DeliveryKind::kTargetedDelay:
        if (delivery.heal_at == DeliverySpec::kNever) {
          return DeliverySpec::kNever;
        }
        q = std::max(q, delivery.heal_at + delivery.delay_beats);
        break;
    }
    return q;
  }

  // Engine-checked sanity of the plan against the world size n: value
  // ranges, scheduled-corruption ids (an id >= n would index the engine's
  // fault mask out of bounds) and the delivery spec.
  void validate(std::uint32_t n) const {
    SSBFT_REQUIRE_MSG(faulty_drop_prob >= 0.0 && faulty_drop_prob <= 1.0,
                      "faulty_drop_prob must be a probability");
    SSBFT_REQUIRE_MSG(phantom_max_len <= kMaxPhantomLen,
                      "phantom_max_len " << phantom_max_len
                                         << " exceeds the sane bound "
                                         << kMaxPhantomLen);
    for (const auto& [beat, ids] : corruptions) {
      for (NodeId id : ids) {
        SSBFT_REQUIRE_MSG(id < n, "corruption schedule at beat "
                                      << beat << " names node " << id
                                      << ", out of range for n = " << n);
      }
    }
    delivery.validate(n);
  }
};

}  // namespace ssbft
