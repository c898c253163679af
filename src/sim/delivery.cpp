#include "sim/delivery.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace ssbft {

namespace {

// ---------------------------------------------------------------------------
// Sub-steps shared by the policies. These reproduce the pre-extraction
// engine behavior bit for bit (draw order included) — SynchronousDelivery
// is nothing but the loss lottery and phantom injection below.

// Under a lossy network the survivor counts are random, so a policy that
// buffers messages sizes its buffers to the deterministic pre-drop
// addressed counts — otherwise their capacity chases record peaks and the
// steady state would keep allocating. Counts the messages, and their
// payload bytes, addressed to targets `to` with addressed_to(to) true.
struct Addressed {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

template <typename Pred>
Addressed count_addressed(const DeliveryBeat& b, Pred addressed_to) {
  Addressed out;
  for (const std::vector<Message>* msgs : {b.correct_msgs, b.adv_msgs}) {
    for (const Message& m : *msgs) {
      if (!addressed_to(m.to)) continue;
      ++out.messages;
      out.bytes += m.payload.size();
    }
  }
  return out;
}

// The per-message loss lottery. Draws from net_rng only on sampling beats,
// so the draw sequence stays a deterministic function of the traffic.
inline bool drop_sampled(DeliveryBeat& b) {
  return b.sample_drops && b.net_rng->next_bernoulli(b.drop_prob);
}

// Phantom messages: leftovers in network buffers from before the system
// became coherent. They carry arbitrary (but unforged-looking) sender
// ids, channels and payloads.
void inject_phantoms(DeliveryBeat& b) {
  Rng& net_rng = *b.net_rng;
  // Room for the deterministic worst case up front, so the random phantom
  // lengths never drive the arena's growth.
  b.arena->reserve(b.correct_ids->size() *
                   std::size_t{b.faults->phantoms_per_beat} *
                   b.faults->phantom_max_len);
  for (NodeId id : *b.correct_ids) {
    for (std::uint32_t i = 0; i < b.faults->phantoms_per_beat; ++i) {
      Message m;
      m.from = static_cast<NodeId>(net_rng.next_below(b.n));
      m.to = id;
      m.channel = static_cast<ChannelId>(
          net_rng.next_below(std::max<std::uint32_t>(b.channel_count, 1)));
      // Widened before the +1: a phantom_max_len at the type's maximum must
      // not wrap the bound to zero.
      const std::uint64_t len = net_rng.next_below(
          static_cast<std::uint64_t>(b.faults->phantom_max_len) + 1);
      const std::size_t size = static_cast<std::size_t>(len);
      std::uint8_t* const buf = b.arena->alloc(size);
      // Bulk fill: one next_u64 draw per 8 payload bytes (little-endian,
      // a partial final draw spends its low bytes first). The draw
      // sequence is part of the replay contract: ceil(len/8) next_u64
      // draws per phantom, after the from/channel/len draws above.
      for (std::size_t off = 0; off < size; off += 8) {
        std::uint64_t word = net_rng.next_u64();
        const std::size_t chunk = std::min<std::size_t>(8, size - off);
        for (std::size_t byte = 0; byte < chunk; ++byte) {
          buf[off + byte] = static_cast<std::uint8_t>(word >> (8 * byte));
        }
      }
      m.payload = ByteSpan{buf, size};
      b.metrics->count_phantom();
      (*b.inboxes)[id].deliver(m);
    }
  }
}

// ---------------------------------------------------------------------------
// SynchronousDelivery: the paper's network, replay-exact with the
// pre-extraction engine.

class SynchronousDelivery final : public DeliveryPolicy {
 public:
  void deliver_beat(DeliveryBeat& b) override {
    deliver_all(b, *b.correct_msgs);
    deliver_all(b, *b.adv_msgs);
    if (b.network_faulty) inject_phantoms(b);
  }

 private:
  static void deliver_all(DeliveryBeat& b, const std::vector<Message>& msgs) {
    for (const Message& m : msgs) {
      if ((*b.is_faulty)[m.to]) continue;  // faulty inboxes: the adversary
      if (drop_sampled(b)) {
        b.metrics->count_dropped();
        continue;
      }
      (*b.inboxes)[m.to].deliver(m);
    }
  }
};

// ---------------------------------------------------------------------------
// EclipseDelivery: while active, each victim hears only the allowlisted
// senders (plus itself — loopback is local, not network traffic).
// Suppression happens before the loss lottery, so eclipsed messages spend
// no rng draws; phantoms are network garbage and still reach victims.

class EclipseDelivery final : public DeliveryPolicy {
 public:
  explicit EclipseDelivery(DeliverySpec spec) : spec_(std::move(spec)) {}

  void bind(std::uint32_t n, std::uint32_t) override {
    victim_.assign(n, false);
    for (NodeId v : spec_.victims) victim_[v] = true;
    allowed_.assign(n, false);
    for (NodeId s : spec_.allowed_senders) allowed_[s] = true;
  }

  void deliver_beat(DeliveryBeat& b) override {
    const bool active = b.beat < spec_.heal_at;
    deliver_filtered(b, *b.correct_msgs, active);
    deliver_filtered(b, *b.adv_msgs, active);
    if (b.network_faulty) inject_phantoms(b);
  }

 private:
  void deliver_filtered(DeliveryBeat& b, const std::vector<Message>& msgs,
                        bool active) {
    for (const Message& m : msgs) {
      if ((*b.is_faulty)[m.to]) continue;
      if (active && victim_[m.to] && !allowed_[m.from] && m.from != m.to) {
        b.metrics->count_eclipsed();
        continue;
      }
      if (drop_sampled(b)) {
        b.metrics->count_dropped();
        continue;
      }
      (*b.inboxes)[m.to].deliver(m);
    }
  }

  DeliverySpec spec_;
  std::vector<bool> victim_;
  std::vector<bool> allowed_;
};

// ---------------------------------------------------------------------------
// PartitionDelivery: while active, messages crossing the
// id < partition_split cut are suppressed in both directions (a partition
// is mutual eclipse, so the cuts land on the eclipsed counter).

class PartitionDelivery final : public DeliveryPolicy {
 public:
  explicit PartitionDelivery(DeliverySpec spec) : spec_(std::move(spec)) {}

  void deliver_beat(DeliveryBeat& b) override {
    const bool active = b.beat < spec_.heal_at;
    deliver_filtered(b, *b.correct_msgs, active);
    deliver_filtered(b, *b.adv_msgs, active);
    if (b.network_faulty) inject_phantoms(b);
  }

 private:
  void deliver_filtered(DeliveryBeat& b, const std::vector<Message>& msgs,
                        bool active) {
    const std::uint32_t split = spec_.partition_split;
    for (const Message& m : msgs) {
      if ((*b.is_faulty)[m.to]) continue;
      if (active && (m.from < split) != (m.to < split)) {
        b.metrics->count_eclipsed();
        continue;
      }
      if (drop_sampled(b)) {
        b.metrics->count_dropped();
        continue;
      }
      (*b.inboxes)[m.to].deliver(m);
    }
  }

  DeliverySpec spec_;
};

// ---------------------------------------------------------------------------
// TargetedDelayDelivery: messages to victims that survive the loss lottery
// are parked in a delay_beats-slot ring and delivered exactly delay_beats
// beats later, first in their arrival beat (they are the oldest traffic).
// Parking copies the payload into an arena of the policy's own, since the
// engine arena rewinds at the end of the beat. Per-sender order is
// preserved: every victim-addressed message takes the same constant
// detour, and within one ring slot the park order is the send order. After
// heal_at new messages flow synchronously; already-parked ones still
// arrive late. Reserves follow the pre-drop victim traffic, so the steady
// state stays allocation-free once the capacities settle.

class TargetedDelayDelivery final : public DeliveryPolicy {
 public:
  explicit TargetedDelayDelivery(DeliverySpec spec)
      : spec_(std::move(spec)), arenas_(spec_.delay_beats + 1) {
    ring_.resize(spec_.delay_beats);
  }

  void bind(std::uint32_t n, std::uint32_t) override {
    victim_.assign(n, false);
    for (NodeId v : spec_.victims) victim_[v] = true;
  }

  void deliver_beat(DeliveryBeat& b) override {
    // Due messages (parked delay_beats ago) arrive ahead of this beat's
    // traffic. The freed slot is exactly the one this beat parks into:
    // beat % d == (beat - d) % d.
    std::vector<Message>& slot = ring_[b.beat % spec_.delay_beats];
    // Arenas rotate over d + 1 beats, so the flushed payloads (in arena
    // (beat - d) % (d + 1)) stay readable through this beat's receive
    // phases, while this beat parks into the arena whose traffic was
    // delivered last beat.
    PayloadArena& arena = arenas_[b.beat % arenas_.size()];
    arena.clear();
    const bool active = b.beat < spec_.heal_at;
    // Under a lossy network the freed ring slot and arena refill to a
    // deterministic pre-drop bound (this beat's victim traffic), never to
    // the random survivor counts.
    Addressed victim_traffic;
    if (b.sample_drops) {
      victim_traffic =
          count_addressed(b, [this](NodeId to) { return victim_[to]; });
    }
    for (const Message& m : slot) {
      (*b.inboxes)[m.to].deliver(m);
    }
    slot.clear();  // capacity persists
    if (active && b.sample_drops) {
      slot.reserve(victim_traffic.messages);
      arena.reserve(victim_traffic.bytes);
    }
    route(b, *b.correct_msgs, slot, arena, active);
    route(b, *b.adv_msgs, slot, arena, active);
    if (b.network_faulty) inject_phantoms(b);
  }

 private:
  void route(DeliveryBeat& b, const std::vector<Message>& msgs,
             std::vector<Message>& park, PayloadArena& arena, bool active) {
    for (const Message& m : msgs) {
      if ((*b.is_faulty)[m.to]) continue;
      if (drop_sampled(b)) {
        b.metrics->count_dropped();
        continue;
      }
      if (active && victim_[m.to]) {
        b.metrics->count_delayed();
        // The bytes ride across beats in the policy's arena.
        append_message(park, m.from, m.to, m.channel,
                       arena.store(m.payload));
        continue;
      }
      (*b.inboxes)[m.to].deliver(m);
    }
  }

  DeliverySpec spec_;
  std::vector<bool> victim_;
  std::vector<std::vector<Message>> ring_;  // slot beat % d: due at beat
  std::vector<PayloadArena> arenas_;        // arena beat % (d + 1)
};

// ---------------------------------------------------------------------------
// ReorderDelivery: every message that survives the loss lottery lands in a
// scratch buffer; a Fisher-Yates permutation drawn from net_rng decides
// the beat's arrival order. Inboxes keep the first arrival per (channel,
// sender), so when a Byzantine sender equivocates on a channel the
// permutation decides which duplicate a protocol reading first_per_sender
// sees. Phantoms are injected after the shuffle, in node order, as always.

class ReorderDelivery final : public DeliveryPolicy {
 public:
  explicit ReorderDelivery(DeliverySpec spec) : spec_(std::move(spec)) {}

  void deliver_beat(DeliveryBeat& b) override {
    if (b.sample_drops) {
      // The shuffle scratch sizes to the pre-drop bound, so its capacity
      // never chases random survivor peaks.
      const std::size_t total =
          count_addressed(b, [&b](NodeId to) { return !(*b.is_faulty)[to]; })
              .messages;
      scratch_.reserve(total);
      order_.reserve(total);
    }
    collect(b, *b.correct_msgs);
    collect(b, *b.adv_msgs);
    if (b.beat < spec_.heal_at && scratch_.size() > 1) {
      order_.resize(scratch_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) {
        order_[i] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = scratch_.size() - 1; i > 0; --i) {
        const std::size_t j =
            static_cast<std::size_t>(b.net_rng->next_below(i + 1));
        std::swap(scratch_[i], scratch_[j]);
        std::swap(order_[i], order_[j]);
      }
      for (std::size_t i = 0; i < order_.size(); ++i) {
        if (order_[i] != i) b.metrics->count_reordered();
      }
    }
    for (const Message& m : scratch_) {
      (*b.inboxes)[m.to].deliver(m);
    }
    scratch_.clear();
    if (b.network_faulty) inject_phantoms(b);
  }

 private:
  void collect(DeliveryBeat& b, const std::vector<Message>& msgs) {
    for (const Message& m : msgs) {
      if ((*b.is_faulty)[m.to]) continue;
      if (drop_sampled(b)) {
        b.metrics->count_dropped();
        continue;
      }
      scratch_.push_back(m);
    }
  }

  DeliverySpec spec_;
  std::vector<Message> scratch_;        // survivors, pre-permutation order
  std::vector<std::uint32_t> order_;    // original index, for the counter
};

}  // namespace

std::unique_ptr<DeliveryPolicy> make_delivery_policy(
    const DeliverySpec& spec) {
  switch (spec.kind) {
    case DeliveryKind::kSynchronous:
      return std::make_unique<SynchronousDelivery>();
    case DeliveryKind::kEclipse:
      return std::make_unique<EclipseDelivery>(spec);
    case DeliveryKind::kPartition:
      return std::make_unique<PartitionDelivery>(spec);
    case DeliveryKind::kTargetedDelay:
      return std::make_unique<TargetedDelayDelivery>(spec);
    case DeliveryKind::kReorder:
      return std::make_unique<ReorderDelivery>(spec);
  }
  SSBFT_CHECK(false);
  return std::make_unique<SynchronousDelivery>();
}

const char* delivery_kind_name(DeliveryKind k) {
  switch (k) {
    case DeliveryKind::kSynchronous: return "synchronous";
    case DeliveryKind::kEclipse: return "eclipse";
    case DeliveryKind::kPartition: return "partition";
    case DeliveryKind::kTargetedDelay: return "targeted-delay";
    case DeliveryKind::kReorder: return "reorder";
  }
  return "?";
}

}  // namespace ssbft
