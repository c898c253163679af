#include "sim/delivery.h"

#include <algorithm>
#include <utility>

namespace ssbft {

namespace {

// Under a lossy network the survivor counts are random, so a buffer that
// holds survivors sizes to the deterministic pre-drop addressed counts —
// otherwise its capacity chases record peaks and the steady state would
// keep allocating. Counts the messages, and their payload bytes, addressed
// to targets `to` with addressed_to(to) true.
struct Addressed {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

template <typename Pred>
Addressed count_addressed(const std::vector<Message>& correct_msgs,
                          const std::vector<Message>& adv_msgs,
                          Pred addressed_to) {
  Addressed out;
  for (const std::vector<Message>* msgs : {&correct_msgs, &adv_msgs}) {
    for (const Message& m : *msgs) {
      if (!addressed_to(m.to)) continue;
      ++out.messages;
      out.bytes += m.payload.size();
    }
  }
  return out;
}

std::vector<bool> id_mask(std::size_t n, const std::vector<NodeId>& ids) {
  std::vector<bool> mask(n, false);
  for (NodeId id : ids) mask[id] = true;
  return mask;
}

}  // namespace

Delivery::Delivery(const FaultPlan& faults, std::vector<bool> is_faulty,
                   std::uint32_t channel_count, Rng net_rng)
    : spec_(faults.delivery),
      network_faulty_until_(faults.network_faulty_until),
      drop_prob_(faults.faulty_drop_prob),
      phantoms_per_beat_(faults.phantoms_per_beat),
      phantom_max_len_(faults.phantom_max_len),
      channel_count_(channel_count),
      is_faulty_(std::move(is_faulty)),
      victim_(id_mask(is_faulty_.size(), spec_.victims)),
      allowed_(id_mask(is_faulty_.size(), spec_.allowed_senders)),
      net_rng_(net_rng) {
  if (spec_.kind == DeliveryKind::kTargetedDelay) {
    ring_.resize(spec_.delay_beats);
    arenas_ = std::vector<PayloadArena>(spec_.delay_beats + 1);
  }
}

bool Delivery::cut(const Message& m) const {
  if (spec_.kind == DeliveryKind::kPartition) {
    const std::uint32_t split = spec_.partition_split;
    return (m.from < split) != (m.to < split);
  }
  // Eclipse. A victim always hears itself: loopback is local, not network
  // traffic.
  return victim_[m.to] && !allowed_[m.from] && m.from != m.to;
}

void Delivery::deliver_beat(Beat beat, const std::vector<Message>& correct_msgs,
                            const std::vector<Message>& adv_msgs,
                            std::vector<Inbox>& inboxes, PayloadArena& arena,
                            Metrics& metrics) {
  // What this beat does, decided once: no message re-derives it.
  const bool network_faulty = beat < network_faulty_until_;
  const bool sample_drops = network_faulty && drop_prob_ > 0.0;
  const bool active = beat < spec_.heal_at;
  const bool cutting = active && (spec_.kind == DeliveryKind::kEclipse ||
                                  spec_.kind == DeliveryKind::kPartition);
  const bool reorder = spec_.kind == DeliveryKind::kReorder;
  std::vector<Message>* park = nullptr;
  PayloadArena* park_arena = nullptr;

  if (spec_.kind == DeliveryKind::kTargetedDelay) {
    // Due messages (parked d beats ago) arrive ahead of this beat's
    // traffic. The freed slot is exactly the one this beat parks into:
    // beat % d == (beat - d) % d. Arenas rotate over d + 1 beats, so the
    // flushed payloads (in arena (beat - d) % (d + 1)) stay readable
    // through this beat's receive phases, while this beat parks into the
    // arena whose traffic was delivered last beat.
    std::vector<Message>& slot = ring_[beat % ring_.size()];
    PayloadArena& slot_arena = arenas_[beat % arenas_.size()];
    slot_arena.clear();
    Addressed victim_traffic;
    if (sample_drops) {
      victim_traffic = count_addressed(correct_msgs, adv_msgs,
                                       [this](NodeId to) { return victim_[to]; });
    }
    for (const Message& m : slot) inboxes[m.to].deliver(m);
    slot.clear();  // capacity persists
    if (active) {
      if (sample_drops) {
        slot.reserve(victim_traffic.messages);
        slot_arena.reserve(victim_traffic.bytes);
      }
      park = &slot;
      park_arena = &slot_arena;
    }
  } else if (reorder && sample_drops) {
    // The shuffle scratch sizes to the pre-drop bound.
    const std::size_t total =
        count_addressed(correct_msgs, adv_msgs,
                        [this](NodeId to) { return !is_faulty_[to]; })
            .messages;
    scratch_.reserve(total);
    order_.reserve(total);
  }

  for (const std::vector<Message>* msgs : {&correct_msgs, &adv_msgs}) {
    for (const Message& m : *msgs) {
      if (is_faulty_[m.to]) continue;
      if (cutting && cut(m)) {
        metrics.count_eclipsed();
        continue;
      }
      if (sample_drops && net_rng_.next_bernoulli(drop_prob_)) {
        metrics.count_dropped();
        continue;
      }
      if (park != nullptr && victim_[m.to]) {
        metrics.count_delayed();
        append_message(*park, m.from, m.to, m.channel,
                       park_arena->store(m.payload));
        continue;
      }
      if (reorder) {
        scratch_.push_back(m);
        continue;
      }
      inboxes[m.to].deliver(m);
    }
  }

  if (reorder) {
    if (active && scratch_.size() > 1) {
      order_.resize(scratch_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) {
        order_[i] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = scratch_.size() - 1; i > 0; --i) {
        const std::size_t j =
            static_cast<std::size_t>(net_rng_.next_below(i + 1));
        std::swap(scratch_[i], scratch_[j]);
        std::swap(order_[i], order_[j]);
      }
      for (std::size_t i = 0; i < order_.size(); ++i) {
        if (order_[i] != i) metrics.count_reordered();
      }
    }
    for (const Message& m : scratch_) inboxes[m.to].deliver(m);
    scratch_.clear();
  }

  if (network_faulty) inject_phantoms(inboxes, arena, metrics);
}

// Phantom messages: leftovers in network buffers from before the system
// became coherent. They carry arbitrary (but unforged-looking) sender ids,
// channels and payloads, and reach every correct node, in id order.
void Delivery::inject_phantoms(std::vector<Inbox>& inboxes,
                               PayloadArena& arena, Metrics& metrics) {
  const auto n = static_cast<std::uint32_t>(is_faulty_.size());
  // Room for the deterministic worst case up front, so the random phantom
  // lengths never drive the arena's growth.
  const auto correct = static_cast<std::size_t>(
      std::count(is_faulty_.begin(), is_faulty_.end(), false));
  arena.reserve(correct * std::size_t{phantoms_per_beat_} * phantom_max_len_);
  for (NodeId id = 0; id < n; ++id) {
    if (is_faulty_[id]) continue;
    for (std::uint32_t i = 0; i < phantoms_per_beat_; ++i) {
      Message m;
      m.from = static_cast<NodeId>(net_rng_.next_below(n));
      m.to = id;
      m.channel = static_cast<ChannelId>(
          net_rng_.next_below(std::max<std::uint32_t>(channel_count_, 1)));
      // Widened before the +1: a phantom_max_len at the type's maximum must
      // not wrap the bound to zero.
      const std::uint64_t len = net_rng_.next_below(
          static_cast<std::uint64_t>(phantom_max_len_) + 1);
      const std::size_t size = static_cast<std::size_t>(len);
      std::uint8_t* const buf = arena.alloc(size);
      // Bulk fill: one next_u64 draw per 8 payload bytes (little-endian,
      // a partial final draw spends its low bytes first). The draw
      // sequence is part of the replay contract: ceil(len/8) next_u64
      // draws per phantom, after the from/channel/len draws above.
      for (std::size_t off = 0; off < size; off += 8) {
        std::uint64_t word = net_rng_.next_u64();
        const std::size_t chunk = std::min<std::size_t>(8, size - off);
        for (std::size_t byte = 0; byte < chunk; ++byte) {
          buf[off + byte] = static_cast<std::uint8_t>(word >> (8 * byte));
        }
      }
      m.payload = ByteSpan{buf, size};
      metrics.count_phantom();
      inboxes[id].deliver(m);
    }
  }
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
