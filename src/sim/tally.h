// Vote counting: the one place a protocol turns "one payload per sender"
// (Inbox::first_per_sender) into a decision, by one of two rules:
//
//   quorum     the value counted at least n-f times. Two values cannot
//              both qualify when n > 2f, and two n-f quorums intersect in
//              a correct node when n > 3f; past the resilience bound the
//              smallest qualifying value wins, the same at every node.
//   plurality  the most frequent value, ties to the smallest.
//
// Figure 4's blocks (a) and (b), Turpin-Coan's two pre-rounds, both
// Dolev-Welch clocks, the pipelined-BA clock and the adaptive quorum
// splitter decide this way. One-byte votes (a bit, or a bit or "?") go
// through count_byte_votes instead; their callers apply their own rules to
// the two or three counts.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/message.h"

namespace ssbft {

// A proposal is a value or "?": one tag byte (0 = "?", 1 = a value), then
// a u64. A "?" carries whatever value its writer passes (Turpin-Coan sends
// its stale z); ValueTally::count_proposals, the one reader, ignores it.
inline void write_proposal(ByteWriter& w, bool has_value, std::uint64_t v) {
  w.u8(has_value ? 1 : 0);
  w.u64(v);
}

// Counts per distinct value. At most n distinct values arrive per beat, so
// a flat list with linear lookup replaces a per-beat std::map and its node
// churn; capacity n is reserved once and clear() keeps it. Clock values
// range over k, which can be huge (tests go to 1e9+7), so a k-slot array
// is not an option.
class ValueTally {
 public:
  struct Count {
    std::uint64_t value = 0;
    std::uint32_t count = 0;
  };
  static constexpr std::uint64_t kAnyValue = ~std::uint64_t{0};

  ValueTally() = default;
  explicit ValueTally(std::uint32_t n) { reserve(n); }
  void reserve(std::uint32_t n) { counts_.reserve(n); }
  std::size_t capacity() const { return counts_.capacity(); }

  void clear() { counts_.clear(); }
  void add(std::uint64_t v) {
    for (Count& c : counts_) {
      if (c.value == v) {
        ++c.count;
        return;
      }
    }
    counts_.push_back(Count{v, 1});
  }

  // The smallest value counted at least `threshold` times, if any.
  std::optional<std::uint64_t> quorum(std::uint32_t threshold) const {
    std::optional<std::uint64_t> best;
    for (const Count& c : counts_) {
      if (c.count >= threshold && (!best || c.value < *best)) best = c.value;
    }
    return best;
  }
  // The highest count and its value, ties to the smallest value; {0, 0}
  // when nothing was counted.
  Count plurality() const {
    Count best;
    for (const Count& c : counts_) {
      if (c.count > best.count ||
          (c.count == best.count && c.value < best.value)) {
        best = c;
      }
    }
    return best;
  }

  // Clear, then count each sender's first payload on `ch` if it is exactly
  // one u64 <= max (count_values) or a proposal of a value <= max
  // (count_proposals). Anything else is Byzantine garbage and counts
  // nowhere.
  void count_values(const Inbox& in, ChannelId ch,
                    std::uint64_t max = kAnyValue) {
    count(in, ch, max, false);
  }
  void count_proposals(const Inbox& in, ChannelId ch,
                       std::uint64_t max = kAnyValue) {
    count(in, ch, max, true);
  }

 private:
  void count(const Inbox& in, ChannelId ch, std::uint64_t max,
             bool proposals) {
    clear();
    for (const ByteSpan* payload : in.first_per_sender(ch)) {
      if (payload == nullptr) continue;
      ByteReader r(*payload);
      const bool has_value = !proposals || r.u8() == 1;
      const std::uint64_t v = r.u64();
      if (r.at_end() && has_value && v <= max) add(v);
    }
  }

  std::vector<Count> counts_;
};

namespace detail {
// A payload that is exactly one byte <= max, as that byte.
inline std::optional<std::uint8_t> byte_vote(const ByteSpan* payload,
                                             std::uint8_t max) {
  if (payload == nullptr) return std::nullopt;
  ByteReader r(*payload);
  const std::uint8_t v = r.u8();
  if (!r.at_end() || v > max) return std::nullopt;
  return v;
}
}  // namespace detail

// The byte vote `sender` sent first on `ch`, if its payload is exactly one
// byte <= max.
inline std::optional<std::uint8_t> byte_vote_of(const Inbox& in, ChannelId ch,
                                                NodeId sender,
                                                std::uint8_t max) {
  SSBFT_REQUIRE(sender < in.node_count());
  return detail::byte_vote(in.first_per_sender(ch)[sender], max);
}

// Entry b counts the senders whose first payload on `ch` is the byte vote
// b; max is at most 2.
using ByteVotes = std::array<std::uint32_t, 3>;
inline ByteVotes count_byte_votes(const Inbox& in, ChannelId ch,
                                  std::uint8_t max) {
  SSBFT_REQUIRE(max < ByteVotes{}.size());
  ByteVotes votes{};
  for (const ByteSpan* payload : in.first_per_sender(ch)) {
    if (const auto v = detail::byte_vote(payload, max)) ++votes[*v];
  }
  return votes;
}

}  // namespace ssbft
