#include "adversary/adversaries.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "coin/gvss.h"
#include "field/bivariate.h"
#include "support/check.h"

namespace ssbft {

namespace {

class SilentAdversary final : public Adversary {
 public:
  void act(AdversaryContext&) override {}
};

class RandomNoiseAdversary final : public Adversary {
 public:
  RandomNoiseAdversary(std::uint32_t per_beat, std::uint32_t max_payload)
      : per_beat_(per_beat), max_payload_(max_payload) {}

  void act(AdversaryContext& ctx) override {
    for (NodeId from : ctx.faulty()) {
      for (std::uint32_t i = 0; i < per_beat_; ++i) {
        payload_.resize(ctx.rng().next_below(max_payload_ + 1));
        for (auto& b : payload_) {
          b = static_cast<std::uint8_t>(ctx.rng().next_below(256));
        }
        const auto to = static_cast<NodeId>(ctx.rng().next_below(ctx.n()));
        const auto ch = static_cast<ChannelId>(
            ctx.rng().next_below(std::max<std::uint32_t>(ctx.channel_count(), 1)));
        ctx.send(from, to, ch, payload_);
      }
    }
  }

 private:
  std::uint32_t per_beat_;
  std::uint32_t max_payload_;
  Bytes payload_;  // reused scratch; ctx.send copies it into the arena
};

class SplitValueAdversary final : public Adversary {
 public:
  SplitValueAdversary(ChannelId channel, Bytes a, Bytes b)
      : channel_(channel), a_(std::move(a)), b_(std::move(b)) {}

  void act(AdversaryContext& ctx) override {
    // Stored once per beat; every message shares the arena copy.
    const ByteSpan a = ctx.store(a_);
    const ByteSpan b = ctx.store(b_);
    for (NodeId from : ctx.faulty()) {
      for (NodeId to = 0; to < ctx.n(); ++to) {
        ctx.send(from, to, channel_, to < ctx.n() / 2 ? a : b);
      }
    }
  }

 private:
  ChannelId channel_;
  Bytes a_, b_;
};

class AntiCoinAdversary final : public Adversary {
 public:
  AntiCoinAdversary(std::shared_ptr<OracleBeacon> beacon, ChannelId channel)
      : beacon_(std::move(beacon)), channel_(channel) {}

  void act(AdversaryContext& ctx) override {
    // Rushing: the beacon has already drawn this beat's bits (a real coin's
    // recover shares would be on the wire by now).
    const bool rand = beacon_->is_common() ? beacon_->common_value()
                                           : beacon_->bit_for(0);
    const std::uint8_t with_byte = rand ? 1 : 0;
    const std::uint8_t against_byte = rand ? 0 : 1;
    // Stored once per beat; every message shares the arena copy.
    const ByteSpan with = ctx.store(ByteSpan{&with_byte, 1});
    const ByteSpan against = ctx.store(ByteSpan{&against_byte, 1});
    for (NodeId from : ctx.faulty()) {
      for (NodeId to = 0; to < ctx.n(); ++to) {
        // Feed half the nodes the revealed coin and half its complement,
        // maximizing the spread of majority counts around the threshold.
        ctx.send(from, to, channel_, to % 2 == 0 ? with : against);
      }
    }
  }

 private:
  std::shared_ptr<OracleBeacon> beacon_;
  ChannelId channel_;
};

class ClockSkewAdversary final : public Adversary {
 public:
  ClockSkewAdversary(ClockValue k, ChannelId full_channel)
      : k_(k), full_(full_channel) {}

  void act(AdversaryContext& ctx) override {
    const auto prop = static_cast<ChannelId>(full_ + 1);
    const auto bit = static_cast<ChannelId>(full_ + 2);
    for (NodeId from : ctx.faulty()) {
      // Two fresh inconsistent clock stories per beat, each encoded and
      // stored once: every recipient's messages share the arena copies.
      const ClockValue va = ctx.rng().next_below(k_);
      const ClockValue vb = ctx.rng().next_below(k_);
      const Story low = story(ctx, va, 1);
      const Story high = story(ctx, vb, 0);
      for (NodeId to = 0; to < ctx.n(); ++to) {
        const Story& s = to < ctx.n() / 2 ? low : high;
        ctx.send(from, to, full_, s.full);
        ctx.send(from, to, prop, s.prop);
        ctx.send(from, to, bit, s.bit);
      }
    }
  }

 private:
  // One story's payloads on the full-clock, proposal and bit channels.
  struct Story {
    ByteSpan full, prop, bit;
  };
  Story story(AdversaryContext& ctx, ClockValue v, std::uint8_t support) {
    w_.clear();
    w_.u64(v);
    const ByteSpan full = ctx.store(w_.data());
    w_.clear();
    w_.u8(1);
    w_.u64(v);
    const ByteSpan prop = ctx.store(w_.data());
    return Story{full, prop, ctx.store(ByteSpan{&support, 1})};
  }

  ClockValue k_;
  ChannelId full_;
  ByteWriter w_;  // reused across beats
};

class AdaptiveQuorumSplitter final : public Adversary {
 public:
  AdaptiveQuorumSplitter(ClockValue k, ChannelId channel)
      : k_(k), channel_(channel) {}

  void act(AdversaryContext& ctx) override {
    const std::uint32_t n = ctx.n();
    const std::uint32_t f = ctx.f();
    // Rushing view: one clock value per correct sender (they broadcast, so
    // the copy addressed to our first faulty node is the full picture).
    // The first decodable value per sender counts. All scratch is reused
    // across beats.
    value_.assign(n, kNone);
    values_.clear();
    for (const Message& m : ctx.observed()) {
      if (m.channel != channel_ || value_[m.from] != kNone) continue;
      ByteReader r(m.payload);
      const std::uint64_t v = r.u64();
      if (!r.at_end() || v >= k_) continue;
      value_[m.from] = v;
      values_.push_back(v);
    }
    // The value with the largest support; ties go to the lowest value.
    std::sort(values_.begin(), values_.end());
    ClockValue u = 0;
    std::uint32_t c = 0;
    for (std::size_t i = 0; i < values_.size();) {
      std::size_t j = i;
      while (j < values_.size() && values_[j] == values_[i]) ++j;
      if (j - i > c) {
        u = values_[i];
        c = static_cast<std::uint32_t>(j - i);
      }
      i = j;
    }
    if (c + f < n - f || c >= n - f) {
      // Either no boostable value (even our votes cannot complete a
      // quorum) or the correct nodes already hold one on their own — the
      // split cannot be created; inject noise instead.
      for (NodeId from : ctx.faulty()) {
        w_.clear();
        w_.u64(ctx.rng().next_below(k_));
        ctx.broadcast(from, channel_, w_.data());
      }
      return;
    }
    // Complete u's quorum only at the nodes already holding u.
    w_.clear();
    w_.u64(u);
    const ByteSpan held = ctx.store(w_.data());
    for (NodeId from : ctx.faulty()) {
      for (NodeId to = 0; to < n; ++to) {
        if (value_[to] == u) {
          ctx.send(from, to, channel_, held);
          continue;
        }
        w_.clear();
        w_.u64(ctx.rng().next_below(k_));
        ctx.send(from, to, channel_, w_.data());
      }
    }
  }

 private:
  static constexpr ClockValue kNone = ~ClockValue{0};  // no value seen

  ClockValue k_;
  ChannelId channel_;
  std::vector<ClockValue> value_;   // per sender id: its clock value
  std::vector<ClockValue> values_;  // the values seen this beat
  ByteWriter w_;
};

// --- FM coin attacker -----------------------------------------------------

class FmCoinAttacker final : public Adversary {
 public:
  FmCoinAttacker(std::uint64_t prime, ChannelId base)
      : field_(prime), value_bits_(field_.value_bits()), base_(base) {}

  void act(AdversaryContext& ctx) override {
    const std::uint32_t n = ctx.n();
    const std::uint32_t f = std::max<std::uint32_t>(ctx.f(), 1);
    // 1. Record this beat's observations: the rows correct dealers sent to
    //    our nodes (round-1 channel), plus our own fresh dealings.
    BeatRecord now;
    for (NodeId from : ctx.faulty()) {
      now.rows[from].assign(n, std::nullopt);
    }
    coeffs_.resize(std::size_t{f} + 1);
    for (const Message& m : ctx.observed()) {
      if (m.channel != base_) continue;
      auto it = now.rows.find(m.to);
      if (it == now.rows.end()) continue;
      ByteReader r(m.payload);
      if (!r.masked_u64_vec_into(coeffs_.data(), coeffs_.size(),
                                 field_.modulus(), value_bits_) ||
          !r.at_end()) {
        continue;
      }
      it->second[m.from] = validate_row(field_, f, coeffs_);
    }
    for (NodeId self : ctx.faulty()) {
      now.dealings.emplace(
          self, SymmetricBivariate::sample(field_, static_cast<int>(f),
                                           field_.uniform(ctx.rng()),
                                           ctx.rng()));
    }
    // Our nodes "hold" rows of each other's dealings too.
    for (NodeId self : ctx.faulty()) {
      for (const auto& [dealer, biv] : now.dealings) {
        now.rows[self][dealer] = biv.row(field_, node_point(self));
      }
    }

    // 2. Emit this beat's attack traffic for every pipeline position.
    //    Subset dealing: rows only to the first n-2f ids, so exactly the
    //    minimum quorum can be happy — the dealing still reaches grade 2
    //    once we vote for it, but nodes outside the subset hold no share.
    const std::uint32_t subset = n - std::min(2 * f, n - 1);
    for (NodeId self : ctx.faulty()) {
      // Round 1: deal to the subset only.
      const auto& dealing = now.dealings.at(self);
      for (NodeId to = 0; to < subset; ++to) {
        ByteWriter w;
        Poly row = dealing.row(field_, node_point(to));
        auto coeffs = row.coeffs();
        coeffs.resize(std::size_t{f} + 1, 0);
        w.masked_u64_vec(coeffs.data(), coeffs.size(), field_.modulus(),
                         value_bits_);
        ctx.send(self, to, base_, w.data());
      }
      // Round 2: honest cross values (keeps every dealing's happy set
      // intact — the attack is downstream).
      if (hist_.size() >= 1) {
        const auto& rec = hist_[0];
        auto rows_it = rec.rows.find(self);
        if (rows_it != rec.rows.end()) {
          for (NodeId to = 0; to < n; ++to) {
            std::vector<std::uint64_t> vals(n, field_.modulus());
            for (NodeId d = 0; d < n; ++d) {
              if (rows_it->second[d]) {
                vals[d] = rows_it->second[d]->eval(field_, node_point(to));
              }
            }
            ByteWriter w;
            w.masked_u64_vec(vals.data(), vals.size(), field_.modulus(),
                             value_bits_);
            ctx.send(self, to, static_cast<ChannelId>(base_ + 1), w.data());
          }
        }
      }
      // Round 3: vote happy on everything, to everyone — maximizes the
      // number of dealings whose recovery we can pollute. Bits >= n must
      // stay clear: the strict bits codec rejects padding garbage.
      {
        std::vector<std::uint64_t> mask((n + 63) / 64, ~std::uint64_t{0});
        if (n % 64 != 0) mask.back() = (std::uint64_t{1} << (n % 64)) - 1;
        ByteWriter w;
        w.bits(mask.data(), n);
        ctx.broadcast(self, static_cast<ChannelId>(base_ + 2), w.data());
      }
      // Round 4: share equivocation — true shares to even ids, garbage to
      // odd ids. On the subset dealing, odd nodes then face more errors
      // than Berlekamp-Welch can absorb (m = n-f points, e = f needs
      // n >= 4f+1), probing the recovery-divergence gap.
      if (hist_.size() >= 3) {
        const auto& rec = hist_[2];
        auto rows_it = rec.rows.find(self);
        if (rows_it != rec.rows.end()) {
          std::vector<std::uint64_t> truth(n, field_.modulus());
          for (NodeId d = 0; d < n; ++d) {
            if (rows_it->second[d]) {
              truth[d] = rows_it->second[d]->eval(field_, 0);
            }
          }
          for (NodeId to = 0; to < n; ++to) {
            std::vector<std::uint64_t> vals = truth;
            if (to % 2 == 1) {
              for (auto& v : vals) v = field_.uniform(ctx.rng());
            }
            ByteWriter w;
            w.masked_u64_vec(vals.data(), vals.size(), field_.modulus(),
                             value_bits_);
            ctx.send(self, to, static_cast<ChannelId>(base_ + 3), w.data());
          }
        }
      }
    }

    hist_.push_front(std::move(now));
    while (hist_.size() > 4) hist_.pop_back();
  }

 private:
  struct BeatRecord {
    std::map<NodeId, SymmetricBivariate> dealings;
    std::map<NodeId, std::vector<std::optional<Poly>>> rows;
  };

  PrimeField field_;
  unsigned value_bits_;  // cached; the codec calls sit in per-message loops
  ChannelId base_;
  std::vector<std::uint64_t> coeffs_;  // deal-decode scratch, reused per act
  std::deque<BeatRecord> hist_;  // [0] = previous beat, [1] = two ago, ...
};

}  // namespace

std::unique_ptr<Adversary> make_silent_adversary() {
  return std::make_unique<SilentAdversary>();
}

std::unique_ptr<Adversary> make_random_noise_adversary(
    std::uint32_t messages_per_beat, std::uint32_t max_payload) {
  return std::make_unique<RandomNoiseAdversary>(messages_per_beat, max_payload);
}

std::unique_ptr<Adversary> make_split_value_adversary(ChannelId channel,
                                                      Bytes payload_a,
                                                      Bytes payload_b) {
  return std::make_unique<SplitValueAdversary>(channel, std::move(payload_a),
                                               std::move(payload_b));
}

std::unique_ptr<Adversary> make_anti_coin_adversary(
    std::shared_ptr<OracleBeacon> beacon, ChannelId clock_channel) {
  SSBFT_REQUIRE(beacon != nullptr);
  return std::make_unique<AntiCoinAdversary>(std::move(beacon), clock_channel);
}

std::unique_ptr<Adversary> make_clock_skew_adversary(ClockValue k,
                                                     ChannelId full_channel) {
  return std::make_unique<ClockSkewAdversary>(k, full_channel);
}

std::unique_ptr<Adversary> make_adaptive_quorum_splitter(
    ClockValue k, ChannelId clock_channel) {
  return std::make_unique<AdaptiveQuorumSplitter>(k, clock_channel);
}

std::unique_ptr<Adversary> make_fm_coin_attacker(std::uint64_t prime,
                                                 ChannelId coin_base) {
  return std::make_unique<FmCoinAttacker>(prime, coin_base);
}

}  // namespace ssbft
