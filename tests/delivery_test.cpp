// Tests for the delivery phase (sim/delivery.h): replay exactness of the
// default synchronous kind against pre-extraction goldens, the semantics
// of the eclipse / partition / targeted-delay / reorder adversaries, and
// FaultPlan validation of delivery specs and corruption schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "adversary/adversaries.h"
#include "coin/oracle_coin.h"
#include "core/clock_sync.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "support/check.h"

namespace ssbft {
namespace {

// Broadcasts (self, beat, seq) x sends_per_beat each beat and records what
// its inbox shows — enough to observe delay, partition cuts and
// reordering. The inbox shows only the first arrival per (channel,
// sender), so the channel layout decides what is visible: see Channels.
struct Arrival {
  Beat recv_beat;
  NodeId from;
  std::uint64_t sent_beat;
  std::uint32_t seq;
};

enum class Channels {
  kPerSeq,   // seq s on channel s: every message of a beat is visible.
  kShared,   // every seq on channel 0: only the first arrival per sender
             // shows, which pins per-sender arrival order.
  kPerBeat,  // seq s of beat b on channel (b % 3) * sends + s: traffic
             // sent in different beats (up to 2 apart) never shares a slot.
};

class ProbeProtocol final : public ClockProtocol {
 public:
  ProbeProtocol(const ProtocolEnv& env, std::uint32_t sends_per_beat,
                Channels channels)
      : env_(env), sends_per_beat_(sends_per_beat), channels_(channels) {}

  void send_phase(Outbox& out) override {
    for (std::uint32_t seq = 0; seq < sends_per_beat_; ++seq) {
      ByteWriter w;
      w.u64(beat_);
      w.u32(seq);
      out.broadcast(channel_of(seq), w.data());
    }
  }

  void receive_phase(const Inbox& in) override {
    for (ChannelId ch = 0; ch < channel_count(); ++ch) {
      const PayloadView per = in.first_per_sender(ch);
      for (NodeId from = 0; from < per.size(); ++from) {
        if (per[from] == nullptr) continue;
        ByteReader r(*per[from]);
        const std::uint64_t sent_beat = r.u64();
        const std::uint32_t seq = r.u32();
        arrivals_.push_back(Arrival{beat_, from, sent_beat, seq});
      }
    }
    ++beat_;
  }

  void randomize_state(Rng&) override {}
  ClockValue clock() const override { return beat_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override {
    switch (channels_) {
      case Channels::kShared:
        return 1;
      case Channels::kPerBeat:
        return 3 * sends_per_beat_;
      case Channels::kPerSeq:
        break;
    }
    return sends_per_beat_;
  }

  ChannelId channel_of(std::uint32_t seq) const {
    switch (channels_) {
      case Channels::kShared:
        return 0;
      case Channels::kPerBeat:
        return static_cast<ChannelId>((beat_ % 3) * sends_per_beat_ + seq);
      case Channels::kPerSeq:
        break;
    }
    return static_cast<ChannelId>(seq);
  }

  // Arrivals of one beat, channel by channel in sender-id order.
  std::vector<Arrival> beat_arrivals(Beat b) const {
    std::vector<Arrival> out;
    for (const Arrival& a : arrivals_) {
      if (a.recv_beat == b) out.push_back(a);
    }
    return out;
  }

  ProtocolEnv env_;
  std::uint32_t sends_per_beat_;
  Channels channels_;
  Beat beat_ = 0;
  std::vector<Arrival> arrivals_;
};

ProtocolFactory probe_factory(std::uint32_t sends_per_beat = 1,
                              Channels channels = Channels::kPerSeq) {
  return [sends_per_beat, channels](const ProtocolEnv& env, Rng) {
    return std::make_unique<ProbeProtocol>(env, sends_per_beat, channels);
  };
}

EngineConfig probe_config(std::uint32_t n) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = 0;
  cfg.faults.randomize_genesis = false;
  return cfg;
}

const ProbeProtocol& probe(const Engine& eng, NodeId id) {
  return dynamic_cast<const ProbeProtocol&>(eng.node(id));
}

std::set<NodeId> senders_at(const ProbeProtocol& p, Beat b) {
  std::set<NodeId> out;
  for (const Arrival& a : p.beat_arrivals(b)) out.insert(a.from);
  return out;
}

// ---------------------------------------------------------------------
// Replay exactness: the default synchronous delivery must reproduce the
// pre-extraction engine bit for bit. The constants below were captured by
// running exactly this world — mixed drops + phantoms + scheduled
// corruption + random-noise adversary over the full clock-sync protocol —
// against the engine as of PR 5, before the delivery phase moved out of
// the engine. Every net_rng draw (drop lotteries, phantom from /
// channel / len / payload words) must land in the same sequence for these
// to hold.

TEST(SynchronousDelivery, ReplayExactWithPreExtractionEngine) {
  EngineConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.faulty = EngineConfig::last_ids_faulty(7, 2);
  cfg.seed = 20260808;
  cfg.faults.network_faulty_until = 30;
  cfg.faults.faulty_drop_prob = 0.25;
  cfg.faults.phantoms_per_beat = 3;
  cfg.faults.phantom_max_len = 48;
  cfg.faults.corruptions[12] = {0, 2};

  auto beacon = std::make_shared<OracleBeacon>(
      7, OracleCoinParams{0.45, 0.45}, Rng(cfg.seed).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  auto factory = [&spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 8, spec, rng);
  };
  Engine eng(cfg, factory, make_random_noise_adversary(6, 40));
  eng.add_listener(beacon.get());
  eng.run_beats(60);

  const BeatTraffic& t = eng.metrics().total();
  EXPECT_EQ(t.correct_messages, 4564u);
  EXPECT_EQ(t.correct_bytes, 14532u);
  EXPECT_EQ(t.adversary_messages, 720u);
  EXPECT_EQ(t.adversary_bytes, 13942u);
  EXPECT_EQ(t.phantom_messages, 450u);
  EXPECT_EQ(t.dropped_messages, 450u);
  // The new counters stay untouched on the synchronous path.
  EXPECT_EQ(t.eclipsed_messages, 0u);
  EXPECT_EQ(t.delayed_messages, 0u);
  EXPECT_EQ(t.reordered_messages, 0u);
  EXPECT_EQ(eng.correct_clocks(),
            (std::vector<ClockValue>{7, 7, 7, 7, 7}));
  const std::vector<std::uint64_t> want_drops{14, 16, 18, 19, 8,
                                              15, 13, 14, 14, 21};
  for (std::size_t i = 0; i < want_drops.size(); ++i) {
    EXPECT_EQ(eng.metrics().history()[i].dropped_messages, want_drops[i])
        << "beat " << i;
  }
}

// ---------------------------------------------------------------------
// TargetedDelayDelivery

TEST(TargetedDelayDelivery, DeliversExactlyDelayBeatsLate) {
  EngineConfig cfg = probe_config(4);
  cfg.faults.delivery.kind = DeliveryKind::kTargetedDelay;
  cfg.faults.delivery.victims = {0};
  cfg.faults.delivery.delay_beats = 2;
  auto eng = Engine(cfg, probe_factory(/*sends_per_beat=*/3), nullptr);
  eng.run_beats(6);

  // Non-victims see everything in the send beat.
  for (NodeId id : {NodeId{1}, NodeId{2}, NodeId{3}}) {
    for (Beat b = 0; b < 6; ++b) {
      const auto arr = probe(eng, id).beat_arrivals(b);
      ASSERT_EQ(arr.size(), 4u * 3u) << "node " << id << " beat " << b;
      for (const Arrival& a : arr) EXPECT_EQ(a.sent_beat, b);
    }
  }
  // The victim sees nothing until the first flush, then every beat's
  // traffic exactly delay_beats late, every seq of every sender.
  const ProbeProtocol& victim = probe(eng, 0);
  EXPECT_TRUE(victim.beat_arrivals(0).empty());
  EXPECT_TRUE(victim.beat_arrivals(1).empty());
  for (Beat b = 2; b < 6; ++b) {
    const auto arr = victim.beat_arrivals(b);
    ASSERT_EQ(arr.size(), 4u * 3u) << "beat " << b;
    std::map<NodeId, std::vector<std::uint32_t>> seqs;
    for (const Arrival& a : arr) {
      EXPECT_EQ(a.sent_beat, b - 2);
      seqs[a.from].push_back(a.seq);
    }
    ASSERT_EQ(seqs.size(), 4u);
    for (const auto& [from, s] : seqs) {
      EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 1, 2}))
          << "messages lost for sender " << from;
    }
  }
  // 4 senders x 3 sends x 6 beats addressed to the victim, all held.
  EXPECT_EQ(eng.metrics().total().delayed_messages, 4u * 3u * 6u);
}

TEST(TargetedDelayDelivery, FirstSendWinsAfterTheDetour) {
  // Two sends per beat on one channel: the inbox keeps the first arrival
  // per sender, so seq 0 must win at every node — at the victim too,
  // because parking keeps each sender's send order.
  EngineConfig cfg = probe_config(4);
  cfg.faults.delivery.kind = DeliveryKind::kTargetedDelay;
  cfg.faults.delivery.victims = {0};
  cfg.faults.delivery.delay_beats = 2;
  auto eng =
      Engine(cfg, probe_factory(/*sends_per_beat=*/2, Channels::kShared),
             nullptr);
  eng.run_beats(6);
  for (NodeId id = 0; id < 4; ++id) {
    const Beat first = id == 0 ? 2 : 0;
    for (Beat b = first; b < 6; ++b) {
      const auto arr = probe(eng, id).beat_arrivals(b);
      ASSERT_EQ(arr.size(), 4u) << "node " << id << " beat " << b;
      for (const Arrival& a : arr) {
        EXPECT_EQ(a.seq, 0u) << "node " << id << " beat " << b << " from "
                             << a.from;
        EXPECT_EQ(a.sent_beat, b - first);
      }
    }
  }
}

TEST(TargetedDelayDelivery, HealStopsHoldingNewTraffic) {
  EngineConfig cfg = probe_config(4);
  cfg.faults.delivery.kind = DeliveryKind::kTargetedDelay;
  cfg.faults.delivery.victims = {0};
  cfg.faults.delivery.delay_beats = 2;
  cfg.faults.delivery.heal_at = 4;
  // Each beat's traffic travels on its own channel (Channels::kPerBeat),
  // so a flushed copy and a fresh message never compete for one slot.
  auto eng = Engine(cfg, probe_factory(1, Channels::kPerBeat), nullptr);
  eng.run_beats(7);

  // Per-beat arrival counts at the victim: beats 0-3 hold, so beat b >= 2
  // flushes beat b-2; from heal_at on, fresh traffic also flows
  // synchronously, overlapping with the last two flushes.
  const ProbeProtocol& victim = probe(eng, 0);
  const std::vector<std::size_t> want_counts{0, 0, 4, 4, 8, 8, 4};
  for (Beat b = 0; b < 7; ++b) {
    const auto arr = victim.beat_arrivals(b);
    EXPECT_EQ(arr.size(), want_counts[b]) << "beat " << b;
    for (const Arrival& a : arr) {
      EXPECT_TRUE(a.sent_beat == b || a.sent_beat + 2 == b)
          << "beat " << b << " got sent_beat " << a.sent_beat;
    }
  }
  EXPECT_EQ(eng.metrics().total().delayed_messages, 4u * 4u);  // beats 0-3
}

// The payload of (sender, beat, seq): a length and a byte pattern that
// change every beat, so bytes read through a stale span never pass.
Bytes pinned_payload(NodeId from, Beat beat, std::uint32_t seq) {
  Bytes b((from * 7 + beat * 13 + seq * 5) % 41 + 1);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(from * 31 + beat * 17 + seq * 3 + i);
  }
  return b;
}

// Broadcasts pinned_payload(self, beat, seq) and keeps every payload it
// receives, byte for byte, with its arrival beat.
class PinProtocol final : public ClockProtocol {
 public:
  explicit PinProtocol(const ProtocolEnv& env) : env_(env) {}

  void send_phase(Outbox& out) override {
    for (std::uint32_t seq = 0; seq < 2; ++seq) {
      out.broadcast(static_cast<ChannelId>(seq),
                    pinned_payload(env_.self, beat_, seq));
    }
  }

  // Reads sender by sender, seq (channel) by seq.
  void receive_phase(const Inbox& in) override {
    for (NodeId from = 0; from < env_.n; ++from) {
      for (ChannelId ch = 0; ch < 2; ++ch) {
        const ByteSpan* p = in.first_per_sender(ch)[from];
        if (p != nullptr) {
          got_.push_back({beat_, from, Bytes(p->begin(), p->end())});
        }
      }
    }
    ++beat_;
  }

  void randomize_state(Rng&) override {}
  ClockValue clock() const override { return beat_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 2; }

  struct Got {
    Beat beat;
    NodeId from;
    Bytes bytes;
  };
  ProtocolEnv env_;
  Beat beat_ = 0;
  std::vector<Got> got_;
};

TEST(TargetedDelayDelivery, ParkedPayloadsArriveByteEqual) {
  // Parked messages outlive the beat they were sent in, while the engine
  // arena is rewound and refilled with fresh payloads every beat. Each
  // victim payload must still arrive delay_beats later byte-equal to what
  // was sent.
  EngineConfig cfg = probe_config(5);
  cfg.faults.delivery.kind = DeliveryKind::kTargetedDelay;
  cfg.faults.delivery.victims = {0, 2};
  cfg.faults.delivery.delay_beats = 3;
  auto eng = Engine(
      cfg,
      [](const ProtocolEnv& env, Rng) {
        return std::make_unique<PinProtocol>(env);
      },
      nullptr);
  const Beat beats = 12;
  eng.run_beats(beats);
  for (NodeId v : {NodeId{0}, NodeId{2}}) {
    const auto& got = dynamic_cast<const PinProtocol&>(eng.node(v)).got_;
    // Beats 3..11 each flush one beat of 5 senders x 2 broadcasts, in
    // sender order (seq order within a sender).
    ASSERT_EQ(got.size(), (beats - 3) * 5u * 2u) << "victim " << v;
    std::size_t i = 0;
    for (Beat b = 3; b < beats; ++b) {
      for (NodeId from = 0; from < 5; ++from) {
        for (std::uint32_t seq = 0; seq < 2; ++seq, ++i) {
          EXPECT_EQ(got[i].beat, b);
          EXPECT_EQ(got[i].from, from);
          EXPECT_EQ(got[i].bytes, pinned_payload(from, b - 3, seq))
              << "victim " << v << " beat " << b << " from " << from
              << " seq " << seq;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// PartitionDelivery

TEST(PartitionDelivery, HealsAtScheduledBeat) {
  EngineConfig cfg = probe_config(5);
  cfg.faults.delivery.kind = DeliveryKind::kPartition;
  cfg.faults.delivery.partition_split = 2;  // {0,1} | {2,3,4}
  cfg.faults.delivery.heal_at = 3;
  auto eng = Engine(cfg, probe_factory(), nullptr);
  eng.run_beats(5);

  for (Beat b = 0; b < 3; ++b) {
    EXPECT_EQ(senders_at(probe(eng, 1), b), (std::set<NodeId>{0, 1}));
    EXPECT_EQ(senders_at(probe(eng, 3), b), (std::set<NodeId>{2, 3, 4}));
  }
  for (Beat b = 3; b < 5; ++b) {
    EXPECT_EQ(senders_at(probe(eng, 1), b),
              (std::set<NodeId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(senders_at(probe(eng, 3), b),
              (std::set<NodeId>{0, 1, 2, 3, 4}));
  }
  // Cross-cut traffic per active beat: 2 senders x 3 targets both ways.
  EXPECT_EQ(eng.metrics().total().eclipsed_messages, 3u * 12u);
}

// ---------------------------------------------------------------------
// EclipseDelivery

TEST(EclipseDelivery, VictimHearsOnlyAllowlistUntilHeal) {
  EngineConfig cfg = probe_config(4);
  cfg.faults.delivery.kind = DeliveryKind::kEclipse;
  cfg.faults.delivery.victims = {0};
  cfg.faults.delivery.allowed_senders = {2};
  cfg.faults.delivery.heal_at = 2;
  auto eng = Engine(cfg, probe_factory(), nullptr);
  eng.run_beats(4);

  // While eclipsed: the allowlisted sender plus loopback. Non-victims are
  // untouched.
  for (Beat b = 0; b < 2; ++b) {
    EXPECT_EQ(senders_at(probe(eng, 0), b), (std::set<NodeId>{0, 2}));
    EXPECT_EQ(senders_at(probe(eng, 1), b), (std::set<NodeId>{0, 1, 2, 3}));
  }
  for (Beat b = 2; b < 4; ++b) {
    EXPECT_EQ(senders_at(probe(eng, 0), b), (std::set<NodeId>{0, 1, 2, 3}));
  }
  // Suppressed: senders {1, 3} x 2 active beats.
  EXPECT_EQ(eng.metrics().total().eclipsed_messages, 4u);
}

// ---------------------------------------------------------------------
// ReorderDelivery

TEST(ReorderDelivery, PermutesArrivalOrderButKeepsTheSet) {
  // One channel per seq: every message stays visible, so the shuffle must
  // neither lose nor delay any of them.
  EngineConfig cfg = probe_config(3);
  cfg.seed = 11;
  cfg.faults.delivery.kind = DeliveryKind::kReorder;
  auto eng = Engine(cfg, probe_factory(/*sends_per_beat=*/6), nullptr);
  eng.run_beats(5);
  for (NodeId id : eng.correct_ids()) {
    for (Beat b = 0; b < 5; ++b) {
      std::map<NodeId, std::vector<std::uint32_t>> seqs;
      for (const Arrival& a : probe(eng, id).beat_arrivals(b)) {
        EXPECT_EQ(a.sent_beat, b);  // reorder never delays across beats
        seqs[a.from].push_back(a.seq);
      }
      ASSERT_EQ(seqs.size(), 3u);  // no message lost
      for (const auto& [from, s] : seqs) {
        EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
      }
    }
  }
  EXPECT_GT(eng.metrics().total().reordered_messages, 0u);

  // One shared channel: the inbox keeps each sender's first arrival, so a
  // shuffled beat shows as a winner other than seq 0 for some sender.
  auto shared = Engine(cfg, probe_factory(6, Channels::kShared), nullptr);
  shared.run_beats(5);
  bool saw_permutation = false;
  for (NodeId id : shared.correct_ids()) {
    for (Beat b = 0; b < 5; ++b) {
      const auto arr = probe(shared, id).beat_arrivals(b);
      EXPECT_EQ(arr.size(), 3u);
      for (const Arrival& a : arr) saw_permutation |= a.seq != 0;
    }
  }
  EXPECT_TRUE(saw_permutation);
}

TEST(ReorderDelivery, SynchronousBaselineKeepsSendOrder) {
  // The control for the test above: without the reorder, every
  // sender's first send arrives first.
  EngineConfig cfg = probe_config(3);
  cfg.seed = 11;
  auto eng = Engine(cfg, probe_factory(6, Channels::kShared), nullptr);
  eng.run_beats(5);
  for (NodeId id : eng.correct_ids()) {
    for (Beat b = 0; b < 5; ++b) {
      const auto arr = probe(eng, id).beat_arrivals(b);
      EXPECT_EQ(arr.size(), 3u);
      for (const Arrival& a : arr) EXPECT_EQ(a.seq, 0u);
    }
  }
  EXPECT_EQ(eng.metrics().total().reordered_messages, 0u);
}

// Faulty node 3 equivocates: kDuplicates different payloads on channel 0 to
// every correct node each beat, encoded like a probe's (beat, seq).
constexpr std::uint32_t kDuplicates = 4;

class EquivocatingAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    for (NodeId to = 0; to < 3; ++to) {
      for (std::uint32_t dup = 0; dup < kDuplicates; ++dup) {
        ByteWriter w;
        w.u64(ctx.beat());
        w.u32(dup);
        ctx.send(3, to, 0, w.data());
      }
    }
  }
};

TEST(ReorderDelivery, EquivocationWinnerMatchesStableSortReference) {
  // Reference model: stable-sort the beat's shuffled arrival list by
  // sender and take the sender's first entry. The winning duplicate the
  // protocol reads must be exactly that one.
  EngineConfig cfg = probe_config(4);
  cfg.f = 1;
  cfg.faulty = {3};
  cfg.seed = 29;
  cfg.faults.delivery.kind = DeliveryKind::kReorder;
  const Beat beats = 8;
  auto eng = Engine(cfg, probe_factory(),
                    std::make_unique<EquivocatingAdversary>());
  eng.run_beats(beats);

  struct Sent {
    NodeId from;
    NodeId to;
    std::uint32_t seq;
  };
  // The arrival list before the shuffle: the correct broadcasts
  // in send order, then the adversary's sends, traffic to node 3 skipped.
  std::vector<Sent> sent;
  for (NodeId from = 0; from < 3; ++from) {
    for (NodeId to = 0; to < 3; ++to) sent.push_back({from, to, 0});
  }
  for (NodeId to = 0; to < 3; ++to) {
    for (std::uint32_t dup = 0; dup < kDuplicates; ++dup) {
      sent.push_back({3, to, dup});
    }
  }
  // No drops and no phantoms: the shuffle is net_rng's only consumer.
  Rng net_rng = Rng(cfg.seed).split("network");
  std::set<std::uint32_t> winners;
  for (Beat b = 0; b < beats; ++b) {
    std::vector<Sent> arrived = sent;
    for (std::size_t i = arrived.size() - 1; i > 0; --i) {
      std::swap(arrived[i], arrived[net_rng.next_below(i + 1)]);
    }
    for (NodeId id = 0; id < 3; ++id) {
      std::vector<Sent> mine;
      for (const Sent& m : arrived) {
        if (m.to == id) mine.push_back(m);
      }
      std::stable_sort(mine.begin(), mine.end(),
                       [](const Sent& x, const Sent& y) {
                         return x.from < y.from;
                       });
      const auto want = std::find_if(mine.begin(), mine.end(),
                                     [](const Sent& m) { return m.from == 3; });
      ASSERT_NE(want, mine.end());
      const auto arr = probe(eng, id).beat_arrivals(b);
      ASSERT_EQ(arr.size(), 4u) << "node " << id << " beat " << b;
      EXPECT_EQ(arr[3].from, 3u);
      EXPECT_EQ(arr[3].sent_beat, b);
      EXPECT_EQ(arr[3].seq, want->seq) << "node " << id << " beat " << b;
      winners.insert(arr[3].seq);
    }
  }
  // The shuffle really moved the winner around.
  EXPECT_GT(winners.size(), 1u);
}

// ---------------------------------------------------------------------
// Every delivery kind composes with the loss/phantom axes.

TEST(EclipseDelivery, ComposesWithDropsAndPhantoms) {
  EngineConfig cfg = probe_config(4);
  cfg.seed = 7;
  cfg.faults.network_faulty_until = 3;
  cfg.faults.faulty_drop_prob = 1.0;  // drop everything the eclipse spares
  cfg.faults.phantoms_per_beat = 2;
  cfg.faults.delivery.kind = DeliveryKind::kEclipse;
  cfg.faults.delivery.victims = {0};
  cfg.faults.delivery.heal_at = DeliverySpec::kNever;
  auto eng = Engine(cfg, probe_factory(), nullptr);
  eng.run_beats(3);
  const BeatTraffic& t = eng.metrics().total();
  // Per beat: 4 messages to the victim from others... none (empty
  // allowlist, loopback only) — 3 eclipsed; the remaining 13 real
  // messages all hit the p=1 lottery.
  EXPECT_EQ(t.eclipsed_messages, 3u * 3u);
  EXPECT_EQ(t.dropped_messages, 3u * 13u);
  EXPECT_EQ(t.phantom_messages, 3u * 4u * 2u);  // phantoms bypass eclipse
}

// ---------------------------------------------------------------------
// Validation: specs and the corruption schedule are checked against the
// world size at engine construction.

TEST(FaultPlanValidation, CorruptionIdOutOfRangeIsRejected) {
  // Regression: the corruption schedule used to index the engine's fault
  // mask unchecked, so an id >= n read out of bounds at the scheduled
  // beat instead of failing fast at construction.
  EngineConfig cfg = probe_config(4);
  cfg.faults.corruptions[5] = {1, 4};  // 4 is out of range for n = 4
  EXPECT_THROW(Engine(cfg, probe_factory(), nullptr), contract_error);
}

TEST(DeliverySpecValidation, RejectsMalformedSpecs) {
  const std::uint32_t n = 4;
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;  // no victims
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;
    s.victims = {4};  // out of range
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;
    s.victims = {0};
    s.allowed_senders = {9};  // out of range
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kPartition;
    s.partition_split = 0;  // group 0 empty
    EXPECT_THROW(s.validate(n), contract_error);
    s.partition_split = n;  // group 1 empty
    EXPECT_THROW(s.validate(n), contract_error);
    s.partition_split = 1;
    s.validate(n);  // ok
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kTargetedDelay;
    s.victims = {1};
    s.delay_beats = 0;
    EXPECT_THROW(s.validate(n), contract_error);
    s.delay_beats = DeliverySpec::kMaxDelayBeats + 1;
    EXPECT_THROW(s.validate(n), contract_error);
    s.delay_beats = 1;
    s.validate(n);  // ok
  }
}

TEST(DeliverySpecValidation, RejectsDuplicateNodeIds) {
  const std::uint32_t n = 4;
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;
    s.victims = {1, 1};
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;
    s.victims = {2, 0, 2};  // unsorted duplicate must still be caught
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kEclipse;
    s.victims = {0};
    s.allowed_senders = {3, 1, 3};
    EXPECT_THROW(s.validate(n), contract_error);
  }
  {
    DeliverySpec s;
    s.kind = DeliveryKind::kTargetedDelay;
    s.victims = {2, 0};  // distinct ids in any order stay legal
    s.delay_beats = 2;
    s.validate(n);
  }
}

// The declared network-quiescence horizon the trace checkers measure
// from: the last beat any network/delivery fault may still act, kNever
// for an unhealed suppressing adversary, and unaffected by scheduled
// corruptions (those are visible in the trace itself).
TEST(FaultPlanQuiescence, DerivesLastDeclaredNetworkFaultBeat) {
  FaultPlan p;
  EXPECT_EQ(p.network_quiescence(), 0u);
  p.network_faulty_until = 40;
  EXPECT_EQ(p.network_quiescence(), 40u);

  p.delivery.kind = DeliveryKind::kReorder;  // model-preserving: ignored
  p.delivery.heal_at = DeliverySpec::kNever;
  EXPECT_EQ(p.network_quiescence(), 40u);

  p.delivery = DeliverySpec{};
  p.delivery.kind = DeliveryKind::kPartition;
  p.delivery.partition_split = 2;
  p.delivery.heal_at = 100;
  EXPECT_EQ(p.network_quiescence(), 100u);
  p.delivery.heal_at = DeliverySpec::kNever;
  EXPECT_EQ(p.network_quiescence(), DeliverySpec::kNever);

  p.delivery = DeliverySpec{};
  p.delivery.kind = DeliveryKind::kTargetedDelay;
  p.delivery.victims = {0};
  p.delivery.delay_beats = 3;
  p.delivery.heal_at = 50;
  EXPECT_EQ(p.network_quiescence(), 53u);  // parked traffic drains post-heal

  p.corruptions[500] = {0};
  EXPECT_EQ(p.network_quiescence(), 53u);
}

TEST(DeliverySpecValidation, EngineRejectsBadSpecAtConstruction) {
  EngineConfig cfg = probe_config(4);
  cfg.faults.delivery.kind = DeliveryKind::kTargetedDelay;
  cfg.faults.delivery.victims = {7};  // out of range for n = 4
  EXPECT_THROW(Engine(cfg, probe_factory(), nullptr), contract_error);
}

TEST(DeliveryKindName, CoversEveryKind) {
  EXPECT_STREQ(delivery_kind_name(DeliveryKind::kSynchronous), "synchronous");
  EXPECT_STREQ(delivery_kind_name(DeliveryKind::kEclipse), "eclipse");
  EXPECT_STREQ(delivery_kind_name(DeliveryKind::kPartition), "partition");
  EXPECT_STREQ(delivery_kind_name(DeliveryKind::kTargetedDelay),
               "targeted-delay");
  EXPECT_STREQ(delivery_kind_name(DeliveryKind::kReorder), "reorder");
}

}  // namespace
}  // namespace ssbft
