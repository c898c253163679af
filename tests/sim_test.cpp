// Tests for the lock-step engine: delivery semantics, adversary contract,
// fault injection, metrics, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "adversary/adversaries.h"
#include "harness/convergence.h"
#include "sim/engine.h"
#include "sim/tally.h"
#include "support/check.h"

namespace ssbft {
namespace {

// Broadcasts its id each beat and records exactly what it receives.
class EchoProtocol final : public ClockProtocol {
 public:
  explicit EchoProtocol(const ProtocolEnv& env) : env_(env) {}

  void send_phase(Outbox& out) override {
    ByteWriter w;
    w.u32(env_.self);
    w.u64(state_);
    out.broadcast(0, w.data());
  }

  void receive_phase(const Inbox& in) override {
    last_senders_.clear();
    last_payload_count_ = 0;
    const PayloadView per = in.first_per_sender(0);
    for (NodeId from = 0; from < per.size(); ++from) {
      if (per[from] == nullptr) continue;
      ++last_payload_count_;
      last_senders_.push_back(from);
    }
    ++state_;
  }

  void randomize_state(Rng& rng) override { state_ = rng.next_u64(); }
  ClockValue clock() const override { return state_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 2; }

  ProtocolEnv env_;
  std::uint64_t state_ = 0;
  std::vector<NodeId> last_senders_;
  std::uint32_t last_payload_count_ = 0;
};

ProtocolFactory echo_factory() {
  return [](const ProtocolEnv& env, Rng) {
    return std::make_unique<EchoProtocol>(env);
  };
}

EngineConfig basic_config(std::uint32_t n, std::uint32_t f_actual) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.f = f_actual;
  cfg.faulty = EngineConfig::last_ids_faulty(n, f_actual);
  cfg.faults.randomize_genesis = false;
  return cfg;
}

// Inbox tests deliver hand-written messages: this keeps their literal
// payloads in an arena, as a sender's would be.
class Wire {
 public:
  Message msg(NodeId from, NodeId to, ChannelId ch,
              std::initializer_list<std::uint8_t> bytes) {
    const Bytes b(bytes);
    return Message{from, to, ch, arena_.store(b)};
  }
  Message msg(NodeId from, NodeId to, ChannelId ch, const ByteWriter& w) {
    return Message{from, to, ch, arena_.store(w.data())};
  }

 private:
  PayloadArena arena_;
};

TEST(Outbox, BroadcastReachesAllIncludingSelf) {
  Outbox out(2, 5);
  out.broadcast(1, Bytes{0xaa});
  ASSERT_EQ(out.messages().size(), 5u);
  for (NodeId to = 0; to < 5; ++to) {
    EXPECT_EQ(out.messages()[to].to, to);
    EXPECT_EQ(out.messages()[to].from, 2u);
    EXPECT_EQ(out.messages()[to].channel, 1);
  }
}

TEST(Outbox, SendTargetValidated) {
  Outbox out(0, 3);
  EXPECT_THROW(out.send(3, 0, Bytes{}), contract_error);
}

// Senders with a payload on `ch`, in id order.
std::vector<NodeId> senders_on(const Inbox& in, ChannelId ch) {
  std::vector<NodeId> out;
  const PayloadView per = in.first_per_sender(ch);
  for (NodeId from = 0; from < per.size(); ++from) {
    if (per[from] != nullptr) out.push_back(from);
  }
  return out;
}

TEST(Inbox, RoutesByChannelAndDropsUnknown) {
  Wire w;
  Inbox in(4, 2);
  in.deliver(w.msg(0, 1, 0, {1}));
  in.deliver(w.msg(0, 1, 1, {2}));
  in.deliver(w.msg(0, 1, 7, {3}));  // out-of-range channel: dropped
  in.deliver(w.msg(9, 1, 0, {4}));  // out-of-range sender: dropped
  EXPECT_EQ(senders_on(in, 0), (std::vector<NodeId>{0}));
  EXPECT_EQ((*in.first_per_sender(0)[0])[0], 1);
  EXPECT_EQ(senders_on(in, 1), (std::vector<NodeId>{0}));
  EXPECT_EQ((*in.first_per_sender(1)[0])[0], 2);
  const PayloadView unknown = in.first_per_sender(7);
  ASSERT_EQ(unknown.size(), 4u);
  for (const ByteSpan* p : unknown) EXPECT_EQ(p, nullptr);
}

TEST(Inbox, FirstArrivalWinsRegardlessOfSenderOrder) {
  Wire w;
  Inbox in(4, 1);
  in.deliver(w.msg(2, 0, 0, {0x22}));
  in.deliver(w.msg(3, 0, 0, {0x33}));
  in.deliver(w.msg(0, 0, 0, {0x00}));  // low-id sender arriving last
  in.deliver(w.msg(2, 0, 0, {0x99}));  // later duplicate: ignored
  const PayloadView per = in.first_per_sender(0);
  EXPECT_EQ(senders_on(in, 0), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ((*per[0])[0], 0x00);
  EXPECT_EQ((*per[2])[0], 0x22);
  EXPECT_EQ((*per[3])[0], 0x33);
}

TEST(Inbox, DeliverAfterReadFillsOnlyEmptySlots) {
  Wire w;
  Inbox in(3, 1);
  in.deliver(w.msg(1, 0, 0, {0x11}));
  const PayloadView per = in.first_per_sender(0);
  ASSERT_NE(per[1], nullptr);
  EXPECT_EQ(per[0], nullptr);
  // A read does not close the beat: a later arrival from a new sender
  // shows up in the same view, a later duplicate does not.
  in.deliver(w.msg(0, 0, 0, {0x01}));
  in.deliver(w.msg(1, 0, 0, {0x99}));
  ASSERT_NE(per[0], nullptr);
  EXPECT_EQ((*per[0])[0], 0x01);
  EXPECT_EQ((*per[1])[0], 0x11);
  EXPECT_EQ(senders_on(in, 0), (std::vector<NodeId>{0, 1}));
}

TEST(Inbox, ZeroLengthPayloadIsPresentNotAbsent) {
  Inbox in(3, 1);
  // A default span (null data, length 0) and an empty buffer's span both
  // count as "sent an empty payload", never as "sent nothing".
  in.deliver(Message{1, 0, 0, ByteSpan{}});
  const Bytes empty;
  in.deliver(Message{2, 0, 0, ByteSpan{empty}});
  const PayloadView per = in.first_per_sender(0);
  EXPECT_EQ(per[0], nullptr);
  ASSERT_NE(per[1], nullptr);
  EXPECT_TRUE(per[1]->empty());
  ASSERT_NE(per[2], nullptr);
  EXPECT_TRUE(per[2]->empty());
  // The empty payload occupies the slot: a later non-empty one loses.
  const std::uint8_t late = 0x7f;
  in.deliver(Message{1, 0, 0, ByteSpan{&late, 1}});
  EXPECT_TRUE(in.first_per_sender(0)[1]->empty());
}

TEST(Inbox, ClearKeepsWorking) {
  Wire w;
  Inbox in(2, 2);
  in.deliver(w.msg(0, 1, 0, {0xaa}));
  EXPECT_EQ(senders_on(in, 0), (std::vector<NodeId>{0}));
  in.clear();
  EXPECT_TRUE(senders_on(in, 0).empty());
  EXPECT_EQ(in.first_per_sender(0)[0], nullptr);
  in.deliver(w.msg(1, 1, 1, {0xbb}));
  EXPECT_TRUE(senders_on(in, 0).empty());
  ASSERT_EQ(senders_on(in, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ((*in.first_per_sender(1)[1])[0], 0xbb);
  // A cleared slot takes a new first arrival.
  in.clear();
  in.deliver(w.msg(0, 1, 0, {0xcc}));
  EXPECT_EQ((*in.first_per_sender(0)[0])[0], 0xcc);
}

TEST(Inbox, EpochWrapForgetsEveryOldSlot) {
  // clear() advances a one-byte epoch. Across its wraps no slot filled in
  // an earlier beat may read as filled — sender 2 speaks only in beat 0 —
  // and fresh deliveries still land.
  Wire w;
  Inbox in(3, 2);
  in.deliver(w.msg(2, 0, 0, {0xee}));
  in.deliver(w.msg(2, 0, 1, {0xef}));
  for (int beat = 0; beat < 600; ++beat) {
    const NodeId from = static_cast<NodeId>(beat % 2);
    in.deliver(w.msg(from, 0, 0, {static_cast<std::uint8_t>(beat)}));
    const std::vector<NodeId> want =
        beat == 0 ? std::vector<NodeId>{0, 2} : std::vector<NodeId>{from};
    ASSERT_EQ(senders_on(in, 0), want) << "beat " << beat;
    EXPECT_EQ((*in.first_per_sender(0)[from])[0],
              static_cast<std::uint8_t>(beat));
    EXPECT_EQ(senders_on(in, 1).size(), beat == 0 ? 1u : 0u)
        << "beat " << beat;
    in.clear();
  }
}

TEST(Inbox, ZeroChannelInboxDropsEverything) {
  // The engine's inbox for a faulty id: no channel rows, nothing kept.
  Wire w;
  Inbox in(3, 0);
  in.deliver(w.msg(0, 2, 0, {0x01}));
  const PayloadView per = in.first_per_sender(0);
  ASSERT_EQ(per.size(), 3u);
  for (const ByteSpan* p : per) EXPECT_EQ(p, nullptr);
  in.clear();
}

TEST(Inbox, FirstPerSenderDeduplicates) {
  Wire w;
  Inbox in(3, 1);
  in.deliver(w.msg(1, 0, 0, {0xaa}));
  in.deliver(w.msg(1, 0, 0, {0xbb}));  // duplicate flood from node 1
  in.deliver(w.msg(2, 0, 0, {0xcc}));
  const auto per = in.first_per_sender(0);
  ASSERT_EQ(per.size(), 3u);
  EXPECT_EQ(per[0], nullptr);
  ASSERT_NE(per[1], nullptr);
  EXPECT_EQ((*per[1])[0], 0xaa);  // first wins, deterministically
  ASSERT_NE(per[2], nullptr);
  EXPECT_EQ((*per[2])[0], 0xcc);
}

TEST(ValueTally, QuorumAndPluralityRules) {
  ValueTally t(8);
  const std::size_t capacity = t.capacity();
  EXPECT_GE(capacity, 8u);

  // The empty tally: no quorum, plurality {0, 0}.
  EXPECT_EQ(t.quorum(1), std::nullopt);
  EXPECT_EQ(t.plurality().value, 0u);
  EXPECT_EQ(t.plurality().count, 0u);

  // A quorum at exactly the threshold qualifies; one short does not.
  for (std::uint64_t v : {7, 5, 7, 7}) t.add(v);
  EXPECT_EQ(t.quorum(3), std::optional<std::uint64_t>(7));
  EXPECT_EQ(t.quorum(4), std::nullopt);

  // Two values qualify: the smallest wins, whatever the arrival order.
  t.clear();
  for (std::uint64_t v : {9, 4, 9, 4, 1}) t.add(v);
  EXPECT_EQ(t.quorum(2), std::optional<std::uint64_t>(4));
  // A plurality tie goes to the smallest tied value, not to 1, the
  // smallest value counted.
  EXPECT_EQ(t.plurality().value, 4u);
  EXPECT_EQ(t.plurality().count, 2u);

  // clear() forgets the counts and keeps the capacity.
  t.clear();
  EXPECT_EQ(t.capacity(), capacity);
  EXPECT_EQ(t.quorum(1), std::nullopt);
  EXPECT_EQ(t.plurality().count, 0u);
}

TEST(ValueTally, DecodersCountTheFirstWellFormedPayloadPerSender) {
  Wire w;
  Inbox in(5, 2);
  const auto u64 = [](std::uint64_t v) {
    ByteWriter bw;
    bw.u64(v);
    return bw;
  };
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  in.deliver(w.msg(0, 4, 0, u64(3)));
  in.deliver(w.msg(1, 4, 0, u64(kTop)));
  in.deliver(w.msg(1, 4, 0, u64(3)));  // a later duplicate never counts
  in.deliver(w.msg(2, 4, 0, u64(kTop)));
  in.deliver(w.msg(3, 4, 0, {0x03}));  // not a u64
  ValueTally t(5);
  t.count_values(in, 0, 8);  // both kTop votes are above max
  EXPECT_EQ(t.plurality().value, 3u);
  EXPECT_EQ(t.plurality().count, 1u);
  t.count_values(in, 0);  // unbounded: every u64 counts
  EXPECT_EQ(t.plurality().value, kTop);
  EXPECT_EQ(t.plurality().count, 2u);

  const auto proposal = [](bool has_value, std::uint64_t v) {
    ByteWriter bw;
    write_proposal(bw, has_value, v);
    return bw;
  };
  EXPECT_EQ(proposal(false, 5).data(),
            (Bytes{0, 5, 0, 0, 0, 0, 0, 0, 0}));
  in.deliver(w.msg(0, 4, 1, proposal(true, 2)));
  in.deliver(w.msg(1, 4, 1, proposal(false, 2)));  // "?" carries no vote
  in.deliver(w.msg(2, 4, 1, {2, 2, 0, 0, 0, 0, 0, 0, 0}));  // bad tag
  in.deliver(w.msg(3, 4, 1, proposal(true, 2)));
  t.count_proposals(in, 1);
  EXPECT_EQ(t.plurality().value, 2u);
  EXPECT_EQ(t.plurality().count, 2u);
}

TEST(ByteVotes, CountsBytesUpToMaxAndReadsOneSender) {
  Wire w;
  Inbox in(5, 1);
  in.deliver(w.msg(0, 4, 0, {1}));
  in.deliver(w.msg(1, 4, 0, {2}));
  in.deliver(w.msg(2, 4, 0, {1, 0}));  // two bytes: malformed
  in.deliver(w.msg(3, 4, 0, {0}));
  EXPECT_EQ(count_byte_votes(in, 0, 1), (ByteVotes{1, 1, 0}));
  EXPECT_EQ(count_byte_votes(in, 0, 2), (ByteVotes{1, 1, 1}));
  EXPECT_EQ(byte_vote_of(in, 0, 0, 1), std::optional<std::uint8_t>(1));
  EXPECT_EQ(byte_vote_of(in, 0, 1, 1), std::nullopt);  // 2 > max
  EXPECT_EQ(byte_vote_of(in, 0, 1, 2), std::optional<std::uint8_t>(2));
  EXPECT_EQ(byte_vote_of(in, 0, 2, 1), std::nullopt);
  EXPECT_EQ(byte_vote_of(in, 0, 4, 1), std::nullopt);  // sent nothing
}

TEST(PayloadArena, BroadcastMessagesShareOneSpan) {
  // Copy-once fabric: all n messages of a broadcast carry the same span
  // (one copy into the arena), while wire-byte accounting still counts
  // n x payload-size.
  Outbox out(1, 4);
  out.broadcast(0, Bytes{1, 2, 3});
  ASSERT_EQ(out.messages().size(), 4u);
  const std::uint8_t* first = out.messages()[0].payload.data();
  for (const Message& m : out.messages()) {
    EXPECT_EQ(m.payload.data(), first);
    EXPECT_EQ(m.payload.size(), 3u);
  }
  EXPECT_EQ(first[2], 3);
  EXPECT_EQ(out.sent_messages(), 4u);
  EXPECT_EQ(out.sent_bytes(), 12u);  // n x B, not B
  // A point-to-point send gets bytes of its own.
  out.send(2, 0, Bytes{9});
  EXPECT_NE(out.messages()[4].payload.data(), first);
  EXPECT_EQ(out.messages()[4].payload[0], 9);
}

TEST(PayloadArena, SpansSurviveAChunkSpill) {
  PayloadArena a;
  const Bytes small{7, 7, 7};
  const ByteSpan early = a.store(small);
  // Far more than the first chunk holds: the arena opens new chunks, and
  // the bytes already handed out stay where they are.
  const Bytes big(3 * PayloadArena::kFirstChunk, 0x5c);
  const ByteSpan spilled = a.store(big);
  EXPECT_GT(a.capacity(), PayloadArena::kFirstChunk);  // it spilled
  ASSERT_EQ(early.size(), 3u);
  EXPECT_TRUE(std::equal(early.begin(), early.end(), small.begin()));
  EXPECT_TRUE(std::equal(spilled.begin(), spilled.end(), big.begin()));
}

TEST(PayloadArena, ClearRewindsAndReusesTheChunk) {
  PayloadArena a;
  const ByteSpan s1 = a.store(Bytes{1, 2});
  const std::size_t cap = a.capacity();
  a.clear();
  const ByteSpan s2 = a.store(Bytes{3, 4});
  EXPECT_EQ(s2.data(), s1.data());  // rewound to the chunk's start
  EXPECT_EQ(a.capacity(), cap);     // no new storage
  // A beat that spilled leaves one chunk of the total size after clear():
  // a request for the whole capacity then fits without growing it.
  (void)a.alloc(4 * PayloadArena::kFirstChunk);
  const std::size_t spilled_cap = a.capacity();
  ASSERT_GT(spilled_cap, cap);
  a.clear();
  EXPECT_EQ(a.capacity(), spilled_cap);
  (void)a.alloc(spilled_cap);
  EXPECT_EQ(a.capacity(), spilled_cap);
}

TEST(PayloadArena, StandaloneOutboxAndAdversaryContextOwnTheirArenas) {
  Outbox a(0, 2);
  Outbox b(1, 2);
  const Bytes payload{0x42};
  a.send(1, 0, payload);
  b.send(0, 0, payload);
  const ByteSpan sa = a.messages()[0].payload;
  const ByteSpan sb = b.messages()[0].payload;
  EXPECT_NE(sa.data(), sb.data());
  EXPECT_NE(sa.data(), payload.data());  // copied, not borrowed
  a.clear();  // rewinds a's arena only
  EXPECT_EQ(sb[0], 0x42);

  const std::vector<NodeId> faulty{1};
  const std::vector<Message> observed;
  Rng rng(1);
  AdversaryContext ctx(2, 1, faulty, 0, observed, rng, 1);
  ctx.broadcast(1, 0, payload);
  ASSERT_EQ(ctx.sends().size(), 2u);
  EXPECT_EQ(ctx.sends()[0].payload.data(), ctx.sends()[1].payload.data());
  EXPECT_NE(ctx.sends()[0].payload.data(), payload.data());
  EXPECT_EQ(ctx.sends()[1].payload[0], 0x42);
}

TEST(PayloadArena, StoreSharesBytesTheArenaAlreadyHolds) {
  PayloadArena a;
  const Bytes caller{5, 6, 7};
  const ByteSpan first = a.store(caller);
  EXPECT_NE(first.data(), caller.data());  // a caller's buffer is copied
  EXPECT_TRUE(a.owns(first));
  EXPECT_FALSE(a.owns(caller));
  EXPECT_FALSE(a.owns(ByteSpan{}));
  // Storing the arena's own span again shares it: no second copy, no
  // arena growth. A sub-span is shared the same way.
  const std::size_t cap = a.capacity();
  const ByteSpan again = a.store(first);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.size(), 3u);
  const ByteSpan tail = a.store(ByteSpan{first.data() + 1, 2});
  EXPECT_EQ(tail.data(), first.data() + 1);
  // The next copy lands right after the first one: nothing was allocated
  // in between.
  const ByteSpan second = a.store(caller);
  EXPECT_EQ(second.data(), first.data() + 3);
  EXPECT_EQ(a.capacity(), cap);
  // Bytes past the allocated end are not the arena's yet.
  EXPECT_FALSE(a.owns(ByteSpan{second.data(), 4}));
  // After a rewind nothing is owned.
  a.clear();
  EXPECT_FALSE(a.owns(first));
}

TEST(PayloadArena, OwnsSpansAcrossAChunkSpill) {
  PayloadArena a;
  const ByteSpan early = a.store(Bytes{1, 2, 3});
  const Bytes big(3 * PayloadArena::kFirstChunk, 0x5c);
  const ByteSpan spilled = a.store(big);
  ASSERT_GT(a.capacity(), PayloadArena::kFirstChunk);  // it spilled
  EXPECT_TRUE(a.owns(early));    // in the first chunk
  EXPECT_TRUE(a.owns(spilled));  // in the last chunk
  const std::size_t cap = a.capacity();
  EXPECT_EQ(a.store(early).data(), early.data());
  EXPECT_EQ(a.store(spilled).data(), spilled.data());
  EXPECT_EQ(a.capacity(), cap);
}

TEST(PayloadArena, AdversaryStoreOnceAddressMany) {
  const std::vector<NodeId> faulty{2};
  const std::vector<Message> observed;
  Rng rng(1);
  AdversaryContext ctx(3, 1, faulty, 0, observed, rng, 1);
  const Bytes payload{0x42, 0x43};
  const ByteSpan stored = ctx.store(payload);
  EXPECT_NE(stored.data(), payload.data());
  for (NodeId to = 0; to < 3; ++to) ctx.send(2, to, 0, stored);
  ctx.broadcast(2, 0, stored);
  ctx.send(2, 0, 0, payload);  // a caller buffer still gets its own copy
  ASSERT_EQ(ctx.sends().size(), 7u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ctx.sends()[i].payload.data(), stored.data());
    EXPECT_EQ(ctx.sends()[i].payload.size(), 2u);
  }
  EXPECT_NE(ctx.sends()[6].payload.data(), stored.data());
  EXPECT_EQ(ctx.sends()[6].payload[1], 0x43);
}

#if defined(SSBFT_ARENA_POISONING)
TEST(PayloadArenaDeathTest, StaleSpanReadIsReported) {
  // AddressSanitizer builds poison rewound arena memory: a read through a
  // span kept past clear() must be reported, not silently see new bytes.
  EXPECT_DEATH(
      {
        PayloadArena a;
        const ByteSpan s = a.store(Bytes{1, 2, 3, 4});
        a.clear();
        volatile std::uint8_t sink = s[1];
        (void)sink;
      },
      "use-after-poison");
}
#endif

TEST(Inbox, ViewsStayValidUntilClear) {
  // Payload bytes live in the sender's arena and a view borrows a row of
  // the slot table: later deliver() calls never move a filled slot or the
  // bytes behind it, so the view and its spans stay valid until clear().
  Wire w;
  Inbox in(4, 2);
  in.deliver(w.msg(1, 0, 0, {0x11}));
  in.deliver(w.msg(2, 0, 0, {0x22}));
  const auto per = in.first_per_sender(0);
  ASSERT_NE(per[1], nullptr);
  ASSERT_NE(per[2], nullptr);
  const ByteSpan* p1 = per[1];
  in.deliver(w.msg(0, 0, 1, {0x33}));  // another channel's row
  in.deliver(w.msg(2, 0, 0, {0x44}));  // a duplicate: ignored
  EXPECT_EQ(per[1], p1);
  EXPECT_EQ((*per[1])[0], 0x11);
  EXPECT_EQ((*per[2])[0], 0x22);
  // After clear() fresh reads see fresh state.
  in.clear();
  EXPECT_EQ(in.first_per_sender(0)[1], nullptr);
  in.deliver(w.msg(1, 0, 0, {0x44}));
  ASSERT_NE(in.first_per_sender(0)[1], nullptr);
  EXPECT_EQ((*in.first_per_sender(0)[1])[0], 0x44);
}

TEST(Engine, AllCorrectMessagesDelivered) {
  auto eng = Engine(basic_config(5, 0), echo_factory(), nullptr);
  eng.run_beat();
  for (NodeId id : eng.correct_ids()) {
    const auto& p = dynamic_cast<const EchoProtocol&>(eng.node(id));
    EXPECT_EQ(p.last_payload_count_, 5u);
  }
}

TEST(Engine, FaultyNodesHostNoProtocol) {
  auto eng = Engine(basic_config(4, 1), echo_factory(),
                    make_silent_adversary());
  EXPECT_EQ(eng.correct_ids().size(), 3u);
  EXPECT_TRUE(eng.is_faulty(3));
  EXPECT_THROW(eng.node(3), contract_error);
}

TEST(Engine, SilentAdversaryMeansFewerMessages) {
  auto eng = Engine(basic_config(4, 1), echo_factory(),
                    make_silent_adversary());
  eng.run_beat();
  for (NodeId id : eng.correct_ids()) {
    const auto& p = dynamic_cast<const EchoProtocol&>(eng.node(id));
    EXPECT_EQ(p.last_payload_count_, 3u);  // only the 3 correct senders
  }
}

// An adversary that tries to forge a correct sender's identity.
class ForgingAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    ctx.send(/*from=*/0, /*to=*/1, 0, Bytes{0x99});  // node 0 is correct
  }
};

TEST(Engine, SenderIdentityUnforgeable) {
  auto eng = Engine(basic_config(4, 1), echo_factory(),
                    std::make_unique<ForgingAdversary>());
  EXPECT_THROW(eng.run_beat(), contract_error);
}

// Records what the adversary observes; sends one message per faulty node.
class ObservingAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    observed_per_beat.push_back(ctx.observed().size());
    for (const Message& m : ctx.observed()) {
      // Rushing view contains only messages addressed to faulty nodes.
      bool to_faulty = false;
      for (NodeId fid : ctx.faulty()) to_faulty |= (m.to == fid);
      EXPECT_TRUE(to_faulty);
    }
    for (NodeId from : ctx.faulty()) ctx.broadcast(from, 0, Bytes{0x01});
  }
  std::vector<std::size_t> observed_per_beat;
};

TEST(Engine, AdversaryObservesExactlyTrafficToFaultyNodes) {
  auto adv = std::make_unique<ObservingAdversary>();
  auto* adv_raw = adv.get();
  auto eng = Engine(basic_config(5, 2), echo_factory(), std::move(adv));
  eng.run_beat();
  // 3 correct nodes broadcast to everyone -> 3 messages to each of the 2
  // faulty nodes.
  ASSERT_EQ(adv_raw->observed_per_beat.size(), 1u);
  EXPECT_EQ(adv_raw->observed_per_beat[0], 6u);
}

TEST(Engine, AdversaryMessagesAreDelivered) {
  auto eng = Engine(basic_config(4, 1), echo_factory(),
                    std::make_unique<ObservingAdversary>());
  eng.run_beat();
  const auto& p = dynamic_cast<const EchoProtocol&>(eng.node(0));
  EXPECT_EQ(p.last_payload_count_, 4u);  // 3 correct + 1 adversary
}

// Adversary messages are delivered after all correct messages; a low-id
// faulty sender must still sit in its own id's slot, ahead of the correct
// senders.
TEST(Engine, LowIdFaultySenderSortsFirst) {
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = {0};  // the *lowest* id is Byzantine
  cfg.faults.randomize_genesis = false;
  auto eng = Engine(cfg, echo_factory(),
                    std::make_unique<ObservingAdversary>());
  eng.run_beat();
  const auto& p = dynamic_cast<const EchoProtocol&>(eng.node(1));
  // Channel 0 carries the three correct broadcasts plus the adversary's
  // message from node 0, read in sender-id order.
  EXPECT_EQ(p.last_senders_, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Engine, ScheduledCorruptionFires) {
  EngineConfig cfg = basic_config(4, 0);
  cfg.faults.corruptions[2] = {1};
  auto eng = Engine(cfg, echo_factory(), nullptr);
  eng.run_beats(2);
  const auto before = dynamic_cast<const EchoProtocol&>(eng.node(1)).state_;
  EXPECT_EQ(before, 2u);  // incremented once per beat from 0
  eng.run_beat();         // corruption fires at the start of beat 2
  const auto after = dynamic_cast<const EchoProtocol&>(eng.node(1)).state_;
  EXPECT_NE(after, 3u);  // overwhelmingly likely: random u64 + 1 != 3
}

TEST(Engine, GenesisRandomizationDesynchronizesState) {
  EngineConfig cfg = basic_config(4, 0);
  cfg.faults.randomize_genesis = true;
  auto eng = Engine(cfg, echo_factory(), nullptr);
  std::set<std::uint64_t> states;
  for (NodeId id : eng.correct_ids()) {
    states.insert(dynamic_cast<const EchoProtocol&>(eng.node(id)).state_);
  }
  EXPECT_GT(states.size(), 1u);
}

TEST(Engine, PhantomMessagesOnlyDuringFaultyPrefix) {
  EngineConfig cfg = basic_config(4, 0);
  cfg.faults.network_faulty_until = 3;
  cfg.faults.phantoms_per_beat = 5;
  auto eng = Engine(cfg, echo_factory(), nullptr);
  eng.run_beats(3);
  const auto during = eng.metrics().total().phantom_messages;
  EXPECT_EQ(during, 3u * 4u * 5u);
  eng.run_beats(3);
  EXPECT_EQ(eng.metrics().total().phantom_messages, during);  // no new ones
}

TEST(Engine, FaultyNetworkCanDropMessages) {
  EngineConfig cfg = basic_config(6, 0);
  cfg.faults.network_faulty_until = 1;
  cfg.faults.faulty_drop_prob = 1.0;  // drop everything in beat 0
  auto eng = Engine(cfg, echo_factory(), nullptr);
  eng.run_beat();
  for (NodeId id : eng.correct_ids()) {
    EXPECT_EQ(dynamic_cast<const EchoProtocol&>(eng.node(id)).last_payload_count_, 0u);
  }
  eng.run_beat();  // network healthy again
  for (NodeId id : eng.correct_ids()) {
    EXPECT_EQ(dynamic_cast<const EchoProtocol&>(eng.node(id)).last_payload_count_, 6u);
  }
}

TEST(Engine, PhantomMaxLenAtTypeMaxIsRejectedByPlanValidation) {
  EngineConfig cfg = basic_config(3, 0);
  cfg.faults.network_faulty_until = 2;
  cfg.faults.phantoms_per_beat = 1;
  // Would make the sampling bound `phantom_max_len + 1` wrap to zero if
  // the engine computed it in 32 bits; plan validation rejects it outright.
  cfg.faults.phantom_max_len = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(Engine(cfg, echo_factory(), nullptr), contract_error);
}

TEST(Engine, PhantomMaxLenAtSaneBoundRuns) {
  EngineConfig cfg = basic_config(3, 0);
  cfg.faults.network_faulty_until = 1;
  cfg.faults.phantoms_per_beat = 1;
  cfg.faults.phantom_max_len = FaultPlan::kMaxPhantomLen;
  auto eng = Engine(cfg, echo_factory(), nullptr);
  eng.run_beat();  // must not throw (bound is widened before the +1)
  EXPECT_EQ(eng.metrics().total().phantom_messages, 3u);
}

TEST(Engine, InvalidDropProbabilityIsRejected) {
  EngineConfig cfg = basic_config(3, 0);
  cfg.faults.faulty_drop_prob = 1.5;
  EXPECT_THROW(Engine(cfg, echo_factory(), nullptr), contract_error);
}

TEST(Convergence, RejectsZeroConfirmWindow) {
  // With confirm_window = 0, `streak >= confirm_window` holds after the
  // very first beat and convergence would be declared unconditionally.
  auto eng = Engine(basic_config(4, 0), echo_factory(), nullptr);
  ConvergenceConfig cfg;
  cfg.confirm_window = 0;
  EXPECT_THROW(measure_convergence(eng, cfg), contract_error);
}

TEST(Metrics, CountBeforeBeginBeatIsContractError) {
  Metrics m;
  EXPECT_THROW(m.count_correct_bulk(2, 8), contract_error);
  EXPECT_THROW(m.count_adversary_bulk(1, 1), contract_error);
  EXPECT_THROW(m.count_phantom(), contract_error);
}

TEST(Metrics, BoundedRingKeepsRecentBeats) {
  Metrics m(2);
  m.begin_beat();
  m.count_correct_bulk(1, 1);
  m.begin_beat();
  m.count_correct_bulk(1, 2);
  m.begin_beat();
  m.count_correct_bulk(2, 4);
  EXPECT_EQ(m.beats_recorded(), 3u);
  ASSERT_EQ(m.retained_count(), 2u);
  EXPECT_EQ(m.retained(0).correct_bytes, 2u);  // oldest retained = beat 1
  EXPECT_EQ(m.retained(1).correct_bytes, 4u);
  EXPECT_THROW(m.history(), contract_error);  // full history unavailable
  // Totals and means still cover the whole run.
  EXPECT_EQ(m.total().correct_bytes, 7u);
  EXPECT_DOUBLE_EQ(m.mean_correct_messages_per_beat(), 4.0 / 3.0);
}

TEST(Engine, BoundedMetricsHistoryStopsGrowing) {
  EngineConfig cfg = basic_config(3, 0);
  cfg.metrics_history_limit = 4;
  auto eng = Engine(cfg, echo_factory(), nullptr);
  eng.run_beats(10);
  EXPECT_EQ(eng.metrics().retained_count(), 4u);
  EXPECT_EQ(eng.metrics().beats_recorded(), 10u);
  EXPECT_EQ(eng.metrics().total().correct_messages, 10u * 9u);
  // The retained window holds the most recent beats' traffic.
  EXPECT_EQ(eng.metrics().retained(3).correct_messages, 9u);
}

TEST(Metrics, EmptyHistoryMeansZero) {
  Metrics m;
  EXPECT_TRUE(m.history().empty());
  EXPECT_DOUBLE_EQ(m.mean_correct_messages_per_beat(), 0.0);
  EXPECT_EQ(m.total().correct_messages, 0u);
  EXPECT_EQ(m.total().correct_bytes, 0u);
}

TEST(Metrics, CountsLandInTheCurrentBeat) {
  Metrics m;
  m.begin_beat();
  m.count_correct_bulk(1, 10);
  m.count_correct_bulk(1, 6);
  m.count_adversary_bulk(1, 3);
  m.begin_beat();  // boundary: subsequent counts belong to beat 1
  m.count_correct_bulk(1, 4);
  m.count_phantom();

  ASSERT_EQ(m.history().size(), 2u);
  EXPECT_EQ(m.history()[0].correct_messages, 2u);
  EXPECT_EQ(m.history()[0].correct_bytes, 16u);
  EXPECT_EQ(m.history()[0].adversary_messages, 1u);
  EXPECT_EQ(m.history()[0].adversary_bytes, 3u);
  EXPECT_EQ(m.history()[0].phantom_messages, 0u);
  EXPECT_EQ(m.history()[1].correct_messages, 1u);
  EXPECT_EQ(m.history()[1].correct_bytes, 4u);
  EXPECT_EQ(m.history()[1].phantom_messages, 1u);

  // Totals aggregate across the beat boundary.
  EXPECT_EQ(m.total().correct_messages, 3u);
  EXPECT_EQ(m.total().correct_bytes, 20u);
  EXPECT_EQ(m.total().adversary_messages, 1u);
  EXPECT_EQ(m.total().phantom_messages, 1u);
  EXPECT_DOUBLE_EQ(m.mean_correct_messages_per_beat(), 1.5);
}

TEST(Metrics, EmptyBeatStaysZeroInHistory) {
  Metrics m;
  m.begin_beat();
  m.count_correct_bulk(1, 8);
  m.begin_beat();  // a beat in which nothing is sent
  m.begin_beat();
  m.count_correct_bulk(1, 8);
  ASSERT_EQ(m.history().size(), 3u);
  EXPECT_EQ(m.history()[1].correct_messages, 0u);
  EXPECT_EQ(m.history()[1].correct_bytes, 0u);
  EXPECT_DOUBLE_EQ(m.mean_correct_messages_per_beat(), 2.0 / 3.0);
}

TEST(Engine, MetricsCountTraffic) {
  auto eng = Engine(basic_config(3, 0), echo_factory(), nullptr);
  eng.run_beats(4);
  // 3 nodes broadcast (3 msgs each of 12 bytes) per beat.
  EXPECT_EQ(eng.metrics().total().correct_messages, 4u * 9u);
  EXPECT_EQ(eng.metrics().total().correct_bytes, 4u * 9u * 12u);
  EXPECT_DOUBLE_EQ(eng.metrics().mean_correct_messages_per_beat(), 9.0);
  EXPECT_EQ(eng.metrics().history().size(), 4u);
}

TEST(Engine, DeterministicReplay) {
  EngineConfig cfg = basic_config(5, 1);
  cfg.seed = 77;
  cfg.faults.randomize_genesis = true;
  cfg.faults.network_faulty_until = 2;
  cfg.faults.phantoms_per_beat = 3;
  auto run = [&] {
    auto eng = Engine(cfg, echo_factory(),
                      make_random_noise_adversary(4, 16));
    eng.run_beats(10);
    std::vector<std::uint64_t> states;
    for (NodeId id : eng.correct_ids()) {
      states.push_back(dynamic_cast<const EchoProtocol&>(eng.node(id)).state_);
    }
    states.push_back(eng.metrics().total().adversary_messages);
    return states;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, CorrectClocksExposed) {
  auto eng = Engine(basic_config(4, 1), echo_factory(),
                    make_silent_adversary());
  eng.run_beats(3);
  const auto clocks = eng.correct_clocks();
  ASSERT_EQ(clocks.size(), 3u);
  for (auto c : clocks) EXPECT_EQ(c, 3u % 4u);
}

// ---------------------------------------------------------------------------
// Beat workers.

// Broadcasts `len` bytes drawn from its state and sends one short message
// to its successor; folds everything it reads into its state. Throws from
// the receive phase of beat `throw_beat` when it is set.
class HeavyProtocol final : public ClockProtocol {
 public:
  HeavyProtocol(const ProtocolEnv& env, std::size_t len, bool node_local)
      : env_(env), len_(len), node_local_(node_local) {}

  void send_phase(Outbox& out) override {
    ByteWriter& w = out.writer();
    w.u64(state_);
    for (std::size_t i = 0; i < len_; ++i) {
      w.u8(static_cast<std::uint8_t>(state_ >> (i % 8) * 8));
    }
    out.broadcast(0, w.data());
    ByteWriter& w2 = out.writer();
    w2.u32(env_.self);
    out.send((env_.self + 1) % env_.n, 1, w2.data());
  }

  void receive_phase(const Inbox& in) override {
    if (beat_ == throw_beat) {
      throw std::runtime_error("node " + std::to_string(env_.self));
    }
    for (ChannelId ch = 0; ch < 2; ++ch) {
      for (const ByteSpan* p : in.first_per_sender(ch)) {
        if (p == nullptr) continue;
        std::uint64_t head = p->size();
        for (std::size_t i = 0; i < std::min<std::size_t>(8, p->size()); ++i) {
          head = head * 257 + p->data()[i];
        }
        state_ = state_ * 1000003 + head;
      }
    }
    ++beat_;
  }

  void randomize_state(Rng& rng) override { state_ = rng.next_u64(); }
  ClockValue clock() const override { return state_ % 4; }
  ClockValue modulus() const override { return 4; }
  std::uint32_t channel_count() const override { return 2; }
  bool node_local_phases() const override { return node_local_; }

  ProtocolEnv env_;
  std::size_t len_;
  bool node_local_;
  std::uint64_t state_ = 0;
  Beat beat_ = 0;
  Beat throw_beat = ~Beat{0};
};

// n = 10 nodes, the last two faulty: 8 correct broadcasters. With 20 000
// byte payloads the first beat moves 1.6 MB of correct traffic.
constexpr std::size_t kHeavyLen = 20000;

Engine heavy_engine(std::size_t len, bool node_local,
                    std::unique_ptr<Adversary> adv, EngineConfig cfg) {
  return Engine(cfg,
                [len, node_local](const ProtocolEnv& env, Rng) {
                  return std::make_unique<HeavyProtocol>(env, len,
                                                         node_local);
                },
                std::move(adv));
}

HeavyProtocol& heavy(Engine& eng, NodeId id) {
  return dynamic_cast<HeavyProtocol&>(eng.node(id));
}

TEST(BeatWorkers, PoolStartsOnlyWhenTheFirstBeatQualifies) {
  struct Case {
    std::size_t len;
    bool node_local;
    unsigned cap;
    unsigned workers;
  };
  for (const Case& c : {Case{kHeavyLen, true, 4, 4}, Case{kHeavyLen, true, 3, 3},
                        Case{kHeavyLen, true, 16, 8}, Case{kHeavyLen, true, 1, 1},
                        Case{kHeavyLen, false, 4, 1}, Case{1000, true, 4, 1}}) {
    SCOPED_TRACE(testing::Message() << "len " << c.len << " node_local "
                                    << c.node_local << " cap " << c.cap);
    Engine eng = heavy_engine(c.len, c.node_local, make_silent_adversary(),
                              basic_config(10, 2));
    eng.set_beat_workers(c.cap);
    EXPECT_EQ(eng.beat_worker_cap(), c.cap);
    EXPECT_EQ(eng.beat_workers(), 1u);
    eng.run_beat();
    EXPECT_EQ(eng.beat_workers(), c.workers);
    EXPECT_THROW(eng.set_beat_workers(2), contract_error);
    eng.run_beats(2);
    EXPECT_EQ(eng.beat_workers(), c.workers);
  }
}

// The default cap counts the CPUs this process may run on, not the
// machine's: a child narrowed to one CPU (as under `taskset -c 0`) gets a
// serial engine even for a heavy beat. Forked, so the narrowed mask never
// reaches the rest of the suite.
TEST(BeatWorkers, DefaultCapFollowsTheAffinityMask) {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mine), &mine), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &mine)) ++cpu;
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: _exit keeps gtest/atexit machinery out; the code says what
    // failed.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) _exit(3);
    Engine eng = heavy_engine(kHeavyLen, true, make_silent_adversary(),
                              basic_config(10, 2));
    if (eng.beat_worker_cap() != 1) _exit(1);
    eng.run_beat();
    _exit(eng.beat_workers() == 1 ? 0 : 2);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: cap above 1 on one CPU, 2: the pool started, 3: "
         "sched_setaffinity failed";
}

// Records every message of the rushing view, in order, and answers from
// each faulty node.
class RecordingAdversary final : public Adversary {
 public:
  void act(AdversaryContext& ctx) override {
    for (const Message& m : ctx.observed()) {
      seen.push_back({m.from, m.to, m.channel,
                      static_cast<std::uint32_t>(m.payload.size())});
    }
    for (NodeId from : ctx.faulty()) ctx.broadcast(from, 0, Bytes{0x01});
  }
  std::vector<std::array<std::uint32_t, 4>> seen;
};

// The pool rebuilds the serial message vector: the adversary sees the
// same messages in the same order, and under a lossy network, where every
// message draws its own drop lottery, every node ends in the same state.
TEST(BeatWorkers, KeepTheSerialMessageOrderAndState) {
  EngineConfig cfg = basic_config(10, 2);
  cfg.faults.randomize_genesis = true;
  cfg.faults.network_faulty_until = 6;
  cfg.faults.faulty_drop_prob = 0.3;
  cfg.faults.phantoms_per_beat = 2;
  cfg.track_channel_bytes = true;
  struct Run {
    std::vector<std::array<std::uint32_t, 4>> seen;
    std::vector<std::uint64_t> states;
    std::uint64_t messages, bytes, dropped;
    std::vector<std::uint64_t> channel_bytes;
  };
  const auto run = [&](unsigned cap) {
    auto adv = std::make_unique<RecordingAdversary>();
    RecordingAdversary* rec = adv.get();
    Engine eng = heavy_engine(kHeavyLen, true, std::move(adv), cfg);
    eng.set_beat_workers(cap);
    eng.run_beats(8);
    EXPECT_EQ(eng.beat_workers(), cap);
    Run r{rec->seen, {}, eng.metrics().total().correct_messages,
          eng.metrics().total().correct_bytes,
          eng.metrics().total().dropped_messages, eng.channel_bytes()};
    for (NodeId id : eng.correct_ids()) r.states.push_back(heavy(eng, id).state_);
    return r;
  };
  const Run serial = run(1);
  EXPECT_GT(serial.dropped, 0u);
  for (unsigned cap : {2u, 4u}) {
    SCOPED_TRACE(cap);
    const Run pooled = run(cap);
    EXPECT_EQ(pooled.seen, serial.seen);
    EXPECT_EQ(pooled.states, serial.states);
    EXPECT_EQ(pooled.messages, serial.messages);
    EXPECT_EQ(pooled.bytes, serial.bytes);
    EXPECT_EQ(pooled.dropped, serial.dropped);
    EXPECT_EQ(pooled.channel_bytes, serial.channel_bytes);
  }
}

// Cap 4 over 8 correct ids: worker w covers ids 2w and 2w + 1.
TEST(BeatWorkers, ReceiveExceptionIsRethrownAfterEveryWorkerFinished) {
  Engine eng = heavy_engine(kHeavyLen, true, make_silent_adversary(),
                            basic_config(10, 2));
  eng.set_beat_workers(4);
  eng.run_beats(2);
  ASSERT_EQ(eng.beat_workers(), 4u);
  heavy(eng, 5).throw_beat = 2;  // worker 2
  try {
    eng.run_beat();
    ADD_FAILURE() << "the worker's exception was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node 5");
  }
  // The rethrow waited for the phase: every other node received beat 2.
  for (NodeId id : eng.correct_ids()) {
    EXPECT_EQ(heavy(eng, id).beat_, id == 5 ? 2u : 3u) << "node " << id;
  }
}  // destroying the engine joins its workers

TEST(BeatWorkers, LowestWorkerExceptionWins) {
  Engine eng = heavy_engine(kHeavyLen, true, make_silent_adversary(),
                            basic_config(10, 2));
  eng.set_beat_workers(4);
  eng.run_beat();
  ASSERT_EQ(eng.beat_workers(), 4u);
  for (NodeId id : {7u, 3u, 6u}) heavy(eng, id).throw_beat = 1;
  try {
    eng.run_beat();
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node 3");  // worker 1 beats worker 3
  }
}

TEST(EngineConfig, LastIdsFaultyShape) {
  const auto ids = EngineConfig::last_ids_faulty(7, 2);
  EXPECT_EQ(ids, (std::vector<NodeId>{5, 6}));
  EXPECT_TRUE(EngineConfig::last_ids_faulty(4, 0).empty());
}

}  // namespace
}  // namespace ssbft
