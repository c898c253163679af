// The Byzantine adversary interface.
//
// Adversary model (Section 2): information-theoretic, private channels,
// rushing. Concretely, each beat the adversary is shown exactly the
// messages addressed to faulty nodes — including this beat's, before it has
// to commit its own sends (rushing) — and nothing that flows between
// correct nodes. It then emits arbitrary messages from the faulty nodes,
// with per-recipient equivocation. Sender identity is enforced by the
// engine (Definition 2.2.2). Strategies keep whatever memory they like.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "support/rng.h"
#include "support/types.h"

namespace ssbft {

class AdversaryContext {
 public:
  // `arena`, `sink` and `is_faulty` may be null for standalone use
  // (tests): the context then owns an arena and a send vector of its own.
  // The engine passes its beat arena and scratch, so adversary payloads
  // live exactly one beat like every other message (see message.h for the
  // ownership rules), and its persistent is-faulty bitmap so the per-send
  // sender check is O(1) instead of a linear scan over `faulty`. Without
  // one, the context builds its own bitmap from `faulty` (a one-time
  // allocation, acceptable standalone).
  AdversaryContext(std::uint32_t n, std::uint32_t f,
                   const std::vector<NodeId>& faulty, Beat beat,
                   const std::vector<Message>& observed, Rng& rng,
                   std::uint32_t channel_count, PayloadArena* arena = nullptr,
                   std::vector<Message>* sink = nullptr,
                   const std::vector<bool>* is_faulty = nullptr)
      : n_(n), f_(f), faulty_(faulty), beat_(beat), observed_(observed),
        rng_(rng), channel_count_(channel_count),
        arena_(arena != nullptr ? arena : &owned_arena_),
        sink_(sink != nullptr ? sink : &owned_sends_),
        is_faulty_(is_faulty) {
    if (is_faulty_ == nullptr) {
      owned_bitmap_.assign(n_, false);
      for (NodeId id : faulty_) {
        if (id < n_) owned_bitmap_[id] = true;
      }
      is_faulty_ = &owned_bitmap_;
    }
  }

  std::uint32_t n() const { return n_; }
  std::uint32_t f() const { return f_; }
  const std::vector<NodeId>& faulty() const { return faulty_; }
  // The global beat index. Handed to the adversary only (footnote 4: nodes
  // never see it; the adversary is part of the environment and may).
  Beat beat() const { return beat_; }
  // Every message sent by a correct node to a faulty node this beat, in
  // deterministic (sender, emission) order. This is the rushing view. The
  // payload spans die with the beat: copy the bytes to keep them.
  const std::vector<Message>& observed() const { return observed_; }
  Rng& rng() { return rng_; }
  std::uint32_t channel_count() const { return channel_count_; }

  // Copies `payload` into the beat arena and returns the arena's span.
  // Sending that span, to any number of recipients, copies nothing more:
  // a payload addressed to many is stored once.
  ByteSpan store(ByteSpan payload);
  // Emit a message from a faulty node. `from` must be faulty. A payload
  // the arena does not hold yet (see store()) is copied into it; the
  // caller keeps its buffer.
  void send(NodeId from, NodeId to, ChannelId channel, ByteSpan payload);
  // Same payload from `from` to every node. Copied into the arena at most
  // once; all n messages carry the same span (see message.h).
  void broadcast(NodeId from, ChannelId channel, ByteSpan payload);

  const std::vector<Message>& sends() const { return *sink_; }

 private:
  void require_faulty_sender(NodeId from) const;

  std::uint32_t n_, f_;
  const std::vector<NodeId>& faulty_;
  Beat beat_;
  const std::vector<Message>& observed_;
  Rng& rng_;
  std::uint32_t channel_count_;
  PayloadArena owned_arena_;
  PayloadArena* arena_;
  std::vector<Message> owned_sends_;
  std::vector<Message>* sink_;
  const std::vector<bool>* is_faulty_;
  std::vector<bool> owned_bitmap_;
};

class Adversary {
 public:
  virtual ~Adversary() = default;
  // Called once per beat, after all correct nodes committed their sends.
  virtual void act(AdversaryContext& ctx) = 0;
};

}  // namespace ssbft
