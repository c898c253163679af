// Message model and per-beat inbox/outbox plumbing.
//
// Messages are (from, to, channel, payload-bytes). Channels identify logical
// sub-protocol streams inside a composed stack (e.g. "A1's coin, round 3");
// a parent protocol assigns its children disjoint channel ranges, which is
// the paper's "session number" device made static: only a fixed window of
// sub-protocol instances co-execute, so a fixed channel space suffices and
// is trivially recyclable (self-stabilization needs no unbounded counters).
//
// Payload ownership: one arena per beat
// -------------------------------------
// The protocols run in synchronous beats: a message sent in a beat is
// delivered and read in that same beat. Payload bytes therefore live in a
// `PayloadArena` — a bump allocator the engine rewinds at the end of every
// beat — and a `Message` carries a borrowed `ByteSpan` (pointer + length)
// into it. Messages are trivially copyable 24-byte records: delivery and
// the adversary's rushing view copy them freely, and an inbox keeps only
// the span of the first message per (channel, sender).
//
//   * Copy once. A broadcast copies its encoded payload into the arena
//     exactly once; all n Messages carry the same span. Wire-byte
//     accounting is unchanged: a broadcast still counts n x payload-size
//     sent bytes, and every Message reports the full payload size.
//   * Lifetime. A span stays readable until the end of the beat it was
//     sent in (the arena's next `clear()`), never longer. Protocols read
//     their inbox during the beat; an adversary that wants to keep
//     observed bytes past its turn copies them. The one sanctioned
//     exception is a targeted delay (sim/delivery.h), which copies each
//     held-back payload into an arena of its own.
//   * Store once, address many. `PayloadArena::store` copies only bytes
//     the arena does not already hold: a span it handed out earlier in the
//     beat comes back as is. A sender that addresses one payload to many
//     recipients stores it once (AdversaryContext::store) and passes the
//     span to every send, so the bytes are copied once however many
//     messages carry them.
//   * Views. `first_per_sender()` borrows a row of the inbox's slot table.
//     A later `deliver()` may fill an empty slot of the row but never
//     changes a filled one; only `clear()` invalidates the view. The
//     payload bytes it leads to stay put until the arena rewinds.
//
// An Outbox or AdversaryContext built without an external arena owns a
// private one, so standalone use (tests, harnesses) needs no plumbing.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/bytes.h"
#include "support/types.h"

#if defined(__SANITIZE_ADDRESS__)
#define SSBFT_ARENA_POISONING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SSBFT_ARENA_POISONING 1
#endif
#endif
#if defined(SSBFT_ARENA_POISONING)
#include <sanitizer/asan_interface.h>
#endif

namespace ssbft {

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  ChannelId channel = 0;
  ByteSpan payload;  // borrowed from an arena, readable until its clear()
};
static_assert(sizeof(Message) == 24, "Message must stay 24 bytes");
static_assert(std::is_trivially_copyable<Message>::value,
              "Message is copied freely by delivery and the inboxes");

// Appends Message{from, to, channel, payload} to `sink`, or one message
// per recipient 0..n-1 sharing `payload`. Both write the fields in place:
// building a Message temporary and copying it in makes every append a
// wide load of narrower stores still in flight, which stalls store-to-load
// forwarding and costs more than the copy itself.
void append_message(std::vector<Message>& sink, NodeId from, NodeId to,
                    ChannelId channel, ByteSpan payload);
void append_broadcast(std::vector<Message>& sink, NodeId from,
                      std::uint32_t n, ChannelId channel, ByteSpan payload);

// Bump allocator for payload bytes. Chunks are retained and never move, so
// a span stays valid until `clear()`. The first chunk is small and later
// ones grow geometrically; `clear()` after a beat that spilled into several
// chunks replaces them with one chunk of their total size, so demand
// settles after a few beats and a steady-state beat never allocates.
// Not thread-safe: one thread fills an arena during a phase. An engine owns
// one, plus, once its beat workers start (sim/engine.h), one per correct
// node, filled only by that node's send phase on whichever thread runs it;
// a targeted delay keeps arenas of its own.
//
// Under AddressSanitizer the free part of every chunk is poisoned: reading
// through a span after the arena rewound is reported as use-after-poison.
class PayloadArena {
 public:
  static constexpr std::size_t kFirstChunk = 1024;

  PayloadArena() = default;
  // Spans and the users' arena pointers point into it: never copied or
  // moved.
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  // Uninitialised room for `len` bytes, readable until clear().
  std::uint8_t* alloc(std::size_t len) {
    reserve(len);
    std::uint8_t* p = cur_;
    cur_ += len;
#if defined(SSBFT_ARENA_POISONING)
    ASAN_UNPOISON_MEMORY_REGION(p, len);
#endif
    return p;
  }
  // Copies `bytes` in, unless the arena already holds them (owns()): then
  // they come back as is. Either way the span reads them until clear().
  ByteSpan store(ByteSpan bytes) {
    if (owns(bytes)) return bytes;
    std::uint8_t* p = alloc(bytes.size());
    if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
    return ByteSpan{p, bytes.size()};
  }
  // Makes the next `len` bytes of alloc() calls fit in the current chunk.
  // Callers reserve a deterministic worst case up front so random request
  // sizes (phantom payloads) cannot drive the arena's growth.
  void reserve(std::size_t len) {
    if (static_cast<std::size_t>(end_ - cur_) < len) spill(len);
  }
  // True iff `bytes` lie in memory this arena handed out since its last
  // clear(). A null span is never owned.
  bool owns(ByteSpan bytes) const {
    const auto p = reinterpret_cast<std::uintptr_t>(bytes.data());
    if (p == 0 || chunks_.empty()) return false;
    const auto last = reinterpret_cast<std::uintptr_t>(
        chunks_.back().data.get());
    const auto used_end = reinterpret_cast<std::uintptr_t>(cur_);
    if (p >= last && p + bytes.size() <= used_end) return true;
    return chunks_.size() > 1 && in_spilled_chunk(p, bytes.size());
  }
  // Rewinds: every span handed out since the last clear() is dead. Keeps
  // the capacity (merged into one chunk if the beat spilled).
  void clear();
  // Frees every chunk; like clear(), it kills every span handed out.
  void release();

  // Total bytes across the retained chunks.
  std::size_t capacity() const;

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size;
  };
  // owns() for the chunks before the last one (only during a spilled
  // beat). Such a chunk counts whole: nothing past its last allocation was
  // ever handed out.
  bool in_spilled_chunk(std::uintptr_t p, std::size_t len) const;
  // Opens a fresh chunk of at least `len` bytes.
  void spill(std::size_t len);
  void open(std::size_t size);

  std::vector<Chunk> chunks_;
  std::uint8_t* cur_ = nullptr;  // next free byte of the last chunk
  std::uint8_t* end_ = nullptr;  // end of the last chunk
};

// Borrowed row of an inbox's first-per-sender table: entry s is the
// payload sender s delivered first on the channel, or null if s sent
// nothing. A zero-length payload is a non-null entry of size 0. A slot is
// filled iff its stamp equals the inbox's current epoch.
class PayloadView {
 public:
  class iterator {
   public:
    iterator(const ByteSpan* span, const std::uint8_t* stamp,
             std::uint8_t epoch)
        : span_(span), stamp_(stamp), epoch_(epoch) {}
    const ByteSpan* operator*() const {
      return *stamp_ == epoch_ ? span_ : nullptr;
    }
    iterator& operator++() {
      ++span_;
      ++stamp_;
      return *this;
    }
    bool operator==(const iterator& o) const { return span_ == o.span_; }
    bool operator!=(const iterator& o) const { return span_ != o.span_; }

   private:
    const ByteSpan* span_;
    const std::uint8_t* stamp_;
    std::uint8_t epoch_;
  };

  PayloadView() = default;
  PayloadView(const ByteSpan* spans, const std::uint8_t* stamps,
              std::uint8_t epoch, std::size_t size)
      : spans_(spans), stamps_(stamps), epoch_(epoch), size_(size) {}

  iterator begin() const { return iterator{spans_, stamps_, epoch_}; }
  iterator end() const {
    return iterator{spans_ + size_, stamps_ + size_, epoch_};
  }
  const ByteSpan* operator[](std::size_t i) const {
    return stamps_[i] == epoch_ ? spans_ + i : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const ByteSpan* spans_ = nullptr;
  const std::uint8_t* stamps_ = nullptr;
  std::uint8_t epoch_ = 0;
  std::size_t size_ = 0;
};

// Collects a node's sends during its send phase. The engine enforces the
// sender identity (Definition 2.2: sender ids cannot be forged). One Outbox
// is reused across all nodes and beats: `reset()` rebinds the sender. The
// engine binds the outbox to its own per-beat message vector (`bind_sink`),
// so sends land directly in the beat scratch with no drain pass; standalone
// outboxes collect into an internal vector.
class Outbox {
 public:
  Outbox(NodeId self, std::uint32_t n, PayloadArena* arena = nullptr)
      : self_(self),
        n_(n),
        arena_(arena != nullptr ? arena : &owned_arena_),
        sink_(&owned_msgs_) {}
  Outbox(const Outbox&) = delete;  // points into itself
  Outbox& operator=(const Outbox&) = delete;

  // Redirect sends into an external vector (the engine's beat scratch).
  // Pass null to return to the internal vector.
  void bind_sink(std::vector<Message>* sink) {
    sink_ = sink != nullptr ? sink : &owned_msgs_;
  }

  // Rebind to a new sender and restart this sender's traffic accounting.
  // Messages already in an external sink are left in place (the engine
  // owns them); a standalone outbox forgets its messages.
  void reset(NodeId self) {
    self_ = self;
    if (sink_ == &owned_msgs_) clear();
    sent_messages_ = 0;
    sent_bytes_ = 0;
  }

  // A cleared, reusable payload builder. Valid until the next writer()
  // call; send/broadcast copy the payload, so the writer may be reused
  // immediately afterwards.
  ByteWriter& writer() {
    writer_.clear();
    return writer_;
  }

  // Point-to-point send. The payload is copied into the arena unless the
  // arena already holds it.
  void send(NodeId to, ChannelId channel, ByteSpan payload);
  // "Broadcast" in the paper's sense: send the same payload to all n nodes,
  // including self (no broadcast channels are assumed). The payload is
  // copied into the arena at most ONCE; all n messages carry the same span.
  // Sent-byte accounting still counts n x payload-size wire bytes.
  void broadcast(ChannelId channel, ByteSpan payload);

  // Messages and payload bytes emitted since the last reset().
  std::uint64_t sent_messages() const { return sent_messages_; }
  std::uint64_t sent_bytes() const { return sent_bytes_; }

  const std::vector<Message>& messages() const { return *sink_; }
  // Forgets the messages (and rewinds the arena if this outbox owns it).
  void clear();

 private:
  NodeId self_;
  std::uint32_t n_;
  PayloadArena owned_arena_;
  PayloadArena* arena_;
  ByteWriter writer_;
  std::vector<Message> owned_msgs_;
  std::vector<Message>* sink_;
  std::uint64_t sent_messages_ = 0;
  std::uint64_t sent_bytes_ = 0;
};

// A node's view of the messages delivered to it during one beat: a
// channels x senders table holding, per slot, the payload span of the
// first message that (channel, sender) delivered.
//
// The paper's nodes count at most one value per sender per beat against
// their thresholds, so this is all a protocol reads: a Byzantine duplicate
// flood counts once, and which duplicate counts is the delivery's
// arrival order, first arrival winning. `deliver()` is one slot write
// plus its one-byte stamp; a read is a row lookup. A slot is filled iff
// its stamp equals the current epoch, so `clear()` only advances the
// epoch — it rewrites the stamps once every 255 beats, when the epoch
// wraps — and nothing is allocated after construction.
class Inbox {
 public:
  // `max_channels` = 0 builds an inbox that drops everything (the engine's
  // stand-in for faulty ids, whose traffic never reaches an inbox).
  Inbox(std::uint32_t n, std::uint32_t max_channels);

  // Fills the (channel, sender) slot if it is still empty. Messages on
  // unknown channels or from out-of-range senders are dropped, as are
  // later duplicates.
  void deliver(const Message& m) {
    if (m.channel >= max_channels_ || m.from >= n_) return;
    const std::size_t slot = std::size_t{m.channel} * n_ + m.from;
    if (stamps_[slot] == epoch_) return;  // first arrival wins
    stamps_[slot] = epoch_;
    spans_[slot] = m.payload;
  }
  // Forgets the beat's messages, keeping all storage.
  void clear();

  // At most one payload per sender on a channel: the first message each
  // sender delivered. Index s is null if sender s sent nothing. Channels
  // out of range read as all-null. Valid until clear().
  PayloadView first_per_sender(ChannelId channel) const;

  std::uint32_t node_count() const { return n_; }

 private:
  std::uint32_t n_;
  std::uint32_t max_channels_;
  std::uint8_t epoch_ = 1;  // never 0, the stamp of a slot never filled
  // (max_channels + 1) x n, channel-major; the last row is never filled
  // and serves every out-of-range channel.
  std::vector<std::uint8_t> stamps_;
  std::vector<ByteSpan> spans_;
};

}  // namespace ssbft
