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
// into it. Messages are trivially copyable 24-byte records: delivery, the
// adversary's rushing view and the inboxes copy them freely, and clearing
// an inbox costs nothing per message.
//
//   * Copy once. A broadcast copies its encoded payload into the arena
//     exactly once; all n Messages carry the same span. Wire-byte
//     accounting is unchanged: a broadcast still counts n x payload-size
//     sent bytes, and every Message reports the full payload size.
//   * Lifetime. A span stays readable until the end of the beat it was
//     sent in (the arena's next `clear()`), never longer. Protocols read
//     their inbox during the beat; an adversary that wants to keep
//     observed bytes past its turn copies them. The one sanctioned
//     exception is a deferring delivery policy (sim/delivery.h), which
//     copies each held-back payload into an arena of its own.
//   * Views. `on()` / `first_per_sender()` borrow index tables from the
//     inbox and are invalidated by its next `deliver()` or `clear()`; the
//     payload bytes they lead to stay put until the arena rewinds.
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
// Not thread-safe; one arena per engine (plus a deferring policy's own).
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
  // Copies `bytes` in; the returned span reads them until clear().
  ByteSpan store(ByteSpan bytes) {
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
  // Rewinds: every span handed out since the last clear() is dead. Keeps
  // the capacity (merged into one chunk if the beat spilled).
  void clear();

  // Total bytes across the retained chunks.
  std::size_t capacity() const;

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size;
  };
  // Opens a fresh chunk of at least `len` bytes.
  void spill(std::size_t len);
  void open(std::size_t size);

  std::vector<Chunk> chunks_;
  std::uint8_t* cur_ = nullptr;  // next free byte of the last chunk
  std::uint8_t* end_ = nullptr;  // end of the last chunk
};

// Borrowed view of one channel bucket: a contiguous run of indices into
// the inbox's arrival-order message store. Iteration order is canonical
// (sender id, then arrival order); messages themselves are never moved.
class MessageView {
 public:
  class iterator {
   public:
    iterator(const Message* base, const std::uint32_t* idx)
        : base_(base), idx_(idx) {}
    const Message& operator*() const { return base_[*idx_]; }
    const Message* operator->() const { return &base_[*idx_]; }
    iterator& operator++() {
      ++idx_;
      return *this;
    }
    bool operator==(const iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const iterator& o) const { return idx_ != o.idx_; }

   private:
    const Message* base_;
    const std::uint32_t* idx_;
  };

  MessageView() = default;
  MessageView(const Message* base, const std::uint32_t* idx, std::size_t size)
      : base_(base), idx_(idx), size_(size) {}

  iterator begin() const { return iterator{base_, idx_}; }
  iterator end() const { return iterator{base_, idx_ + size_}; }
  const Message& operator[](std::size_t i) const { return base_[idx_[i]]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const Message* base_ = nullptr;
  const std::uint32_t* idx_ = nullptr;
  std::size_t size_ = 0;
};

// Borrowed per-sender payload table: entry s is null if sender s sent
// nothing valid on the channel.
class PayloadView {
 public:
  PayloadView() = default;
  PayloadView(const ByteSpan* const* data, std::size_t size)
      : data_(data), size_(size) {}

  const ByteSpan* const* begin() const { return data_; }
  const ByteSpan* const* end() const { return data_ + size_; }
  const ByteSpan* operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const ByteSpan* const* data_ = nullptr;
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

  // Point-to-point send. The payload is copied into the arena.
  void send(NodeId to, ChannelId channel, ByteSpan payload);
  // "Broadcast" in the paper's sense: send the same payload to all n nodes,
  // including self (no broadcast channels are assumed). The payload is
  // copied into the arena ONCE; all n messages carry the same span.
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

// A node's view of the messages delivered to it during one beat.
//
// Storage is a flat bucket layout: delivered messages live in one
// arrival-order array; on first read a flat index array is bucketed by
// channel and canonically ordered by sender id within each bucket (stable,
// so duplicates keep arrival order). Messages are copied in exactly once
// and never move again. All per-beat state keeps its capacity across
// `clear()`, so a steady-state beat touches the allocator not at all.
class Inbox {
 public:
  // Payload bytes live in the sender's arena; the inbox stores spans only.
  Inbox(std::uint32_t n, std::uint32_t max_channels);

  // Messages on unknown channels are dropped.
  void deliver(const Message& m) {
    if (m.channel >= max_channels_) return;
    sealed_ = false;  // a later read re-buckets
    staged_.push_back(m);
  }
  // Pre-reserves storage for `messages` deliveries this beat. The engine
  // calls this with the pre-drop addressed count when the network is
  // lossy, so inbox capacity converges to the deterministic traffic shape
  // instead of chasing random record peaks of the delivered count.
  void reserve(std::size_t messages) {
    staged_.reserve(messages);
    order_.reserve(messages);
  }
  // Forgets the messages in O(1), keeping capacity.
  void clear() {
    staged_.clear();
    sealed_ = false;
  }

  // All messages on a channel, ordered by sender id (then arrival order for
  // duplicates). Channels out of range return an empty view. The view is
  // invalidated by deliver() and clear().
  MessageView on(ChannelId channel) const;

  // At most one payload per sender on a channel: the first message each
  // sender delivered. Index s is null if sender s sent nothing valid.
  // Byzantine duplicate floods therefore count once, deterministically.
  // The view is invalidated by deliver() and clear().
  PayloadView first_per_sender(ChannelId channel) const;

  std::uint32_t node_count() const { return n_; }

 private:
  void seal() const;  // bucket + canonicalize the index array

  std::uint32_t n_;
  std::uint32_t max_channels_;

  std::vector<Message> staged_;  // arrival order

  // Mutable: seal() runs lazily from the const read accessors.
  mutable bool sealed_ = false;
  mutable std::vector<std::uint32_t> order_;   // flat channel buckets (indices)
  mutable std::vector<std::uint32_t> count_;   // per channel
  mutable std::vector<std::uint32_t> offset_;  // per channel, into order_
  mutable std::vector<std::uint32_t> cursor_;  // scratch for bucketing
  mutable std::vector<ChannelId> touched_;     // channels with count > 0
  mutable std::vector<const ByteSpan*> first_;  // max_channels x n table
  std::vector<const ByteSpan*> null_row_;       // n nulls, for empty channels
};

}  // namespace ssbft
