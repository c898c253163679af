#include "sim/message.h"

#include <algorithm>

#include "support/check.h"

namespace ssbft {

void PayloadArena::open(std::size_t size) {
  chunks_.push_back(
      Chunk{std::unique_ptr<std::uint8_t[]>(new std::uint8_t[size]), size});
  cur_ = chunks_.back().data.get();
  end_ = cur_ + size;
#if defined(SSBFT_ARENA_POISONING)
  ASAN_POISON_MEMORY_REGION(cur_, size);
#endif
}

void PayloadArena::spill(std::size_t len) {
  const std::size_t grown =
      chunks_.empty() ? kFirstChunk : 2 * chunks_.back().size;
  open(std::max(len, grown));
}

void PayloadArena::clear() {
  if (chunks_.size() > 1) {
    // The beat spilled: keep one chunk of the total size, so the next beat
    // of the same shape fits without spilling.
    const std::size_t total = capacity();
    chunks_.clear();
    open(total);
    return;
  }
  if (chunks_.empty()) return;
  std::uint8_t* const begin = chunks_.front().data.get();
#if defined(SSBFT_ARENA_POISONING)
  ASAN_POISON_MEMORY_REGION(begin, static_cast<std::size_t>(cur_ - begin));
#endif
  cur_ = begin;
}

void PayloadArena::release() {
  chunks_.clear();
  cur_ = nullptr;
  end_ = nullptr;
}

bool PayloadArena::in_spilled_chunk(std::uintptr_t p, std::size_t len) const {
  for (std::size_t i = 0; i + 1 < chunks_.size(); ++i) {
    const auto begin = reinterpret_cast<std::uintptr_t>(chunks_[i].data.get());
    if (p >= begin && p + len <= begin + chunks_[i].size) return true;
  }
  return false;
}

std::size_t PayloadArena::capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

void append_message(std::vector<Message>& sink, NodeId from, NodeId to,
                    ChannelId channel, ByteSpan payload) {
  Message& m = sink.emplace_back();
  m.from = from;
  m.to = to;
  m.channel = channel;
  m.payload = payload;
}

void append_broadcast(std::vector<Message>& sink, NodeId from,
                      std::uint32_t n, ChannelId channel, ByteSpan payload) {
  const std::size_t base = sink.size();
  sink.resize(base + n);
  Message* m = sink.data() + base;
  for (NodeId to = 0; to < n; ++to, ++m) {
    m->from = from;
    m->to = to;
    m->channel = channel;
    m->payload = payload;
  }
}

void Outbox::send(NodeId to, ChannelId channel, ByteSpan payload) {
  SSBFT_REQUIRE_MSG(to < n_, "send target out of range");
  ++sent_messages_;
  sent_bytes_ += payload.size();
  append_message(*sink_, self_, to, channel, arena_->store(payload));
}

void Outbox::broadcast(ChannelId channel, ByteSpan payload) {
  sent_messages_ += n_;
  sent_bytes_ += std::uint64_t{payload.size()} * n_;
  // At most one copy; every recipient's Message carries the same span.
  append_broadcast(*sink_, self_, n_, channel, arena_->store(payload));
}

void Outbox::clear() {
  sink_->clear();
  if (arena_ == &owned_arena_) owned_arena_.clear();
  sent_messages_ = 0;
  sent_bytes_ = 0;
}

Inbox::Inbox(std::uint32_t n, std::uint32_t max_channels)
    : n_(n),
      max_channels_(max_channels),
      stamps_((std::size_t{max_channels} + 1) * n, 0),
      spans_((std::size_t{max_channels} + 1) * n) {}

void Inbox::clear() {
  if (++epoch_ != 0) return;
  // Wrapped: every stamp may equal some future epoch, so reset them all.
  std::fill(stamps_.begin(), stamps_.end(), std::uint8_t{0});
  epoch_ = 1;
}

PayloadView Inbox::first_per_sender(ChannelId channel) const {
  const std::size_t row =
      std::size_t{std::min<std::uint32_t>(channel, max_channels_)} * n_;
  return PayloadView{spans_.data() + row, stamps_.data() + row, epoch_, n_};
}

}  // namespace ssbft
