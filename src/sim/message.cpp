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
  // Copy once; every recipient's Message carries the same span.
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
      count_(max_channels, 0),
      offset_(max_channels, 0),
      cursor_(max_channels, 0),
      first_(std::size_t{max_channels} * n, nullptr),
      null_row_(n, nullptr) {}

// Bucket the staged messages' indices into the flat order array and
// canonicalize each bucket. Messages stay put; only 4-byte indices move.
// Cost is proportional to this beat's traffic plus the channels touched
// last beat (their per-channel state is reset here).
void Inbox::seal() const {
  if (sealed_) return;
  sealed_ = true;

  // Reset the previous beat's per-channel state.
  for (ChannelId ch : touched_) {
    count_[ch] = 0;
    std::fill_n(first_.begin() + std::size_t{ch} * n_, n_, nullptr);
  }
  touched_.clear();

  // Count per channel; remember which channels carry traffic.
  for (const Message& m : staged_) {
    if (count_[m.channel]++ == 0) touched_.push_back(m.channel);
  }

  // Prefix offsets over the touched channels (bucket order in order_ is
  // the order channels first appeared; reads only ever use offset+count).
  std::uint32_t acc = 0;
  for (ChannelId ch : touched_) {
    offset_[ch] = acc;
    cursor_[ch] = acc;
    acc += count_[ch];
  }

  // Stable counting placement of indices into the flat array.
  order_.resize(staged_.size());
  for (std::uint32_t i = 0; i < staged_.size(); ++i) {
    order_[cursor_[staged_[i].channel]++] = i;
  }

  // Canonical order within each bucket: sender id, stable (duplicates keep
  // arrival order — equal keys never shift). Insertion sort is in-place
  // and allocation-free; buckets are near-sorted already (correct senders
  // arrive in id order, Byzantine/phantom stragglers follow).
  const Message* const msgs = staged_.data();
  for (ChannelId ch : touched_) {
    std::uint32_t* const b = order_.data() + offset_[ch];
    const std::uint32_t len = count_[ch];
    for (std::uint32_t i = 1; i < len; ++i) {
      const std::uint32_t idx = b[i];
      const NodeId key = msgs[idx].from;
      std::uint32_t j = i;
      for (; j > 0 && msgs[b[j - 1]].from > key; --j) b[j] = b[j - 1];
      b[j] = idx;
    }
    // First-per-sender table: one pass in canonical order. The pointers
    // land on the staged messages' spans.
    const ByteSpan** row = first_.data() + std::size_t{ch} * n_;
    for (std::uint32_t i = 0; i < len; ++i) {
      const Message& m = msgs[b[i]];
      if (m.from < n_ && row[m.from] == nullptr) row[m.from] = &m.payload;
    }
  }
}

MessageView Inbox::on(ChannelId channel) const {
  if (channel >= max_channels_) return MessageView{};
  seal();
  if (count_[channel] == 0) return MessageView{};
  return MessageView{staged_.data(), order_.data() + offset_[channel],
                     count_[channel]};
}

PayloadView Inbox::first_per_sender(ChannelId channel) const {
  if (channel >= max_channels_) return PayloadView{null_row_.data(), n_};
  seal();
  return PayloadView{first_.data() + std::size_t{channel} * n_, n_};
}

}  // namespace ssbft
