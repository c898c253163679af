#include "sim/metrics.h"

#include "support/check.h"

namespace ssbft {

Metrics::Metrics(std::size_t history_limit) : limit_(history_limit) {
  if (limit_ > 0) history_.reserve(limit_);
}

void Metrics::begin_beat() {
  ++beats_;
  if (limit_ == 0) {
    history_.emplace_back();
  } else if (history_.size() < limit_) {
    history_.emplace_back();
  } else {
    history_[static_cast<std::size_t>((beats_ - 1) % limit_)] = BeatTraffic{};
  }
}

BeatTraffic& Metrics::current() {
  SSBFT_REQUIRE_MSG(beats_ > 0, "Metrics::count_* before begin_beat()");
  if (limit_ == 0) return history_.back();
  return history_[static_cast<std::size_t>((beats_ - 1) % limit_)];
}

void Metrics::count_phantom() {
  ++current().phantom_messages;
  ++total_.phantom_messages;
}

void Metrics::count_dropped() {
  ++current().dropped_messages;
  ++total_.dropped_messages;
}

void Metrics::count_eclipsed() {
  ++current().eclipsed_messages;
  ++total_.eclipsed_messages;
}

void Metrics::count_delayed() {
  ++current().delayed_messages;
  ++total_.delayed_messages;
}

void Metrics::count_reordered() {
  ++current().reordered_messages;
  ++total_.reordered_messages;
}

void Metrics::count_correct_bulk(std::uint64_t messages, std::uint64_t bytes) {
  BeatTraffic& cur = current();
  cur.correct_messages += messages;
  cur.correct_bytes += bytes;
  total_.correct_messages += messages;
  total_.correct_bytes += bytes;
}

void Metrics::count_adversary_bulk(std::uint64_t messages,
                                   std::uint64_t bytes) {
  BeatTraffic& cur = current();
  cur.adversary_messages += messages;
  cur.adversary_bytes += bytes;
  total_.adversary_messages += messages;
  total_.adversary_bytes += bytes;
}

const std::vector<BeatTraffic>& Metrics::history() const {
  SSBFT_REQUIRE_MSG(limit_ == 0,
                    "full history() is unavailable with a bounded ring; use "
                    "retained_count()/retained()");
  return history_;
}

std::size_t Metrics::retained_count() const { return history_.size(); }

const BeatTraffic& Metrics::retained(std::size_t i) const {
  SSBFT_REQUIRE(i < history_.size());
  if (limit_ == 0 || history_.size() < limit_) return history_[i];
  // Ring is full: index 0 is the oldest retained beat.
  return history_[static_cast<std::size_t>((beats_ + i) % limit_)];
}

double Metrics::mean_correct_messages_per_beat() const {
  if (beats_ == 0) return 0.0;
  return static_cast<double>(total_.correct_messages) /
         static_cast<double>(beats_);
}

}  // namespace ssbft
