// Deterministic execution tracing: the opt-in observation path behind
// Engine::run_beat. When a TraceSink is attached (Engine::set_trace), the
// engine, the delivery layer (through Metrics) and every protocol family
// emit structured per-beat records; with no sink attached the beat loop
// pays exactly one pointer test.
//
// ## Record schema (one TraceRecord per event)
//
// Fields: beat, node (-1 = engine-level), event, stream, a..d. `stream`
// identifies the emitting sub-protocol by its channel base — the same
// number that keys its wire traffic — so a record is attributable even in
// deep compositions (e.g. the 4-clock's two embedded 2-clocks).
//
//   event    node  stream         a              b            c         d
//   kBeat     -1   0              correct msgs   correct B    adv msgs  adv B
//   kNet      -1   0              dropped msgs   phantoms     0         0
//   kProbe    -1   0              eclipsed       delayed      reordered 0
//   kClock    id   0              clock value    modulus k    0         0
//   kPhase    id   channel base   phase value    0            0         0
//   kCoin     id   pipeline base  coin bit       0            0         0
//   kCorrupt  id   0              0              0            0         0
//
// kNet / kProbe are emitted only on beats where a counter is nonzero.
// Per-beat record order is fixed: kCorrupt records (scheduled transient
// faults, in id order), then per correct node in id order one kClock plus
// the protocol's own trace_state() records, then the engine-level
// kBeat / kNet / kProbe summary. Gated sub-protocols (the 4-clock's A2,
// cascade levels) emit only on beats they actually step, so a stale coin
// bit or phase is never reported as fresh.
//
// ## Serialization and the commitment
//
// JsonlTraceSink writes one JSON object per line: a `header` line carrying
// the TraceMeta, then one line per record (`clock`, `phase`, `coin`,
// `beat`, `net`, `probe`, `corrupt`). The offline checker
// (harness/checker.h, `ssbft_bench check`) parses these files, merges
// the records of one (scenario, trial, seed) into a canonical beat-ordered
// stream, verifies the paper's invariants, and hashes a canonical
// re-serialization into a SHA-256 *trace commitment*. The commitment is
// independent of file names, whitespace and line order within a beat's
// emission, and bit-identical across --jobs values — it replaces
// byte-identical stdout diffs as the replay-exactness oracle for perf PRs.
//
// ## Allocation contract
//
// Records flow through a TraceBuffer: a ring of kCapacity records reserved
// once at bind time and flushed to the sink at least once per beat. The
// engine-side path never allocates; a sink that also avoids allocation
// (e.g. a counting test sink) keeps whole traced beats heap-silent, which
// tests/alloc_test.cpp pins down. JsonlTraceSink is the deliberately
// allocating boundary (stream formatting).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "support/types.h"

namespace ssbft {

enum class TraceEvent : std::uint8_t {
  kBeat = 0,
  kNet = 1,
  kProbe = 2,
  kClock = 3,
  kPhase = 4,
  kCoin = 5,
  kCorrupt = 6,
};

struct TraceRecord {
  Beat beat = 0;
  std::int32_t node = -1;  // -1 = engine-level record
  TraceEvent event = TraceEvent::kBeat;
  std::uint32_t stream = 0;  // emitting sub-protocol's channel base
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

// Identity of one traced run, written once as the trace's header line.
struct TraceMeta {
  std::string scenario;  // registry cell name ("" for ad-hoc runs)
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::vector<NodeId> faulty;
  std::uint64_t max_beats = 0;       // the run's beat budget
  std::uint64_t confirm_window = 0;  // convergence confirmation window
};

// Consumer of trace records. Not owned by the engine; must outlive the
// run. write() receives batches in emission order; end_beat() marks the
// point where beat `beat`'s records are complete (every record of the
// beat has been written).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin_trace(const TraceMeta& /*meta*/) {}
  virtual void write(const TraceRecord* records, std::size_t count) = 0;
  virtual void end_beat(Beat /*beat*/) {}
};

// Fixed-capacity record ring between the emitters and the sink. bind()
// reserves the full capacity once, so push() never allocates; the engine
// flushes at the end of every beat (and push() self-flushes if a single
// beat overflows the ring).
class TraceBuffer {
 public:
  void bind(TraceSink* sink);
  bool active() const { return sink_ != nullptr; }

  void push(const TraceRecord& r) {
    if (ring_.size() == kCapacity) flush();
    ring_.push_back(r);
  }
  void flush();

 private:
  static constexpr std::size_t kCapacity = 1024;
  TraceSink* sink_ = nullptr;
  std::vector<TraceRecord> ring_;
};

// Node-scoped emission handle the engine passes to Protocol::trace_state:
// the beat and node id are stamped once, protocols only name their stream
// and payload.
class TraceEmitter {
 public:
  TraceEmitter(TraceBuffer* buf, Beat beat, std::int32_t node)
      : buf_(buf), beat_(beat), node_(node) {}

  void clock(ClockValue value, ClockValue modulus) {
    buf_->push({beat_, node_, TraceEvent::kClock, 0, value, modulus, 0, 0});
  }
  void phase(std::uint32_t stream, std::uint64_t value) {
    buf_->push({beat_, node_, TraceEvent::kPhase, stream, value, 0, 0, 0});
  }
  void coin(std::uint32_t stream, bool bit) {
    buf_->push({beat_, node_, TraceEvent::kCoin, stream, bit ? 1u : 0u, 0, 0,
                0});
  }

 private:
  TraceBuffer* buf_;
  Beat beat_;
  std::int32_t node_;
};

// JSONL serialization of a trace (the schema above). Construct over an
// existing stream, or over a path (the file is created/truncated; check
// ok()). One sink serializes one run.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out);
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  // False when the path constructor failed to open the file.
  bool ok() const;

  void begin_trace(const TraceMeta& meta) override;
  void write(const TraceRecord* records, std::size_t count) override;

 private:
  std::unique_ptr<std::ofstream> file_;  // owned when path-constructed
  std::ostream* out_;
};

}  // namespace ssbft
