// Protocol interfaces for the lock-step global-beat-system model.
//
// Beat anatomy (the strongest reading of the paper's Section 2 model: the
// adversary rushes, seeing each beat's traffic to faulty nodes before it
// speaks):
//   1. beat signal: every correct node runs send_phase(), a pure function of
//      its end-of-previous-beat state;
//   2. the adversary observes everything addressed to faulty nodes this beat
//      (rushing) and emits the faulty nodes' messages;
//   3. delivery: all beat-r messages arrive before beat r+1;
//   4. every correct node runs receive_phase() over its beat-r inbox.
//
// Within steps 1 and 4 the nodes do not depend on each other: a send reads
// only its own node's state, a receive only that state and its own inbox.
// An engine may therefore run one phase of different nodes concurrently,
// on its beat workers (sim/engine.h), for protocols that declare it safe
// through node_local_phases(). Everything else in a beat stays serial.
//
// Self-stabilization contract: randomize_state() must be able to set every
// bit of protocol state to arbitrary values; a protocol is correct only if
// it converges from anything randomize_state() can produce. Constants of
// the code (n, f, self id, channel layout) are exempt per Remark 2.1.
#pragma once

#include <cstdint>

#include "sim/message.h"
#include "support/rng.h"
#include "support/types.h"

namespace ssbft {

class TraceEmitter;  // sim/trace.h

// Static facts a node knows about the system ("part of the code").
struct ProtocolEnv {
  NodeId self = 0;
  std::uint32_t n = 0;  // total nodes
  std::uint32_t f = 0;  // bound on Byzantine nodes assumed by the protocol
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  // Emit this beat's messages. Must not depend on anything received this
  // beat (the engine calls it before any delivery).
  virtual void send_phase(Outbox& out) = 0;

  // Process this beat's inbox and update state.
  virtual void receive_phase(const Inbox& in) = 0;

  // Transient fault: overwrite all mutable state with arbitrary values.
  virtual void randomize_state(Rng& rng) = 0;

  // Number of channels this protocol stack uses (channel ids are
  // [0, channel_count)). The engine sizes inboxes from this.
  virtual std::uint32_t channel_count() const = 0;

  // True iff send_phase and receive_phase touch only this node's own
  // state, plus shared state that nothing writes during those phases, so
  // the engine may run different nodes' phases on different threads. The
  // default is the safe answer: a protocol that writes anything shared
  // (a counter, a timing span) keeps its engine on one thread.
  virtual bool node_local_phases() const { return false; }

  // Observation hook (sim/trace.h): emit this beat's phase transitions and
  // coin outcomes. Called by the engine after the receive phase, only when
  // tracing is on; the default traces nothing. Implementations must emit
  // only state that was actually fresh this beat (gated sub-protocols
  // skip beats they did not step) and must not mutate protocol state.
  virtual void trace_state(TraceEmitter& /*em*/) const {}
};

// A protocol whose observable output is a digital clock (the k-Clock
// problem, Definition 3.2).
class ClockProtocol : public Protocol {
 public:
  // Current clock value in [0, modulus()).
  virtual ClockValue clock() const = 0;
  // The k of the k-Clock problem this protocol solves.
  virtual ClockValue modulus() const = 0;
};

}  // namespace ssbft
