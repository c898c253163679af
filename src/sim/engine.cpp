#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "support/check.h"

namespace ssbft {

unsigned available_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// One spin-wait step: tells the core this is a busy-wait loop.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins until done() or until kSpinWindow has passed; returns done().
// The window covers the serial adversary and delivery work between a
// beat's send run and its receive run, so a worker catches the next run
// without a futex wake, and sleeps once the engine has stopped beating.
constexpr std::chrono::microseconds kSpinWindow{500};

template <class Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  do {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
      cpu_relax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return done();
}

}  // namespace

// The beat workers: the calling thread and size-1 threads that live as
// long as the pool. A run claims correct-node indices one at a time from a
// shared cursor, on every thread, until all are taken, so no thread waits
// on a fixed share of the work. Each correct node sends through an outbox,
// arena and message vector of its own, whichever thread runs it.
class Engine::BeatPool {
 public:
  struct NodeOut {
    NodeOut(std::uint32_t n, std::size_t arena_bytes, std::size_t msgs)
        : outbox(0, n, &arena) {
      outbox.bind_sink(&sent);
      arena.reserve(arena_bytes);
      sent.reserve(msgs);
    }
    PayloadArena arena;
    std::vector<Message> sent;
    Outbox outbox;
  };

  // Reserves every node's arena and message vector here, on the engine
  // thread.
  BeatPool(unsigned size, std::size_t ids, std::uint32_t n,
           std::size_t arena_bytes, std::size_t msgs)
      : size_(size), ids_(ids), errors_(ids) {
    for (std::size_t i = 0; i < ids_; ++i) {
      outs_.push_back(std::make_unique<NodeOut>(n, arena_bytes, msgs));
    }
    try {
      for (unsigned w = 1; w < size_; ++w) {
        threads_.emplace_back([this] { loop(); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~BeatPool() { stop(); }
  BeatPool(const BeatPool&) = delete;  // its threads hold `this`
  BeatPool& operator=(const BeatPool&) = delete;

  unsigned size() const { return size_; }
  NodeOut& out(std::size_t i) { return *outs_[i]; }

  // Runs job(i) for every correct-node index i, on every thread including
  // the calling one. Returns once all threads have left the run; then
  // rethrows the exception of the lowest index that threw, if any.
  template <class Job>
  void run(Job& job) {
    fn_ = [](void* j, std::size_t i) { (*static_cast<Job*>(j))(i); };
    ctx_ = &job;
    cursor_.store(0, std::memory_order_relaxed);
    running_.store(size_ - 1, std::memory_order_relaxed);
    {
      // Under the lock, so a thread about to sleep either sees the new
      // generation or is already waiting when the notify comes.
      const std::lock_guard<std::mutex> lock(mu_);
      generation_.fetch_add(1, std::memory_order_release);
    }
    start_cv_.notify_all();
    claim();
    const auto idle = [this] {
      return running_.load(std::memory_order_acquire) == 0;
    };
    if (!spin_until(idle)) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, idle);
    }
    for (std::exception_ptr& e : errors_) {
      if (e == nullptr) continue;
      const std::exception_ptr first = e;
      std::fill(errors_.begin(), errors_.end(), nullptr);
      std::rethrow_exception(first);
    }
  }

  void clear_arenas() {
    for (auto& o : outs_) o->arena.clear();
  }

 private:
  void claim() {
    for (;;) {
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= ids_) return;
      try {
        fn_(ctx_, i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
    }
  }

  void loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const auto posted = [&] {
        return generation_.load(std::memory_order_acquire) != seen ||
               stop_.load(std::memory_order_acquire);
      };
      if (!spin_until(posted)) {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, posted);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      seen = generation_.load(std::memory_order_acquire);
      claim();
      if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // The caller tests `running_` under the lock before it sleeps, so
        // once this thread has held the lock, the caller either sees 0
        // there or is already waiting, and the notify cannot be lost.
        { const std::lock_guard<std::mutex> lock(mu_); }
        done_cv_.notify_one();
      }
    }
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  unsigned size_;
  std::size_t ids_;
  std::vector<std::unique_ptr<NodeOut>> outs_;  // per correct-node index
  std::vector<std::exception_ptr> errors_;      // per correct-node index
  void (*fn_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  // The run's next unclaimed index, on a line of its own: every claim
  // writes it, while idle threads read generation_.
  alignas(64) std::atomic<std::size_t> cursor_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};  // one per run
  std::atomic<bool> stop_{false};
  alignas(64) std::atomic<unsigned> running_{0};  // threads still in the run
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
};

void AdversaryContext::require_faulty_sender(NodeId from) const {
  SSBFT_REQUIRE_MSG(from < n_ && (*is_faulty_)[from],
                    "adversary may only send from faulty nodes (sender "
                    "identity is unforgeable, Definition 2.2.2)");
}

ByteSpan AdversaryContext::store(ByteSpan payload) {
  return arena_->store(payload);
}

void AdversaryContext::send(NodeId from, NodeId to, ChannelId channel,
                            ByteSpan payload) {
  SSBFT_REQUIRE_MSG(to < n_, "adversary send target out of range");
  require_faulty_sender(from);
  append_message(*sink_, from, to, channel, arena_->store(payload));
}

void AdversaryContext::broadcast(NodeId from, ChannelId channel,
                                 ByteSpan payload) {
  require_faulty_sender(from);
  // At most one copy; all n messages carry the span (message.h ownership
  // rules).
  append_broadcast(*sink_, from, n_, channel, arena_->store(payload));
}

std::vector<NodeId> EngineConfig::last_ids_faulty(std::uint32_t n,
                                                  std::uint32_t count) {
  SSBFT_REQUIRE(count <= n);
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (std::uint32_t i = n - count; i < n; ++i) ids.push_back(i);
  return ids;
}

Engine::Engine(EngineConfig cfg, const ProtocolFactory& factory,
               std::unique_ptr<Adversary> adversary)
    : cfg_(std::move(cfg)),
      adversary_(std::move(adversary)),
      adv_rng_(Rng(cfg_.seed).split("adversary")),
      corrupt_rng_(Rng(cfg_.seed).split("corrupt")),
      metrics_(cfg_.metrics_history_limit),
      outbox_(0, cfg_.n, &arena_),
      worker_cap_(available_cpus()) {
  SSBFT_REQUIRE(cfg_.n >= 1);
  SSBFT_REQUIRE_MSG(adversary_ != nullptr || cfg_.faulty.empty(),
                    "faulty nodes present but no adversary supplied");
  cfg_.faults.validate(cfg_.n);
  is_faulty_.assign(cfg_.n, false);
  for (NodeId id : cfg_.faulty) {
    SSBFT_REQUIRE(id < cfg_.n);
    is_faulty_[id] = true;
  }
  protocols_.resize(cfg_.n);
  clock_views_.assign(cfg_.n, nullptr);
  const Rng seed_root(cfg_.seed);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (is_faulty_[id]) continue;
    correct_ids_.push_back(id);
    ProtocolEnv env{id, cfg_.n, cfg_.f};
    protocols_[id] = factory(env, seed_root.split("node", id));
    SSBFT_CHECK(protocols_[id] != nullptr);
    clock_views_[id] = dynamic_cast<const ClockProtocol*>(protocols_[id].get());
    all_node_local_ = all_node_local_ && protocols_[id]->node_local_phases();
    channel_count_ =
        std::max(channel_count_, protocols_[id]->channel_count());
    if (cfg_.faults.randomize_genesis) {
      protocols_[id]->randomize_state(corrupt_rng_);
    }
  }
  // Only correct ids get a slot table: traffic to faulty ids never reaches
  // an inbox (their inboxes live inside the adversary).
  inboxes_.reserve(cfg_.n);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    inboxes_.emplace_back(cfg_.n, is_faulty_[id] ? 0 : channel_count_);
  }
  if (cfg_.track_channel_bytes) {
    channel_bytes_.assign(channel_count_, 0);
  }
  delivery_ = Delivery(cfg_.faults, is_faulty_, channel_count_,
                       Rng(cfg_.seed).split("network"));
  // Send phases write straight into the beat scratch; no drain pass.
  outbox_.bind_sink(&correct_msgs_);
}

Engine::~Engine() = default;

Protocol& Engine::node(NodeId id) {
  SSBFT_REQUIRE_MSG(id < cfg_.n && !is_faulty_[id],
                    "node(" << id << ") is faulty or out of range");
  return *protocols_[id];
}

const Protocol& Engine::node(NodeId id) const {
  SSBFT_REQUIRE_MSG(id < cfg_.n && !is_faulty_[id],
                    "node(" << id << ") is faulty or out of range");
  return *protocols_[id];
}

const ClockProtocol& Engine::clock_view(NodeId id) const {
  const ClockProtocol* cp = clock_views_[id];
  SSBFT_REQUIRE_MSG(cp != nullptr, "protocol is not a ClockProtocol");
  return *cp;
}

std::vector<ClockValue> Engine::correct_clocks() const {
  std::vector<ClockValue> out;
  out.reserve(correct_ids_.size());
  for (NodeId id : correct_ids_) out.push_back(clock_view(id).clock());
  return out;
}

std::optional<ClockValue> Engine::common_clock() const {
  if (correct_ids_.empty()) return std::nullopt;
  const ClockValue first = clock_view(correct_ids_.front()).clock();
  for (NodeId id : correct_ids_) {
    if (clock_view(id).clock() != first) return std::nullopt;
  }
  return first;
}

void Engine::corrupt_node(NodeId id) {
  SSBFT_REQUIRE(id < cfg_.n && !is_faulty_[id]);
  protocols_[id]->randomize_state(corrupt_rng_);
  if (trace_ != nullptr) {
    trace_buf_.push({beat_, static_cast<std::int32_t>(id),
                     TraceEvent::kCorrupt, 0, 0, 0, 0, 0});
  }
}

void Engine::set_trace(TraceSink* sink) {
  trace_ = sink;
  trace_buf_.bind(sink);
}

void Engine::emit_beat_trace() {
  for (NodeId id : correct_ids_) {
    TraceEmitter em(&trace_buf_, beat_, static_cast<std::int32_t>(id));
    if (const ClockProtocol* cp = clock_views_[id]) {
      em.clock(cp->clock(), cp->modulus());
    }
    protocols_[id]->trace_state(em);
  }
  const BeatTraffic& t = metrics_.retained(metrics_.retained_count() - 1);
  trace_buf_.push({beat_, -1, TraceEvent::kBeat, 0, t.correct_messages,
                   t.correct_bytes, t.adversary_messages, t.adversary_bytes});
  if (t.dropped_messages != 0 || t.phantom_messages != 0) {
    trace_buf_.push({beat_, -1, TraceEvent::kNet, 0, t.dropped_messages,
                     t.phantom_messages, 0, 0});
  }
  if (t.eclipsed_messages != 0 || t.delayed_messages != 0 ||
      t.reordered_messages != 0) {
    trace_buf_.push({beat_, -1, TraceEvent::kProbe, 0, t.eclipsed_messages,
                     t.delayed_messages, t.reordered_messages, 0});
  }
  trace_buf_.flush();
  trace_->end_beat(beat_);
}

void Engine::set_beat_workers(unsigned cap) {
  SSBFT_REQUIRE(cap >= 1);
  SSBFT_REQUIRE_MSG(!workers_decided_,
                    "set_beat_workers after the engine's first beat");
  worker_cap_ = cap;
}

unsigned Engine::beat_workers() const {
  return pool_ != nullptr ? pool_->size() : 1;
}

void Engine::decide_beat_workers() {
  workers_decided_ = true;
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(worker_cap_, correct_ids_.size()));
  const BeatTraffic& first = metrics_.retained(metrics_.retained_count() - 1);
  if (workers < 2 || !all_node_local_ ||
      first.correct_bytes < kPoolMinBeatBytes) {
    return;
  }
  // Every correct node gets its share of what the serial beat used, plus
  // 25%. The serial arena goes first, so its pages do not linger beside
  // the nodes'; it keeps one node's share for the adversary and phantoms.
  const std::size_t ids = correct_ids_.size();
  const std::size_t arena_share = arena_.capacity() / ids * 5 / 4;
  const std::size_t msgs_share = correct_msgs_.capacity() / ids * 5 / 4;
  arena_.release();
  arena_.reserve(arena_share);
  pool_ = std::make_unique<BeatPool>(workers, ids, cfg_.n, arena_share,
                                     msgs_share);
}

void Engine::send_phases() {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  if (pool_ == nullptr) {
    for (NodeId id : correct_ids_) {
      outbox_.reset(id);
      protocols_[id]->send_phase(outbox_);
      messages += outbox_.sent_messages();
      bytes += outbox_.sent_bytes();
    }
  } else {
    auto job = [this](std::size_t i) {
      BeatPool::NodeOut& o = pool_->out(i);
      o.sent.clear();
      o.outbox.reset(correct_ids_[i]);
      protocols_[correct_ids_[i]]->send_phase(o.outbox);
    };
    pool_->run(job);
    // Appending in node order rebuilds the serial loop's vector message
    // for message, whichever thread ran each node.
    for (std::size_t i = 0; i < correct_ids_.size(); ++i) {
      const BeatPool::NodeOut& o = pool_->out(i);
      correct_msgs_.insert(correct_msgs_.end(), o.sent.begin(), o.sent.end());
      messages += o.outbox.sent_messages();
      bytes += o.outbox.sent_bytes();
    }
  }
  metrics_.count_correct_bulk(messages, bytes);
}

void Engine::receive_phases() {
  if (pool_ == nullptr) {
    for (NodeId id : correct_ids_) protocols_[id]->receive_phase(inboxes_[id]);
    return;
  }
  auto job = [this](std::size_t i) {
    protocols_[correct_ids_[i]]->receive_phase(inboxes_[correct_ids_[i]]);
  };
  pool_->run(job);
}

void Engine::reset_channel_bytes() {
  std::fill(channel_bytes_.begin(), channel_bytes_.end(), 0);
  channel_bytes_beats_ = 0;
}

void Engine::run_beat() {
  metrics_.begin_beat();
  for (BeatListener* l : listeners_) l->on_beat(beat_);

  // Scheduled transient faults fire before the send phase of their beat.
  if (auto it = cfg_.faults.corruptions.find(beat_);
      it != cfg_.faults.corruptions.end()) {
    for (NodeId id : it->second) {
      if (!is_faulty_[id]) corrupt_node(id);
    }
  }

  // 1. Send phases: pure functions of pre-beat state, in id order (or
  //    node by node on the beat workers, each through buffers of its own,
  //    appended in id order). Payload bytes land in the beat arenas.
  send_phases();
  if (cfg_.track_channel_bytes) {
    for (const Message& m : correct_msgs_) {
      if (m.channel < channel_bytes_.size()) {
        channel_bytes_[m.channel] += m.payload.size();
      }
    }
    ++channel_bytes_beats_;
  }

  // 2. Adversary turn (rushing): it sees exactly the beat-r messages
  //    addressed to faulty nodes, then commits the faulty nodes' sends.
  //    The observed view copies the messages' spans — no byte copies.
  if (adversary_ != nullptr && !cfg_.faulty.empty()) {
    for (const Message& m : correct_msgs_) {
      if (!is_faulty_[m.to]) continue;
      observed_.push_back(m);
    }
    AdversaryContext ctx(cfg_.n, cfg_.f, cfg_.faulty, beat_, observed_,
                         adv_rng_, channel_count_, &arena_, &adv_msgs_,
                         &is_faulty_);
    adversary_->act(ctx);
    std::uint64_t adv_bytes = 0;
    for (const Message& m : adv_msgs_) adv_bytes += m.payload.size();
    metrics_.count_adversary_bulk(adv_msgs_.size(), adv_bytes);
  }

  // 3. Delivery under FaultPlan's network (sim/delivery.h). Inboxes were
  //    cleared at the end of the previous beat. A targeted delay copies
  //    what it holds back into arenas of its own; everything else reads
  //    the beat arena.
  delivery_.deliver_beat(beat_, correct_msgs_, adv_msgs_, inboxes_, arena_,
                         metrics_);

  // 4. Receive phases, each reading only its own node's inbox.
  receive_phases();

  // 5. Trace emission (sim/trace.h), observing post-receive state.
  if (trace_ != nullptr) emit_beat_trace();

  // Reset the beat scratch and the inboxes, and rewind the arena: every
  // payload of the beat — delivered, dropped and observed alike — dies
  // here. Each clear is O(1) per container; messages own nothing.
  correct_msgs_.clear();
  adv_msgs_.clear();
  observed_.clear();
  for (Inbox& ib : inboxes_) ib.clear();
  arena_.clear();
  if (pool_ != nullptr) pool_->clear_arenas();
  if (!workers_decided_) decide_beat_workers();

  ++beat_;
}

void Engine::run_beats(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) run_beat();
}

}  // namespace ssbft
