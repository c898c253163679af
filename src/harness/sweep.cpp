// The cross-cell sweep scheduler: one (claim, run, merge) core for every
// grid, from a single cell at jobs = 1 up. Sharding, checkpointing and
// resume all ride the same core: a shard is just a slice of the global
// unit sequence, and a resumed unit is one whose outcome arrives from the
// checkpoint instead of the engine.
#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "harness/checker.h"
#include "harness/live_check.h"
#include "harness/report.h"
#include "sim/trace.h"
#include "support/check.h"
#include "support/sha256.h"

namespace ssbft {

namespace {

double percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

std::uint64_t effective_jobs(std::uint64_t requested, std::uint64_t units) {
  const std::uint64_t hw = available_cpus();
  std::uint64_t jobs = requested == 0 ? hw : requested;
  // Trials are CPU-bound, so threads beyond the core count only add
  // scheduling overhead — and an absurd jobs value must not exhaust OS
  // threads. Results are jobs-independent, so clamping is safe.
  jobs = std::min(jobs, 4 * hw);
  return std::min(jobs, units);
}

std::string sanitize_for_path(const std::string& name) {
  std::string out = name.empty() ? "cell" : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::string trace_path_for(const SweepOptions& opts, const std::string& cell,
                           std::uint64_t trial) {
  return opts.trace_dir + "/" + sanitize_for_path(cell) + ".t" +
         std::to_string(trial) + ".jsonl";
}

// Environment failures (unreadable trace files, unresumable checkpoints,
// unwritable checkpoint paths) throw contract_error with a message that
// stands alone — the CLI prints it verbatim, so no macro expression noise.
[[noreturn]] void sweep_fail(const std::string& msg) {
  throw contract_error(msg);
}

// Parse -> merge -> commit on one unit's trace file through the same
// read_traces as `ssbft_bench check`, so the sweep's per-unit commitments
// are the replay-exactness oracle. Each unit's (scenario, trial, seed) is
// unique, so the merge is a one-file canonicalization.
std::string commitment_from_trace_file(const std::string& path) {
  const MergeResult merged = read_traces({path});
  if (!merged.ok) sweep_fail("trace commitment: " + merged.error);
  SSBFT_CHECK(merged.traces.size() == 1);
  return trace_commitment(merged.traces[0]);
}

// Reads a checkpoint for --resume: a file the reader refuses is a
// contract_error; a torn one comes back as its valid prefix, torn set.
ShardFile load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    sweep_fail("resume from " + path + ": cannot open checkpoint file");
  }
  ShardParse parsed = parse_shard_file(in);
  if (!parsed.ok) {
    sweep_fail("resume from " + path + " line " +
               std::to_string(parsed.error_line) + ": " + parsed.error);
  }
  return std::move(parsed.file);
}

// Fan-out sink for live-checked + traced units: every record batch goes
// to both the StreamingChecker and the JSONL file.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink(TraceSink* a, TraceSink* b) : a_(a), b_(b) {}
  void begin_trace(const TraceMeta& meta) override {
    a_->begin_trace(meta);
    b_->begin_trace(meta);
  }
  void write(const TraceRecord* records, std::size_t count) override {
    a_->write(records, count);
    b_->write(records, count);
  }
  void end_beat(Beat beat) override {
    a_->end_beat(beat);
    b_->end_beat(beat);
  }

 private:
  TraceSink* a_;
  TraceSink* b_;
};

// `jobs` units run at once, so each engine gets its share of the available
// CPUs as beat workers.
TrialOutcome run_unit(const SweepCell& cell, std::uint64_t t,
                      const SweepOptions& opts, std::uint64_t jobs) {
  EngineBundle bundle = cell.builder(cell.cfg.base_seed + t);
  SSBFT_CHECK(bundle.engine != nullptr);
  bundle.engine->set_beat_workers(static_cast<unsigned>(
      std::max<std::uint64_t>(1, available_cpus() / jobs)));
  // Destroyed before the bundle (declared later), which is safe: no beat
  // runs after the run returns and the engine's destructor never touches
  // its trace sink.
  std::unique_ptr<JsonlTraceSink> sink;
  std::unique_ptr<StreamingChecker> checker;
  std::unique_ptr<TeeTraceSink> tee;
  TraceSink* attach = nullptr;
  if (!opts.trace_dir.empty()) {
    const std::string path = trace_path_for(opts, cell.name, t);
    sink = std::make_unique<JsonlTraceSink>(path);
    if (!sink->ok()) sweep_fail("cannot open trace file " + path);
    attach = sink.get();
  }
  if (opts.live_check) {
    // The closure/convergence invariants only hold once the unit's own
    // declared network faults have quiesced; the checker treats earlier
    // beats like corruption beats.
    CheckOptions copts = opts.live_check_opts;
    copts.fault_horizon = bundle.engine->fault_plan().network_quiescence();
    checker = std::make_unique<StreamingChecker>(copts);
    attach = sink ? static_cast<TraceSink*>(
                        (tee = std::make_unique<TeeTraceSink>(checker.get(),
                                                              sink.get()))
                            .get())
                  : checker.get();
  }
  if (attach != nullptr) {
    TraceMeta meta;
    meta.scenario = cell.name;
    meta.trial = t;
    meta.seed = cell.cfg.base_seed + t;
    meta.n = bundle.engine->n();
    meta.f = bundle.engine->f();
    for (NodeId id = 0; id < bundle.engine->n(); ++id) {
      if (bundle.engine->is_faulty(id)) meta.faulty.push_back(id);
    }
    meta.max_beats = cell.cfg.convergence.max_beats;
    meta.confirm_window = cell.cfg.convergence.confirm_window;
    attach->begin_trace(meta);
    bundle.engine->set_trace(attach);
  }
  TrialOutcome out;
  if (opts.live_check) {
    // Live-checked units run the whole budget: stopping at confirmation
    // (measure_convergence) would hide post-convergence closure breaks
    // and skip corruptions scheduled after the sync point.
    bundle.engine->run_beats(cell.cfg.convergence.max_beats);
    const CheckResult& verdict = checker->finish();
    out.converged = verdict.converged;
    out.synced_at = verdict.synced_at;
    out.check_violations = verdict.violation_count;
  } else {
    const ConvergenceResult r =
        measure_convergence(*bundle.engine, cell.cfg.convergence);
    out.converged = r.converged;
    out.synced_at = r.synced_at;
  }
  out.msgs_per_beat = bundle.engine->metrics().mean_correct_messages_per_beat();
  return out;
}

}  // namespace

// Merge in trial order: sample order and floating-point accumulation
// order are fixed by the trial index, never by completion order.
TrialStats merge_outcomes(const std::vector<TrialOutcome>& outcomes) {
  TrialStats stats;
  stats.trials = outcomes.size();
  if (outcomes.empty()) return stats;
  stats.samples.reserve(outcomes.size());
  double msgs_acc = 0.0;
  for (const TrialOutcome& o : outcomes) {
    msgs_acc += o.msgs_per_beat;
    if (o.converged) {
      ++stats.converged;
      stats.samples.push_back(o.synced_at);
    }
  }
  stats.mean_msgs_per_beat = msgs_acc / static_cast<double>(outcomes.size());
  if (!stats.samples.empty()) {
    std::vector<std::uint64_t> sorted = stats.samples;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (auto s : sorted) sum += static_cast<double>(s);
    stats.mean = sum / static_cast<double>(sorted.size());
    stats.median = percentile(sorted, 0.5);
    stats.p90 = percentile(sorted, 0.9);
    stats.max = sorted.back();
  }
  return stats;
}

std::string sweep_fingerprint(const std::vector<SweepCell>& cells,
                              const SweepOptions& opts) {
  std::string acc = "ssbft-grid-v1\n";
  for (const SweepCell& c : cells) {
    acc += c.name;
    acc += '|';
    acc += std::to_string(c.cfg.trials);
    acc += '|';
    acc += std::to_string(c.cfg.base_seed);
    acc += '|';
    acc += std::to_string(c.cfg.convergence.max_beats);
    acc += '|';
    acc += std::to_string(c.cfg.convergence.confirm_window);
    acc += '\n';
  }
  if (opts.live_check) {
    // fault_horizon is derived per unit from the engine's own plan, so it
    // is not part of the identity.
    const CheckOptions& co = opts.live_check_opts;
    acc += "live-check|" + std::to_string(co.bound) + '|' +
           (co.require_convergence ? '1' : '0') + '|' +
           double_to_hex(co.coin_agreement) + '|' +
           std::to_string(co.confirm_window) + '\n';
  }
  return Sha256::hash_hex(acc);
}

ShardHeader shard_header_for(const std::vector<SweepCell>& cells,
                             const SweepOptions& opts,
                             const std::string& pattern) {
  ShardHeader h;
  h.pattern = pattern;
  h.shard = opts.shard;
  h.fingerprint = sweep_fingerprint(cells, opts);
  for (const SweepCell& c : cells) {
    h.total_units += c.cfg.trials;
    h.cells.push_back(ShardCellInfo{c.name, c.cfg.trials, c.cfg.base_seed});
  }
  return h;
}

SweepResult run_sweep_ex(const std::vector<SweepCell>& cells,
                         const SweepOptions& opts) {
  SSBFT_REQUIRE_MSG(opts.shard.count >= 1 && opts.shard.index < opts.shard.count,
                    "invalid shard spec " << opts.shard.index << "/"
                                          << opts.shard.count);
  SSBFT_REQUIRE_MSG(!opts.collect_commitments || !opts.trace_dir.empty(),
                    "trace commitments require a trace directory");
  SSBFT_REQUIRE_MSG(!opts.resume || !opts.checkpoint_path.empty(),
                    "resume requires a checkpoint path");

  // Flatten the grid into one unit list: unit u = (cell_of[u],
  // trial_of[u]), cells in order, trials in order within each cell — so a
  // serial walk runs each cell's trials back to back. Sharding and
  // checkpointing both speak this global index.
  std::vector<std::uint32_t> cell_of;
  std::vector<std::uint64_t> trial_of;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::uint64_t t = 0; t < cells[c].cfg.trials; ++t) {
      cell_of.push_back(static_cast<std::uint32_t>(c));
      trial_of.push_back(t);
    }
  }
  const std::uint64_t total = cell_of.size();

  // This run's slice of the sequence, ascending: position j holds unit
  // index + j*count, so a restored unit maps back via (u - index) / count.
  std::vector<std::uint64_t> slice;
  for (std::uint64_t u = opts.shard.index; u < total; u += opts.shard.count) {
    slice.push_back(u);
  }

  if (!opts.trace_dir.empty()) {
    std::filesystem::create_directories(opts.trace_dir);
  }

  std::vector<TrialOutcome> outcome_of(slice.size());
  std::vector<char> have(slice.size(), 0);
  std::uint64_t resumed = 0;

  // The checkpoint: publish the preamble — plus, on resume, the old file's
  // valid units — atomically as the file's starting version, then keep it
  // open so each completed unit appends one flushed line.
  const bool checkpointing = !opts.checkpoint_path.empty();
  std::ofstream ckpt_out;
  if (checkpointing) {
    const ShardHeader want = shard_header_for(cells, opts, "");
    std::string text = encode_shard_header(want);
    if (opts.resume) {
      const ShardFile prior = load_checkpoint(opts.checkpoint_path);
      const ShardHeader& got = prior.header;
      if (got.fingerprint != want.fingerprint) {
        sweep_fail("resume: checkpoint " + opts.checkpoint_path +
                   " was written for a different grid or live-check "
                   "settings (fingerprint mismatch)");
      }
      if (!(got.shard == opts.shard)) {
        sweep_fail("resume: checkpoint covers shard " +
                   std::to_string(got.shard.index) + "/" +
                   std::to_string(got.shard.count) + ", this run is shard " +
                   std::to_string(opts.shard.index) + "/" +
                   std::to_string(opts.shard.count));
      }
      if (got.total_units != total) {
        sweep_fail("resume: checkpoint covers " +
                   std::to_string(got.total_units) +
                   " units, this grid has " + std::to_string(total));
      }
      if (!(got.cells == want.cells)) {
        sweep_fail("resume: checkpoint " + opts.checkpoint_path +
                   " lists different cells than this grid");
      }
      if (prior.torn()) {
        std::fprintf(stderr,
                     "sweep: warning: checkpoint %s has a torn tail; "
                     "discarded %llu record(s), recomputing them\n",
                     opts.checkpoint_path.c_str(),
                     static_cast<unsigned long long>(prior.discarded_lines));
        std::fflush(stderr);
      }
      for (ShardUnitRow row : prior.units) {
        // parse_shard_file checked the (cell, trial) flattening and slice
        // membership against a preamble equal to ours, so this mapping
        // cannot go out of range.
        if (opts.collect_commitments && row.outcome.trace_commitment.empty()) {
          // The checkpoint predates --trace: rebuild the commitment from
          // the unit's trace file (it must exist and parse, or the
          // "bit-identical to uninterrupted" promise is unkeepable).
          row.outcome.trace_commitment = commitment_from_trace_file(
              trace_path_for(opts, cells[row.cell].name, row.trial));
        }
        const std::uint64_t j =
            (row.unit - opts.shard.index) / opts.shard.count;
        text += encode_shard_unit(row);
        outcome_of[j] = std::move(row.outcome);
        have[j] = 1;
        ++resumed;
      }
      if (opts.progress) {
        std::fprintf(stderr, "sweep: resumed %llu/%zu units from %s\n",
                     static_cast<unsigned long long>(resumed), slice.size(),
                     opts.checkpoint_path.c_str());
        std::fflush(stderr);
      }
    }
    AtomicOutFile file;
    std::string werr;
    if (!file.open(opts.checkpoint_path)) {
      sweep_fail("checkpoint: cannot open '" + opts.checkpoint_path +
                 "' for writing");
    }
    file.stream() << text;
    if (!file.commit(&werr)) sweep_fail("checkpoint: " + werr);
    ckpt_out.open(opts.checkpoint_path, std::ios::binary | std::ios::app);
    if (!ckpt_out) {
      sweep_fail("checkpoint: cannot append to '" + opts.checkpoint_path +
                 "'");
    }
  }

  std::vector<std::uint64_t> pending;
  for (std::uint64_t j = 0; j < slice.size(); ++j) {
    if (!have[j]) pending.push_back(j);
  }

  const std::uint64_t jobs = effective_jobs(opts.jobs, pending.size());

  // done-count, checkpoint appends and the progress print all happen under
  // one lock, so the reported sequence is monotone and checkpoint lines
  // never interleave.
  std::mutex io_mu;
  std::uint64_t done_count = resumed;
  const auto progress_line = [&] {  // io_mu held
    if (!opts.progress) return;
    if (opts.shard.active()) {
      std::fprintf(stderr, "sweep[shard %llu/%llu]: %llu/%zu units done\n",
                   static_cast<unsigned long long>(opts.shard.index),
                   static_cast<unsigned long long>(opts.shard.count),
                   static_cast<unsigned long long>(done_count), slice.size());
    } else {
      std::fprintf(stderr, "sweep: %llu/%zu units done\n",
                   static_cast<unsigned long long>(done_count), slice.size());
    }
    std::fflush(stderr);
  };
  const auto run_one = [&](std::uint64_t j) {
    const std::uint64_t u = slice[j];
    const std::uint32_t c = cell_of[u];
    const std::uint64_t t = trial_of[u];
    TrialOutcome out = run_unit(cells[c], t, opts, jobs);
    if (opts.collect_commitments) {
      out.trace_commitment =
          commitment_from_trace_file(trace_path_for(opts, cells[c].name, t));
    }
    const std::string line =
        checkpointing ? encode_shard_unit(ShardUnitRow{u, c, t, out}) : "";
    outcome_of[j] = std::move(out);
    have[j] = 1;
    std::lock_guard<std::mutex> lock(io_mu);
    if (checkpointing) {
      ckpt_out << line;
      ckpt_out.flush();
      if (!ckpt_out) {
        sweep_fail("checkpoint: append to '" + opts.checkpoint_path +
                   "' failed");
      }
    }
    ++done_count;
    progress_line();
  };

  if (jobs <= 1) {
    for (std::uint64_t p = 0; p < pending.size(); ++p) run_one(pending[p]);
  } else {
    std::atomic<std::uint64_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::uint64_t w = 0; w < jobs; ++w) {
      pool.emplace_back([&] {
        try {
          for (std::uint64_t p = next.fetch_add(1); p < pending.size();
               p = next.fetch_add(1)) {
            run_one(pending[p]);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
          // Exhaust the unit counter so the other workers wind down
          // instead of grinding through the remaining trials.
          next.store(pending.size());
        }
      });
    }
    for (auto& th : pool) th.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  SweepResult res;
  res.total_units = total;
  res.resumed_units = resumed;
  res.units.reserve(slice.size());
  std::vector<std::vector<TrialOutcome>> per_cell(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    per_cell[c].reserve(cells[c].cfg.trials);
  }
  for (std::uint64_t j = 0; j < slice.size(); ++j) {
    const std::uint64_t u = slice[j];
    SweepUnitResult unit;
    unit.unit = u;
    unit.cell = cell_of[u];
    unit.trial = trial_of[u];
    unit.outcome = outcome_of[j];
    res.units.push_back(std::move(unit));
    per_cell[cell_of[u]].push_back(outcome_of[j]);
  }
  res.stats.reserve(cells.size());
  for (const auto& cell_outcomes : per_cell) {
    res.stats.push_back(merge_outcomes(cell_outcomes));
  }
  return res;
}

std::vector<TrialStats> run_sweep(const std::vector<SweepCell>& cells,
                                  const SweepOptions& opts) {
  return run_sweep_ex(cells, opts).stats;
}

}  // namespace ssbft
