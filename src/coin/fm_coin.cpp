#include "coin/fm_coin.h"

#include <algorithm>

#include "coin/coin_pipeline.h"
#include "support/bitwords.h"
#include "support/check.h"

namespace ssbft {

namespace {

// Sentinel carried in cross/share vectors for "no value": the modulus
// itself, which can never be a canonical element.
std::uint64_t sentinel(const PrimeField& F) { return F.modulus(); }

}  // namespace

void FmCoinScratch::ensure(const PrimeField& F, std::uint32_t n_nodes,
                           std::uint32_t faults) {
  if (modulus == F.modulus() && n == n_nodes && f == faults) return;
  modulus = F.modulus();
  n = n_nodes;
  f = faults;
  table = GvssRecoverTable::shared(F, n, f);
  rows.assign(std::size_t{n} * (f + 1), 0);
  vals.assign(n, 0);
  shares_ok.assign(n, 0);
  votes.assign(n, 0);
  recover.resize(n, f);
}

FmCoinInstance::FmCoinInstance(const ProtocolEnv& env,
                               const FmCoinParams& params, Rng rng,
                               std::shared_ptr<FmCoinScratch> scratch)
    : env_(env),
      field_(params.resolve_prime()),
      rng_(rng),
      dealing_(GvssDealing::sample(field_, env.f, rng_)),
      scratch_(scratch != nullptr ? std::move(scratch)
                                  : std::make_shared<FmCoinScratch>()),
      words_(bitword_count(env.n)),
      value_bits_(field_.value_bits()),
      row_valid_(env.n, 0),
      matrix_(std::size_t{env.n} * env.n, sentinel(field_)),
      zeros_(env.n, sentinel(field_)),
      cross_matches_(env.n, 0),
      happy_words_(words_, 0),
      voted_words_(std::size_t{env.n} * words_, 0),
      vote_valid_(env.n, 0),
      grades_(env.n, GvssGrade::kNone) {
  SSBFT_REQUIRE_MSG(field_.modulus() > env.n,
                    "coin field must have modulus > n (Remark 2.3)");
  scratch_->ensure(field_, env_.n, env_.f);
}

void FmCoinInstance::reinit(Rng rng) {
  // Mirrors construction (same rng draw order as the ctor's dealing
  // sample), but every buffer is reused in place. The per-dealer row state
  // needs no reset: round 1's receive rewrites it before any round reads
  // it.
  rng_ = rng;
  dealing_.resample(field_, env_.f, rng_);
  std::fill(cross_matches_.begin(), cross_matches_.end(), 0);
  std::fill(happy_words_.begin(), happy_words_.end(), 0);
  std::fill(vote_valid_.begin(), vote_valid_.end(), 0);
  std::fill(grades_.begin(), grades_.end(), GvssGrade::kNone);
  output_bit_ = false;
}

void FmCoinInstance::send_round(int round, Outbox& out, ChannelId base) {
  const auto ch = static_cast<ChannelId>(base + round - 1);
  switch (round) {
    case 1: send_deal(out, ch); break;
    case 2: send_cross(out, ch); break;
    case 3: send_votes(out, ch); break;
    case 4: send_shares(out, ch); break;
    default: SSBFT_CHECK_MSG(false, "bad round " << round);
  }
}

void FmCoinInstance::receive_round(int round, const Inbox& in,
                                   ChannelId base) {
  const auto ch = static_cast<ChannelId>(base + round - 1);
  switch (round) {
    case 1: recv_deal(in, ch); break;
    case 2: recv_cross(in, ch); break;
    case 3: recv_votes(in, ch); break;
    case 4: recv_shares(in, ch); break;
    default: SSBFT_CHECK_MSG(false, "bad round " << round);
  }
}

// Round 1 — share phase: as dealer, send node j its row F(x_j, y), all n
// rows in one eval_points call. A correct dealer's row is all-present; the
// masked codec still pays off via the packed value width and the dropped
// length prefix.
void FmCoinInstance::send_deal(Outbox& out, ChannelId ch) {
  const std::size_t width = std::size_t{env_.f} + 1;
  std::uint64_t* rows = scratch_->rows.data();
  dealing_.rows_into(field_, env_.n, rows);
  for (NodeId j = 0; j < env_.n; ++j) {
    ByteWriter& w = out.writer();
    w.masked_u64_vec(rows + j * width, width, sentinel(field_), value_bits_);
    out.send(j, ch, w.data());
  }
}

void FmCoinInstance::recv_deal(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  const std::size_t width = std::size_t{env_.f} + 1;
  // Valid rows are staged back to back in dealer order; a rejected
  // payload's slot is reused by the next one.
  std::uint64_t* rows = scratch_->rows.data();
  std::size_t m = 0;
  for (NodeId d = 0; d < env_.n; ++d) {
    row_valid_[d] = 0;
    zeros_[d] = sentinel(field_);
    if (payloads[d] == nullptr) continue;
    std::uint64_t* row = rows + m * width;
    ByteReader r(*payloads[d]);
    // Masked-out coefficients decode to the sentinel, which
    // validate_row_raw rejects as non-canonical — a Byzantine dealer gains
    // nothing by masking.
    if (!r.masked_u64_vec_into(row, width, sentinel(field_), value_bits_) ||
        !r.at_end()) {
      continue;
    }
    if (!validate_row_raw(field_, env_.f, row, width)) continue;
    row_valid_[d] = 1;
    zeros_[d] = row[0];
    ++m;
  }
  evaluate_rows(m);
}

void FmCoinInstance::evaluate_rows(std::size_t m) {
  const std::size_t n = env_.n;
  const std::size_t width = std::size_t{env_.f} + 1;
  const std::uint64_t* rows = scratch_->rows.data();
  std::uint64_t* rows_t = scratch_->recover.block.data();  // width x m
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < width; ++i) {
      rows_t[i * m + k] = rows[k * width + i];
    }
  }
  // Row j's m values land at the front of matrix_ row j, then spread to
  // the valid dealers' columns, back to front: value k moves to column
  // d >= k, so none is overwritten before it has moved. Dealers before the
  // first invalid one keep their column (in the steady state, the correct
  // low ids), so the spread starts there.
  std::uint64_t* evals = matrix_.data();
  field_.eval_points(rows_t, width, m, n, evals, n);
  std::size_t settled = 0;
  while (settled < n && row_valid_[settled]) ++settled;
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t* row = evals + j * n;
    std::size_t k = m;
    for (std::size_t d = n; d-- > settled;) {
      row[d] = row_valid_[d] ? row[--k] : sentinel(field_);
    }
  }
}

// Round 2 — cross-check: send node j, for every dealer d, my row's value
// at j's point — matrix_ row j as is; j compares against its own row's
// value at my point (symmetry: F_d(x_me, x_j) = F_d(x_j, x_me)).
void FmCoinInstance::send_cross(Outbox& out, ChannelId ch) {
  for (NodeId j = 0; j < env_.n; ++j) {
    ByteWriter& w = out.writer();
    w.masked_u64_vec(matrix_.data() + std::size_t{j} * env_.n, env_.n,
                     sentinel(field_), value_bits_);
    out.send(j, ch, w.data());
  }
}

void FmCoinInstance::recv_cross(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  std::fill(cross_matches_.begin(), cross_matches_.end(), 0);
  std::uint64_t* vals = scratch_->vals.data();
  for (NodeId j = 0; j < env_.n; ++j) {
    if (payloads[j] == nullptr) continue;
    ByteReader r(*payloads[j]);
    if (!r.masked_u64_vec_into(vals, env_.n, sentinel(field_), value_bits_) ||
        !r.at_end()) {
      continue;
    }
    // A canonical value equal to my evaluation implies my row is valid:
    // invalid dealers' columns hold the (non-canonical) sentinel.
    const std::uint64_t* mine = matrix_.data() + std::size_t{j} * env_.n;
    for (NodeId d = 0; d < env_.n; ++d) {
      cross_matches_[d] += field_.valid(vals[d]) && vals[d] == mine[d];
    }
  }
  for (NodeId d = 0; d < env_.n; ++d) {
    bitword_set(happy_words_.data(), d,
                gvss_happy(env_.n, env_.f, row_valid_[d] != 0,
                           cross_matches_[d]));
  }
}

// Round 3 — decide phase: broadcast my happy votes as a raw ceil(n/8)-byte
// bitmask (bits >= n stay clear; bitword storage keeps them so).
void FmCoinInstance::send_votes(Outbox& out, ChannelId ch) {
  ByteWriter& w = out.writer();
  w.bits(happy_words_.data(), env_.n);
  out.broadcast(ch, w.data());
}

void FmCoinInstance::recv_votes(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  std::fill(scratch_->votes.begin(), scratch_->votes.end(), 0);
  for (NodeId j = 0; j < env_.n; ++j) {
    vote_valid_[j] = 0;
    if (payloads[j] == nullptr) continue;
    ByteReader r(*payloads[j]);
    std::uint64_t* row = voted_words_.data() + std::size_t{j} * words_;
    if (!r.bits_into(row, env_.n) || !r.at_end()) continue;
    vote_valid_[j] = 1;
    for (NodeId d = 0; d < env_.n; ++d) {
      if (bitword_get(row, d)) ++scratch_->votes[d];
    }
  }
  for (NodeId d = 0; d < env_.n; ++d) {
    grades_[d] = gvss_grade(env_.n, env_.f, scratch_->votes[d]);
  }
}

// Round 4 — recover phase: broadcast my share g_d(x_me) = F_d(x_me, 0) of
// every dealing I hold a row for. This is the single round before which
// the adversary cannot predict the coin (Observation 2.1).
void FmCoinInstance::send_shares(Outbox& out, ChannelId ch) {
  ByteWriter& w = out.writer();
  w.masked_u64_vec(zeros_.data(), env_.n, sentinel(field_), value_bits_);
  out.broadcast(ch, w.data());
}

void FmCoinInstance::recv_shares(const Inbox& in, ChannelId ch) {
  const auto payloads = in.first_per_sender(ch);
  // Decode every sender's share vector once, into matrix_ (round 2 was
  // its last reader). Only senders whose shares and votes both decoded
  // count.
  for (NodeId j = 0; j < env_.n; ++j) {
    scratch_->shares_ok[j] = 0;
    if (payloads[j] == nullptr) continue;
    ByteReader r(*payloads[j]);
    if (!r.masked_u64_vec_into(
            matrix_.data() + std::size_t{j} * env_.n, env_.n,
            sentinel(field_), value_bits_) ||
        !r.at_end()) {
      continue;
    }
    scratch_->shares_ok[j] = vote_valid_[j];
  }
  // Only shares from nodes that *voted happy* on d count: a correct happy
  // voter's row is consistent with the unique dealt polynomial, so lies
  // among these points come only from Byzantine senders (<= f), within
  // the Berlekamp-Welch budget.
  std::uint64_t* secrets = scratch_->vals.data();
  gvss_recover_batch(field_, *scratch_->table,
                     matrix_.data(), scratch_->shares_ok.data(),
                     voted_words_.data(), words_, grades_.data(), secrets,
                     scratch_->recover);
  std::uint64_t sum = 0;
  for (NodeId d = 0; d < env_.n; ++d) sum = field_.add(sum, secrets[d]);
  output_bit_ = (sum & 1) != 0;
}

void FmCoinInstance::randomize_state(Rng& rng) {
  // Arbitrary memory corruption: every mutable field gets garbage that is
  // type-valid but semantically arbitrary. (Draw order is load-bearing for
  // replay determinism: dealing, then per dealer row/counters/votes, then
  // the output bit.)
  dealing_.resample(field_, env_.f, rng);
  const std::size_t width = std::size_t{env_.f} + 1;
  std::uint64_t* rows = scratch_->rows.data();
  std::size_t m = 0;
  for (NodeId d = 0; d < env_.n; ++d) {
    row_valid_[d] = 0;
    zeros_[d] = sentinel(field_);
    if (rng.next_bool()) {
      // A random-but-consistent degree-f row, like a fresh Poly::random.
      std::uint64_t* row = rows + m * width;
      for (std::size_t i = 0; i < width; ++i) row[i] = field_.uniform(rng);
      row_valid_[d] = 1;
      zeros_[d] = row[0];
      ++m;
    }
    cross_matches_[d] = static_cast<std::uint32_t>(rng.next_below(env_.n + 1));
    bitword_set(happy_words_.data(), d, rng.next_bool());
    grades_[d] = static_cast<GvssGrade>(rng.next_below(3));
    std::uint64_t* row = voted_words_.data() + std::size_t{d} * words_;
    bitword_clear(row, env_.n);
    for (NodeId j = 0; j < env_.n; ++j) bitword_set(row, j, rng.next_bool());
    vote_valid_[d] = 1;
  }
  evaluate_rows(m);
  output_bit_ = rng.next_bool();
}

CoinSpec fm_coin_spec(FmCoinParams params) {
  CoinSpec spec;
  spec.channels = FmCoinInstance::kRounds;
  // Per-node pipelines and scratch; the shared recover table is immutable.
  spec.node_local = true;
  spec.make = [params](const ProtocolEnv& env, ChannelId base, Rng rng) {
    // One scratch per pipeline: its staggered instances never execute the
    // same round in the same beat, so round-transient state is shareable.
    auto scratch = std::make_shared<FmCoinScratch>();
    CoinInstanceFactory factory = [env, params,
                                   scratch](Rng inst_rng) mutable {
      return std::make_unique<FmCoinInstance>(env, params, inst_rng, scratch);
    };
    return std::make_unique<SsByzCoinFlip>(std::move(factory),
                                           FmCoinInstance::kRounds, base, rng);
  };
  return spec;
}

}  // namespace ssbft
