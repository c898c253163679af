#include "coin/gvss.h"

#include <map>
#include <mutex>
#include <tuple>

#include "support/bitwords.h"
#include "support/check.h"

namespace ssbft {

bool validate_row_raw(const PrimeField& F, std::uint32_t f,
                      const std::uint64_t* coeffs, std::size_t count) {
  if (count != std::size_t{f} + 1) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (!F.valid(coeffs[i])) return false;
  }
  return true;
}

std::optional<Poly> validate_row(const PrimeField& F, std::uint32_t f,
                                 const std::vector<std::uint64_t>& coeffs) {
  if (!validate_row_raw(F, f, coeffs.data(), coeffs.size())) {
    return std::nullopt;
  }
  return Poly(coeffs);
}

bool gvss_happy(std::uint32_t n, std::uint32_t f, bool row_valid,
                std::uint32_t cross_matches) {
  return row_valid && cross_matches >= n - f;
}

GvssGrade gvss_grade(std::uint32_t n, std::uint32_t f, std::uint32_t votes) {
  if (votes >= n - f) return GvssGrade::kHigh;
  if (votes >= n - 2 * f) return GvssGrade::kLow;
  return GvssGrade::kNone;
}

void GvssRecoverTable::init(const PrimeField& F, std::uint32_t n,
                            std::uint32_t f) {
  SSBFT_REQUIRE_MSG(n > f, "recover table needs n > f");
  n_ = n;
  f_ = f;
  modulus_ = F.modulus();
  const std::size_t m = std::size_t{f} + 1;  // prefix subset {1..f+1}
  // Denominators d_i = prod_{j != i} (x_i - x_j), x = 1..f+1, inverted in
  // one batch pass.
  SSBFT_REQUIRE_MSG(F.modulus() > n, "recover table needs modulus > n");
  std::vector<std::uint64_t> denom(m, 1), scratch(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      denom[i] = F.mul(denom[i], F.sub(i + 1, j + 1));
    }
  }
  F.batch_inv(denom.data(), m, scratch.data());
  // L_i(x) = d_i^-1 * prod_{j != i} (x - x_j), tabulated at x = 0 and at
  // every non-prefix node point f+2..n.
  auto fill_row = [&](std::uint64_t x, std::uint64_t* out) {
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t num = 1;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == i) continue;
        num = F.mul(num, F.sub(x, j + 1));
      }
      out[i] = F.mul(num, denom[i]);
    }
  };
  zero_row_.assign(m, 0);
  fill_row(0, zero_row_.data());
  const std::size_t targets = n - f - 1;
  target_rows_.assign(targets * m, 0);
  for (std::size_t t = 0; t < targets; ++t) {
    fill_row(f + 2 + t, target_rows_.data() + t * m);
  }
}

std::shared_ptr<const GvssRecoverTable> GvssRecoverTable::shared(
    const PrimeField& F, std::uint32_t n, std::uint32_t f) {
  // Weak entries: a shape's table lives exactly as long as some pipeline
  // holds it, and concurrent sweep workers of one shape share one copy.
  static std::mutex mu;
  static std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>,
                  std::weak_ptr<const GvssRecoverTable>>
      cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{F.modulus(), n, f}];
  std::shared_ptr<const GvssRecoverTable> table = slot.lock();
  if (table == nullptr) {
    table = std::make_shared<const GvssRecoverTable>(F, n, f);
    slot = table;
  }
  return table;
}

namespace {

// True iff the first f+1 shares are exactly the canonical prefix 1..f+1 and
// every later share's x is a tabulated node point — the steady-state shape.
bool table_applies(const GvssRecoverTable* table, const PrimeField& F,
                   std::uint32_t f, const std::vector<RsPoint>& shares) {
  if (table == nullptr || !table->ready()) return false;
  if (table->f() != f || table->modulus() != F.modulus()) return false;
  for (std::size_t i = 0; i <= f; ++i) {
    if (shares[i].x != i + 1) return false;
  }
  for (std::size_t k = std::size_t{f} + 1; k < shares.size(); ++k) {
    if (shares[k].x < std::uint64_t{f} + 2 || shares[k].x > table->n()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> gvss_recover(const PrimeField& F, std::uint32_t f,
                                          const std::vector<RsPoint>& shares,
                                          const GvssRecoverTable* table,
                                          std::uint64_t* ys) {
  const int deg = static_cast<int>(f);
  if (shares.size() < std::size_t{f} + 1) return std::nullopt;
  // Fast path: the first f+1 shares define a candidate; if *every* share
  // agrees it is the unique degree-f codeword (zero errors).
  if (table_applies(table, F, f, shares)) {
    // Candidate values at the remaining share points come straight from
    // the precomputed Lagrange rows, each a 1 x m x 1 matmul of a table row
    // and the prefix values, staged flat once for the kernel.
    const std::size_t m = std::size_t{f} + 1;
    std::vector<std::uint64_t> local;
    if (ys == nullptr) {
      local.resize(m);
      ys = local.data();
    }
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].y;
    std::uint64_t v = 0;
    bool clean = true;
    for (std::size_t k = m; k < shares.size(); ++k) {
      F.matmul(table->target_row(shares[k].x), ys, &v, 1, m, 1);
      if (v != shares[k].y) {
        clean = false;
        break;
      }
    }
    if (clean) {
      F.matmul(table->zero_row(), ys, &v, 1, m, 1);
      return v;
    }
  } else {
    std::vector<std::uint64_t> xs, ys;
    xs.reserve(f + 1);
    ys.reserve(f + 1);
    for (std::size_t i = 0; i <= f; ++i) {
      xs.push_back(shares[i].x);
      ys.push_back(shares[i].y);
    }
    const Poly cand = lagrange_interpolate(F, xs, ys);
    if (cand.degree() <= deg && count_disagreements(F, cand, shares) == 0) {
      return cand.eval(F, 0);
    }
  }
  auto decoded = berlekamp_welch(F, shares, deg, static_cast<int>(f));
  if (!decoded) return std::nullopt;
  return decoded->eval(F, 0);
}

void GvssBatchScratch::resize(std::uint32_t n, std::uint32_t f) {
  const std::size_t w = std::size_t{f} + 1;
  senders.clear();
  senders.reserve(n);
  dealers.clear();
  dealers.reserve(n);
  batched.assign(n, 0);
  block.assign(w * n, 0);
  row.assign(n, 0);
  pts.clear();
  pts.reserve(n);
  ys.assign(w, 0);
}

void gvss_recover_batch(const PrimeField& F, const GvssRecoverTable& table,
                        const std::uint64_t* shares,
                        const std::uint8_t* sender_ok,
                        const std::uint64_t* votes, std::size_t words,
                        const GvssGrade* grades, std::uint64_t* secrets,
                        GvssBatchScratch& scratch) {
  const std::uint32_t n = table.n();
  const std::uint32_t f = table.f();
  const std::size_t w = std::size_t{f} + 1;
  auto& senders = scratch.senders;
  auto& dealers = scratch.dealers;
  auto& batched = scratch.batched;
  senders.clear();
  for (NodeId j = 0; j < n; ++j) {
    if (sender_ok[j]) senders.push_back(j);
  }
  // Senders are ascending and distinct, so 0..f all count iff the
  // (f+1)-th counted sender is f.
  const bool prefix = senders.size() >= w && senders[f] == f;
  for (NodeId d = 0; d < n; ++d) {
    batched[d] = prefix && grades[d] != GvssGrade::kNone;
  }
  if (prefix) {
    for (const NodeId j : senders) {
      const std::uint64_t* vrow = votes + std::size_t{j} * words;
      const std::uint64_t* srow = shares + std::size_t{j} * n;
      for (NodeId d = 0; d < n; ++d) {
        batched[d] &= static_cast<std::uint8_t>(bitword_get(vrow, d) &&
                                                F.valid(srow[d]));
      }
    }
  }
  dealers.clear();
  for (NodeId d = 0; d < n; ++d) {
    if (batched[d]) dealers.push_back(d);
  }
  const std::size_t m = dealers.size();
  if (m > 0) {
    std::uint64_t* block = scratch.block.data();
    std::uint64_t* row = scratch.row.data();
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t b = 0; b < m; ++b) {
        block[i * m + b] = shares[i * n + dealers[b]];
      }
    }
    for (std::size_t t = w; t < senders.size(); ++t) {
      const NodeId j = senders[t];
      F.matmul(table.target_row(node_point(j)), block, row, 1, w, m);
      const std::uint64_t* srow = shares + std::size_t{j} * n;
      for (std::size_t b = 0; b < m; ++b) {
        if (row[b] != srow[dealers[b]]) batched[dealers[b]] = 0;
      }
    }
    F.matmul(table.zero_row(), block, row, 1, w, m);
    for (std::size_t b = 0; b < m; ++b) {
      if (batched[dealers[b]]) secrets[dealers[b]] = row[b];
    }
  }
  for (NodeId d = 0; d < n; ++d) {
    if (grades[d] == GvssGrade::kNone) {
      secrets[d] = 0;
      continue;
    }
    if (batched[d]) continue;
    scratch.pts.clear();
    for (const NodeId j : senders) {
      if (!bitword_get(votes + std::size_t{j} * words, d)) continue;
      const std::uint64_t y = shares[std::size_t{j} * n + d];
      if (!F.valid(y)) continue;
      scratch.pts.push_back(RsPoint{node_point(j), y});
    }
    // Unrecoverable dealings (necessarily from a faulty dealer) contribute
    // the canonical value 0, identically at every node that fails.
    secrets[d] = gvss_recover(F, f, scratch.pts, &table, scratch.ys.data())
                     .value_or(0);
  }
}

GvssDealing GvssDealing::sample(const PrimeField& F, std::uint32_t f,
                                Rng& rng) {
  GvssDealing d{SymmetricBivariate{}};
  d.resample(F, f, rng);
  return d;
}

void GvssDealing::resample(const PrimeField& F, std::uint32_t f, Rng& rng) {
  const std::uint64_t secret = F.uniform(rng);
  poly_.resample(F, static_cast<int>(f), secret, rng);
}

std::vector<std::uint64_t> GvssDealing::row_for(const PrimeField& F,
                                                NodeId to) const {
  std::vector<std::uint64_t> coeffs(static_cast<std::size_t>(poly_.degree()) + 1,
                                    0);
  poly_.row_into(F, node_point(to), coeffs.data());
  return coeffs;
}

void GvssDealing::rows_into(const PrimeField& F, std::uint32_t n,
                            std::uint64_t* out) const {
  // node_point(j) = j + 1: the node points are eval_points' x = 1..n.
  poly_.rows_into(F, n, out);
}

}  // namespace ssbft
