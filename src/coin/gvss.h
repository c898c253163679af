// Graded verifiable secret sharing building blocks (Observation 2.1).
//
// The Feldman-Micali common coin rests on a GVSS with three logical phases:
// share, decide (grade), recover. This header provides the per-dealing
// machinery, decoupled from message transport so it is directly unit- and
// property-testable:
//
//   * dealing: symmetric bivariate sampling + row extraction;
//   * row validation of untrusted dealer payloads;
//   * cross-check counting and the happy predicate;
//   * grades from vote counts (>= n-f -> 2, >= n-2f -> 1, else 0);
//   * error-correcting recovery of the dealt secret (fast path: clean
//     interpolation; slow path: Berlekamp-Welch).
//
// Key facts used by the coin (proved in the VSS literature, exercised by
// tests/gvss_test.cpp):
//   - a correct dealer's dealing gets grade 2 at every correct node, and
//     its secret is recovered by everyone (n >= 3f+1 gives the RS decoder
//     budget, see reed_solomon.h);
//   - if any correct node grades a dealing 2, every correct node grades it
//     >= 1 (n-f votes minus f Byzantine still clears n-2f);
//   - f rows reveal nothing about the secret before the recover phase
//     (degree-f secrecy) — the unpredictability property.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "field/bivariate.h"
#include "field/fp.h"
#include "field/poly.h"
#include "field/reed_solomon.h"
#include "support/rng.h"
#include "support/types.h"

namespace ssbft {

// Field point assigned to node id (must be nonzero and distinct).
inline std::uint64_t node_point(NodeId id) { return std::uint64_t{id} + 1; }

// Grades per Definition/use in Observation 2.1.
enum class GvssGrade : std::uint8_t { kNone = 0, kLow = 1, kHigh = 2 };

// Row-validity rule for untrusted dealer payloads, over raw storage: true
// iff exactly f+1 coefficients, all canonical. The single source of truth
// — validate_row and the coin's non-allocating decode path both call it.
bool validate_row_raw(const PrimeField& F, std::uint32_t f,
                      const std::uint64_t* coeffs, std::size_t count);

// Validates an untrusted row polynomial payload: every coefficient
// canonical and degree <= f. Returns nullopt on any violation.
std::optional<Poly> validate_row(const PrimeField& F, std::uint32_t f,
                                 const std::vector<std::uint64_t>& coeffs);

// Happy predicate: the node holds a valid row and at least n-f nodes'
// cross values matched it (matches includes the node itself).
bool gvss_happy(std::uint32_t n, std::uint32_t f, bool row_valid,
                std::uint32_t cross_matches);

// Grade from the number of distinct nodes that voted happy.
GvssGrade gvss_grade(std::uint32_t n, std::uint32_t f, std::uint32_t votes);

// Precomputed Lagrange tables for the recovery fast path over the fixed
// node points 1..n, built once per (field, n, f) and immutable afterwards
// (GvssRecoverTable::shared hands one copy to every coin pipeline of a
// shape). Rows of a dealing and evaluations at the node points need no
// table: PrimeField::eval_points runs Horner at x = 1..n directly.
//
// The tables carry, for the canonical prefix subset {node_point(0..f)} =
// {1..f+1}, the basis coefficients L_i(x) of the degree-f interpolant at
// every other node point and at 0. When the first f+1 shares handed to
// gvss_recover are exactly that prefix (the steady state: correct low-id
// senders are present every beat), candidate evaluation is a 1 x (f+1) x 1
// PrimeField::matmul of a table row and the prefix shares — no inversion.
// Other subsets fall back to a generic batch-inverted path.
class GvssRecoverTable {
 public:
  GvssRecoverTable() = default;
  GvssRecoverTable(const PrimeField& F, std::uint32_t n, std::uint32_t f) {
    init(F, n, f);
  }

  // Builds (or rebuilds) the tables. One batch inversion, O(n * f) space.
  void init(const PrimeField& F, std::uint32_t n, std::uint32_t f);

  // One table per (modulus, n, f), shared process-wide while anyone holds
  // it (thread-safe; a cache lookup, so call it at set-up, not per beat).
  static std::shared_ptr<const GvssRecoverTable> shared(const PrimeField& F,
                                                        std::uint32_t n,
                                                        std::uint32_t f);

  bool ready() const { return n_ != 0; }
  std::uint32_t n() const { return n_; }
  std::uint32_t f() const { return f_; }
  std::uint64_t modulus() const { return modulus_; }

  // L_i(0) for i <= f (f+1 entries).
  const std::uint64_t* zero_row() const { return zero_row_.data(); }
  // L_i(point) for point in [f+2, n]: row (point - f - 2), f+1 entries.
  const std::uint64_t* target_row(std::uint64_t point) const {
    return target_rows_.data() +
           static_cast<std::size_t>(point - f_ - 2) * (f_ + 1);
  }
 private:
  std::uint32_t n_ = 0;
  std::uint32_t f_ = 0;
  std::uint64_t modulus_ = 0;
  std::vector<std::uint64_t> zero_row_;
  std::vector<std::uint64_t> target_rows_;  // (n - f - 1) rows x (f+1)
};

// Recovers the dealt secret g(0) from shares g(node_point(j)) where
// g(x) = F(x, 0) has degree <= f and at most `f` of the points lie. Fast
// path: if the first f+1 points interpolate a polynomial consistent with
// every point, that is the unique codeword. Otherwise full Berlekamp-Welch.
// Returns nullopt when decoding is impossible (an inevitably faulty
// dealing); callers map that to the canonical secret 0 so all correct nodes
// that fail, fail identically.
//
// When `table` is provided (ready, same field/f) and the shares' first f+1
// x's are the canonical prefix 1..f+1, the fast path runs entirely out of
// the precomputed tables; it stages the prefix values in `ys` (f+1
// entries) and allocates nothing, or in a local vector when `ys` is null.
// All paths compute the same field elements, so results are bit-identical
// with or without a table.
std::optional<std::uint64_t> gvss_recover(const PrimeField& F, std::uint32_t f,
                                          const std::vector<RsPoint>& shares,
                                          const GvssRecoverTable* table = nullptr,
                                          std::uint64_t* ys = nullptr);

// Working storage of gvss_recover_batch, sized from (n, f) by resize() and
// reused, so a warm call allocates nothing.
struct GvssBatchScratch {
  void resize(std::uint32_t n, std::uint32_t f);

  std::vector<std::uint32_t> senders;  // senders whose shares count, ascending
  std::vector<std::uint32_t> dealers;  // dealers recovered in the batch
  std::vector<std::uint8_t> batched;   // per dealer: batch candidate
  std::vector<std::uint64_t> block;    // (f+1) x n: prefix shares, dealer columns
  std::vector<std::uint64_t> row;      // n: one Lagrange row times the block
  std::vector<RsPoint> pts;            // n: one dealer's point set
  std::vector<std::uint64_t> ys;       // f+1: gvss_recover's staging buffer
};

// Recovers the secret of every dealer d graded >= kLow from one round of
// share vectors, writing secrets[d] (0 for the other dealers). The result
// equals, dealer by dealer, gvss_recover(F, f, pts_d, &table).value_or(0)
// where pts_d holds (node_point(j), shares[j*n + d]) in ascending j over
// the senders j with sender_ok[j], bit d set in their vote row
// votes[j*words ...] and a canonical share.
//
// The batch: when senders 0..f all count, every graded dealer that all
// counted senders voted for with canonical shares has the same point set,
// starting with the table's canonical prefix. Their prefix shares form one
// (f+1) x m block; each further sender's Lagrange row times the block is
// checked against that sender's shares, and the zero row times the block
// gives the secrets. A dealer outside the batch, or one that fails a
// check, takes the per-dealer gvss_recover (fast path, then
// Berlekamp-Welch).
void gvss_recover_batch(const PrimeField& F, const GvssRecoverTable& table,
                        const std::uint64_t* shares,
                        const std::uint8_t* sender_ok,
                        const std::uint64_t* votes, std::size_t words,
                        const GvssGrade* grades, std::uint64_t* secrets,
                        GvssBatchScratch& scratch);

// One dealer's side of the share phase.
class GvssDealing {
 public:
  // Samples a dealing of a uniform secret (degree f in each variable).
  static GvssDealing sample(const PrimeField& F, std::uint32_t f, Rng& rng);

  // Re-deals in place with the same draw sequence as sample(), reusing the
  // coefficient storage (no allocation once warm).
  void resample(const PrimeField& F, std::uint32_t f, Rng& rng);

  // Row polynomial for node `to` (degree <= f, f+1 coefficients).
  std::vector<std::uint64_t> row_for(const PrimeField& F, NodeId to) const;

  // Every node's row at once: row j of out (n x (f+1)) is row_for(F, j),
  // one PrimeField::eval_points call at the node points 1..n.
  void rows_into(const PrimeField& F, std::uint32_t n,
                 std::uint64_t* out) const;

  std::uint64_t secret() const { return poly_.secret(); }
  const SymmetricBivariate& bivariate() const { return poly_; }

 private:
  explicit GvssDealing(SymmetricBivariate p) : poly_(std::move(p)) {}
  SymmetricBivariate poly_;
};

}  // namespace ssbft
