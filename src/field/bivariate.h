// Symmetric bivariate polynomials over Z_p — the dealing object of the
// graded verifiable secret sharing scheme.
//
// A dealer hiding secret s samples F(x,y) = sum_{i,j<=f} c_ij x^i y^j with
// c_ij = c_ji uniform and F(0,0) = s, and gives node i the row polynomial
// f_i(y) = F(i, y). Symmetry gives the pairwise cross-check
// f_i(j) = F(i,j) = F(j,i) = f_j(i); any f rows reveal nothing about s
// (degree-f secrecy in each variable).
#pragma once

#include <cstdint>
#include <vector>

#include "field/fp.h"
#include "field/poly.h"
#include "support/rng.h"

namespace ssbft {

class SymmetricBivariate {
 public:
  // Empty (degree -1) until resample() fills it. Exists so long-lived
  // holders can re-deal in place without reallocating coefficients.
  SymmetricBivariate() = default;

  // Uniformly random symmetric F with degree <= deg in each variable and
  // F(0,0) = secret.
  static SymmetricBivariate sample(const PrimeField& F, int deg,
                                   std::uint64_t secret, Rng& rng);

  // Re-deals in place: same draws as sample(), but the coefficient storage
  // is reused, so re-dealing a warm object performs no allocation.
  void resample(const PrimeField& F, int deg, std::uint64_t secret, Rng& rng);

  int degree() const { return deg_; }

  // F(x, y).
  std::uint64_t eval(const PrimeField& F, std::uint64_t x,
                     std::uint64_t y) const;

  // Row polynomial f_x0(y) = F(x0, y), as a univariate in y.
  Poly row(const PrimeField& F, std::uint64_t x0) const;

  // Writes the row's deg+1 coefficients (little-endian in y) into caller
  // storage, for any canonical x0 (Horner per coefficient, no allocation).
  void row_into(const PrimeField& F, std::uint64_t x0,
                std::uint64_t* out) const;

  // The rows of the points x = 1..count at once: row k of out
  // (count x (deg+1)) is F(k+1, y). By symmetry, column j of the
  // coefficient matrix is the polynomial sum_i c_ij x^i, so this is one
  // PrimeField::eval_points call; no allocation.
  void rows_into(const PrimeField& F, std::size_t count,
                 std::uint64_t* out) const;

  // The shared secret F(0,0).
  std::uint64_t secret() const { return at(0, 0); }

 private:
  std::uint64_t at(int i, int j) const {
    return c_[static_cast<std::size_t>(i) * static_cast<std::size_t>(deg_ + 1) +
              static_cast<std::size_t>(j)];
  }

  int deg_ = -1;
  std::vector<std::uint64_t> c_;  // (deg+1)^2 coefficients, c[i][j] = c[j][i]
};

}  // namespace ssbft
