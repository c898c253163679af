// Univariate polynomials over Z_p.
//
// Coefficient vectors are little-endian (coeffs[i] multiplies x^i). The zero
// polynomial is the empty vector; degree() of zero is -1 by convention.
#pragma once

#include <cstdint>
#include <vector>

#include "field/fp.h"
#include "support/rng.h"

namespace ssbft {

class Poly {
 public:
  Poly() = default;
  explicit Poly(std::vector<std::uint64_t> coeffs);

  // A uniformly random polynomial of degree <= deg.
  static Poly random(const PrimeField& F, int deg, Rng& rng);

  // -1 for the zero polynomial.
  int degree() const;
  const std::vector<std::uint64_t>& coeffs() const { return coeffs_; }
  std::uint64_t coeff(std::size_t i) const {
    return i < coeffs_.size() ? coeffs_[i] : 0;
  }
  bool is_zero() const;

  std::uint64_t eval(const PrimeField& F, std::uint64_t x) const;

  Poly add(const PrimeField& F, const Poly& o) const;
  Poly sub(const PrimeField& F, const Poly& o) const;
  Poly mul(const PrimeField& F, const Poly& o) const;
  Poly scale(const PrimeField& F, std::uint64_t c) const;

  // Polynomial division: *this = q * divisor + r. divisor must be nonzero.
  // Returns {q, r}.
  std::pair<Poly, Poly> divmod(const PrimeField& F, const Poly& divisor) const;

  // Drops trailing zero coefficients (canonical form).
  void normalize();

  bool operator==(const Poly& o) const { return coeffs_ == o.coeffs_; }

 private:
  std::vector<std::uint64_t> coeffs_;
};

// Unique polynomial of degree < points.size() through the given points.
// The xs must be distinct canonical field elements. Internally builds the
// master polynomial prod(x - xs[j]) once, peels off each node's basis by
// synthetic division, and inverts all denominators with a single batch
// inversion — O(m^2) multiplications and exactly one field inversion.
Poly lagrange_interpolate(const PrimeField& F,
                          const std::vector<std::uint64_t>& xs,
                          const std::vector<std::uint64_t>& ys);

}  // namespace ssbft
