#include "field/poly.h"

#include <algorithm>

#include "support/check.h"

namespace ssbft {

Poly::Poly(std::vector<std::uint64_t> coeffs) : coeffs_(std::move(coeffs)) {
  normalize();
}

Poly Poly::random(const PrimeField& F, int deg, Rng& rng) {
  SSBFT_REQUIRE(deg >= 0);
  std::vector<std::uint64_t> c(static_cast<std::size_t>(deg) + 1);
  for (auto& x : c) x = F.uniform(rng);
  return Poly(std::move(c));
}

int Poly::degree() const { return static_cast<int>(coeffs_.size()) - 1; }

bool Poly::is_zero() const { return coeffs_.empty(); }

void Poly::normalize() {
  while (!coeffs_.empty() && coeffs_.back() == 0) coeffs_.pop_back();
}

std::uint64_t Poly::eval(const PrimeField& F, std::uint64_t x) const {
  // Checked Horner: a Poly built from unvalidated coefficients must fail
  // the field contract loudly, not fold garbage. Hot paths evaluate
  // already-validated flat storage with F.matmul instead.
  std::uint64_t acc = 0;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = F.add(F.mul(acc, x), coeffs_[i]);
  }
  return acc;
}

Poly Poly::add(const PrimeField& F, const Poly& o) const {
  std::vector<std::uint64_t> c(std::max(coeffs_.size(), o.coeffs_.size()));
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = F.add(coeff(i), o.coeff(i));
  return Poly(std::move(c));
}

Poly Poly::sub(const PrimeField& F, const Poly& o) const {
  std::vector<std::uint64_t> c(std::max(coeffs_.size(), o.coeffs_.size()), 0);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = F.sub(coeff(i), o.coeff(i));
  return Poly(std::move(c));
}

Poly Poly::mul(const PrimeField& F, const Poly& o) const {
  if (is_zero() || o.is_zero()) return Poly();
  std::vector<std::uint64_t> c(coeffs_.size() + o.coeffs_.size() - 1, 0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i] == 0) continue;
    for (std::size_t j = 0; j < o.coeffs_.size(); ++j) {
      c[i + j] = F.add(c[i + j], F.mul(coeffs_[i], o.coeffs_[j]));
    }
  }
  return Poly(std::move(c));
}

Poly Poly::scale(const PrimeField& F, std::uint64_t c) const {
  std::vector<std::uint64_t> out(coeffs_.size());
  for (std::size_t i = 0; i < coeffs_.size(); ++i) out[i] = F.mul(coeffs_[i], c);
  return Poly(std::move(out));
}

std::pair<Poly, Poly> Poly::divmod(const PrimeField& F, const Poly& divisor) const {
  SSBFT_REQUIRE_MSG(!divisor.is_zero(), "polynomial division by zero");
  const int dd = divisor.degree();
  if (degree() < dd) {
    // Quotient is zero and the remainder is the dividend itself; skip the
    // leading-coefficient inversion and the elimination loop entirely.
    return {Poly(), *this};
  }
  std::vector<std::uint64_t> rem = coeffs_;
  const std::uint64_t lead_inv = F.inv(divisor.coeffs_.back());
  std::vector<std::uint64_t> quot(static_cast<std::size_t>(degree() - dd) + 1, 0);
  for (int i = degree(); i >= dd; --i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (rem[ui] == 0) continue;
    const std::uint64_t q = F.mul(rem[ui], lead_inv);
    quot[static_cast<std::size_t>(i - dd)] = q;
    F.submul_vec(rem.data() + (i - dd), divisor.coeffs_.data(), q,
                 static_cast<std::size_t>(dd) + 1);
  }
  return {Poly(std::move(quot)), Poly(std::move(rem))};
}

Poly lagrange_interpolate(const PrimeField& F,
                          const std::vector<std::uint64_t>& xs,
                          const std::vector<std::uint64_t>& ys) {
  SSBFT_REQUIRE(xs.size() == ys.size() && !xs.empty());
  const std::size_t m = xs.size();
  // Master polynomial M(x) = prod_j (x - xs[j]), built in place.
  std::vector<std::uint64_t> master(m + 1, 0);
  master[0] = 1;
  for (std::size_t j = 0; j < m; ++j) {
    master[j + 1] = master[j];
    for (std::size_t k = j; k >= 1; --k) {
      master[k] = F.sub(master[k - 1], F.mul(xs[j], master[k]));
    }
    master[0] = F.mul(F.neg(xs[j]), master[0]);
  }
  // Denominators prod_{j != i} (xs[i] - xs[j]), inverted all at once.
  std::vector<std::uint64_t> denom(m, 1), scratch(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const std::uint64_t d = F.sub(xs[i], xs[j]);
      SSBFT_REQUIRE_MSG(d != 0, "interpolation nodes must be distinct");
      denom[i] = F.mul(denom[i], d);
    }
  }
  F.batch_inv(denom.data(), m, scratch.data());
  // result = sum_i ys[i]/denom[i] * M(x)/(x - xs[i]); each basis falls out
  // of M by synthetic division.
  std::vector<std::uint64_t> out(m, 0), basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t c = F.mul(ys[i], denom[i]);
    basis[m - 1] = master[m];
    for (std::size_t k = m - 1; k >= 1; --k) {
      basis[k - 1] = F.add(master[k], F.mul(xs[i], basis[k]));
    }
    for (std::size_t k = 0; k < m; ++k) {
      out[k] = F.add(out[k], F.mul(c, basis[k]));
    }
  }
  return Poly(std::move(out));
}

}  // namespace ssbft
