#include "field/bivariate.h"

#include "support/check.h"

namespace ssbft {

SymmetricBivariate SymmetricBivariate::sample(const PrimeField& F, int deg,
                                              std::uint64_t secret, Rng& rng) {
  SymmetricBivariate p;
  p.resample(F, deg, secret, rng);
  return p;
}

void SymmetricBivariate::resample(const PrimeField& F, int deg,
                                  std::uint64_t secret, Rng& rng) {
  SSBFT_REQUIRE(deg >= 0 && F.valid(secret));
  const std::size_t w = static_cast<std::size_t>(deg) + 1;
  deg_ = deg;
  c_.assign(w * w, 0);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i; j < w; ++j) {
      const std::uint64_t v = (i == 0 && j == 0) ? secret : F.uniform(rng);
      c_[i * w + j] = v;
      c_[j * w + i] = v;
    }
  }
}

std::uint64_t SymmetricBivariate::eval(const PrimeField& F, std::uint64_t x,
                                       std::uint64_t y) const {
  return row(F, x).eval(F, y);
}

Poly SymmetricBivariate::row(const PrimeField& F, std::uint64_t x0) const {
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  std::vector<std::uint64_t> out(w, 0);
  row_into(F, x0, out.data());
  return Poly(std::move(out));
}

void SymmetricBivariate::row_into(const PrimeField& F, std::uint64_t x0,
                                  std::uint64_t* out) const {
  SSBFT_REQUIRE_MSG(deg_ >= 0, "row of an empty bivariate");
  std::vector<std::uint64_t> powers(static_cast<std::size_t>(deg_) + 1);
  std::uint64_t xp = 1;
  for (auto& p : powers) {
    p = xp;
    xp = F.mul(xp, x0);
  }
  rows_into(F, powers.data(), 1, out);
}

void SymmetricBivariate::rows_into(const PrimeField& F,
                                   const std::uint64_t* powers,
                                   std::size_t count,
                                   std::uint64_t* out) const {
  SSBFT_REQUIRE_MSG(deg_ >= 0, "rows of an empty bivariate");
  // f_x(y) = sum_j (sum_i x^i c_ij) y^j: row k of the product is point k's
  // coefficient vector.
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  F.matmul(powers, c_.data(), out, count, w, w);
}

}  // namespace ssbft
