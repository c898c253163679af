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
  // f_x0(y) = sum_j (sum_i x0^i c_ij) y^j, the inner sum by Horner.
  for (int j = 0; j <= deg_; ++j) {
    std::uint64_t acc = at(deg_, j);
    for (int i = deg_; i-- > 0;) acc = F.add(F.mul(acc, x0), at(i, j));
    out[j] = acc;
  }
}

void SymmetricBivariate::rows_into(const PrimeField& F, std::size_t count,
                                   std::uint64_t* out) const {
  SSBFT_REQUIRE_MSG(deg_ >= 0, "rows of an empty bivariate");
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  F.eval_points(c_.data(), w, w, count, out, w);
}

}  // namespace ssbft
