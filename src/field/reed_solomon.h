// Reed-Solomon decoding via the Berlekamp-Welch algorithm.
//
// This is the error-correcting share recovery at the heart of the coin's
// recover phase: with n >= 3f+1 points of which at most f are Byzantine
// lies, the unique degree-<=f dealing polynomial is recovered exactly
// (m points correct e errors for a degree-d polynomial when
//  m >= d + 2e + 1; here d = f, the n - f >= 2f + 1 correct senders plus
//  b lying ones give m >= 2f + 1 + b, and e <= b <= f, so
//  m >= f + 2e + 1 holds).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "field/fp.h"
#include "field/poly.h"

namespace ssbft {

struct RsPoint {
  std::uint64_t x;
  std::uint64_t y;
};

// Decodes the unique polynomial of degree <= degree agreeing with all but at
// most max_errors of the given points (distinct x's). Returns std::nullopt
// if no such polynomial exists. Complexity: O((degree + max_errors)^3) per
// attempted error count, via Gaussian elimination.
std::optional<Poly> berlekamp_welch(const PrimeField& F,
                                    const std::vector<RsPoint>& points,
                                    int degree, int max_errors);

// Convenience: counts how many points disagree with p.
int count_disagreements(const PrimeField& F, const Poly& p,
                        const std::vector<RsPoint>& points);

}  // namespace ssbft
