// Tests for linear algebra mod p and Berlekamp-Welch decoding — the
// error-correcting recovery that lets the coin survive f lying shares.
#include <gtest/gtest.h>

#include <algorithm>

#include "field/matrix.h"
#include "field/poly.h"
#include "field/reed_solomon.h"

namespace ssbft {
namespace {

TEST(Matrix, SolvesIdentitySystem) {
  PrimeField F(101);
  Matrix A(3, 3);
  for (std::size_t i = 0; i < 3; ++i) A.at(i, i) = 1;
  auto x = solve_linear(F, A, {5, 7, 9});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, (std::vector<std::uint64_t>{5, 7, 9}));
}

TEST(Matrix, SolvesGeneralSystem) {
  PrimeField F(101);
  // x + y = 3; 2x + y = 5  ->  x = 2, y = 1.
  Matrix A(2, 2);
  A.at(0, 0) = 1; A.at(0, 1) = 1;
  A.at(1, 0) = 2; A.at(1, 1) = 1;
  auto x = solve_linear(F, A, {3, 5});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], 2u);
  EXPECT_EQ((*x)[1], 1u);
}

TEST(Matrix, DetectsInconsistency) {
  PrimeField F(101);
  // x + y = 1; x + y = 2 is unsatisfiable.
  Matrix A(2, 2);
  A.at(0, 0) = 1; A.at(0, 1) = 1;
  A.at(1, 0) = 1; A.at(1, 1) = 1;
  EXPECT_FALSE(solve_linear(F, A, {1, 2}).has_value());
}

TEST(Matrix, UnderdeterminedPicksASolution) {
  PrimeField F(101);
  // One equation, two unknowns: x + 2y = 7; free variable set to zero.
  Matrix A(1, 2);
  A.at(0, 0) = 1; A.at(0, 1) = 2;
  auto x = solve_linear(F, A, {7});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(F.add((*x)[0], F.mul(2, (*x)[1])), 7u);
}

TEST(Matrix, RandomSolvableSystemsVerify) {
  PrimeField F(2305843009213693951ULL);
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.next_below(8);
    Matrix A(n, n);
    std::vector<std::uint64_t> truth(n);
    for (auto& t : truth) t = F.uniform(rng);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) A.at(i, j) = F.uniform(rng);
    }
    std::vector<std::uint64_t> b(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        b[i] = F.add(b[i], F.mul(A.at(i, j), truth[j]));
      }
    }
    Matrix A_copy = A;
    auto x = solve_linear(F, std::move(A_copy), b);
    ASSERT_TRUE(x.has_value());
    // The found solution satisfies the system (it may differ from `truth`
    // only if A is singular, in which case both satisfy it).
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < n; ++j) {
        acc = F.add(acc, F.mul(A.at(i, j), (*x)[j]));
      }
      EXPECT_EQ(acc, b[i]);
    }
  }
}

// ---- Berlekamp-Welch ------------------------------------------------------

struct BwParam {
  int degree;
  int points;
  int errors;
};

class BerlekampWelchTest : public ::testing::TestWithParam<BwParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BerlekampWelchTest,
    ::testing::Values(BwParam{1, 4, 1},    // n=4, f=1 share recovery shape
                      BwParam{2, 7, 2},    // n=7, f=2
                      BwParam{3, 10, 3},   // n=10, f=3
                      BwParam{4, 13, 4},   // n=13, f=4
                      BwParam{1, 9, 3},    // slack: more points than needed
                      BwParam{5, 16, 5},
                      BwParam{0, 3, 1}));  // constant polynomial

TEST_P(BerlekampWelchTest, RecoversUnderMaximalCorruption) {
  const auto [degree, points, errors] = GetParam();
  PrimeField F(2305843009213693951ULL);
  Rng rng(static_cast<std::uint64_t>(degree * 1000 + points * 10 + errors));
  for (int trial = 0; trial < 20; ++trial) {
    Poly truth = Poly::random(F, degree, rng);
    std::vector<RsPoint> pts;
    for (int i = 0; i < points; ++i) {
      pts.push_back({static_cast<std::uint64_t>(i + 1),
                     truth.eval(F, static_cast<std::uint64_t>(i + 1))});
    }
    // Corrupt `errors` distinct points with fresh random values.
    std::vector<std::size_t> idx(pts.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (int e = 0; e < errors; ++e) {
      const std::size_t pick = e + rng.next_below(idx.size() - e);
      std::swap(idx[e], idx[pick]);
      pts[idx[e]].y = F.add(pts[idx[e]].y, F.uniform_nonzero(rng));
    }
    auto decoded = berlekamp_welch(F, pts, degree, errors);
    ASSERT_TRUE(decoded.has_value())
        << "deg=" << degree << " pts=" << points << " err=" << errors;
    EXPECT_EQ(*decoded, truth);
  }
}

TEST(BerlekampWelch, CleanPointsDecodeWithZeroErrors) {
  PrimeField F(101);
  Poly truth({7, 3, 1});
  std::vector<RsPoint> pts;
  for (std::uint64_t x = 1; x <= 6; ++x) pts.push_back({x, truth.eval(F, x)});
  auto decoded = berlekamp_welch(F, pts, 2, 2);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, truth);
}

TEST(BerlekampWelch, TooFewPointsFails) {
  PrimeField F(101);
  std::vector<RsPoint> pts = {{1, 5}, {2, 7}};
  EXPECT_FALSE(berlekamp_welch(F, pts, 2, 0).has_value());
}

TEST(BerlekampWelch, BeyondBudgetCorruptionIsNotSilentlyWrong) {
  // With errors above the correctable bound the decoder may fail, but if
  // it returns a polynomial it must disagree with at most max_errors
  // points (i.e. it never fabricates an inconsistent answer).
  PrimeField F(2305843009213693951ULL);
  Rng rng(99);
  Poly truth = Poly::random(F, 2, rng);
  std::vector<RsPoint> pts;
  for (std::uint64_t x = 1; x <= 7; ++x) pts.push_back({x, truth.eval(F, x)});
  for (int i = 0; i < 4; ++i) pts[static_cast<std::size_t>(i)].y = F.uniform(rng);
  auto decoded = berlekamp_welch(F, pts, 2, 2);
  if (decoded.has_value()) {
    EXPECT_LE(count_disagreements(F, *decoded, pts), 2);
  }
}

TEST(BerlekampWelch, CountDisagreements) {
  PrimeField F(101);
  Poly p({1, 1});  // 1 + x
  std::vector<RsPoint> pts = {{1, 2}, {2, 3}, {3, 5}};
  EXPECT_EQ(count_disagreements(F, p, pts), 1);
}

}  // namespace
}  // namespace ssbft
