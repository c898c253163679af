// Tests for prime-field arithmetic, primality, polynomials and
// interpolation — the algebra underneath the GVSS coin.
#include <gtest/gtest.h>

#include "field/fp.h"
#include "field/fp_simd.h"
#include "field/poly.h"
#include "field/primes.h"
#include "support/avx2.h"
#include "support/check.h"

namespace ssbft {
namespace {

TEST(Primes, KnownSmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(5));
  EXPECT_FALSE(is_prime_u64(1001));  // 7 * 11 * 13
  EXPECT_TRUE(is_prime_u64(1009));
}

TEST(Primes, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests; Miller-Rabin must not be fooled.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 2465ULL, 294409ULL}) {
    EXPECT_FALSE(is_prime_u64(c)) << c;
  }
}

TEST(Primes, LargeKnownValues) {
  EXPECT_TRUE(is_prime_u64(2305843009213693951ULL));   // 2^61 - 1 (Mersenne)
  EXPECT_FALSE(is_prime_u64(2305843009213693953ULL));  // 2^61 + 1 = 3*715827883*...
  EXPECT_TRUE(is_prime_u64(18446744073709551557ULL));  // largest 64-bit prime
}

TEST(PrimeField, RejectsComposite) {
  EXPECT_THROW(PrimeField(10), contract_error);
  EXPECT_THROW(PrimeField(1), contract_error);
}

class FieldLawsTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Moduli, FieldLawsTest,
                         ::testing::Values(5ULL, 101ULL, 65537ULL,
                                           2305843009213693951ULL));

TEST_P(FieldLawsTest, RingAxiomsOnRandomElements) {
  PrimeField F(GetParam());
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = F.uniform(rng), b = F.uniform(rng), c = F.uniform(rng);
    EXPECT_EQ(F.add(a, b), F.add(b, a));
    EXPECT_EQ(F.mul(a, b), F.mul(b, a));
    EXPECT_EQ(F.add(F.add(a, b), c), F.add(a, F.add(b, c)));
    EXPECT_EQ(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)));
    EXPECT_EQ(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)));
    EXPECT_EQ(F.add(a, F.neg(a)), 0u);
    EXPECT_EQ(F.sub(a, b), F.add(a, F.neg(b)));
  }
}

TEST_P(FieldLawsTest, InverseIsTotalOnNonzero) {
  PrimeField F(GetParam());
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 100; ++i) {
    const auto a = F.uniform_nonzero(rng);
    EXPECT_EQ(F.mul(a, F.inv(a)), 1u);
  }
  EXPECT_THROW(F.inv(0), contract_error);
}

TEST_P(FieldLawsTest, PowMatchesRepeatedMultiplication) {
  PrimeField F(GetParam());
  Rng rng(GetParam() + 2);
  const auto a = F.uniform(rng);
  std::uint64_t acc = 1 % F.modulus();
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(F.pow(a, e), acc);
    acc = F.mul(acc, a);
  }
}

TEST_P(FieldLawsTest, FermatLittleTheorem) {
  PrimeField F(GetParam());
  Rng rng(GetParam() + 3);
  for (int i = 0; i < 20; ++i) {
    const auto a = F.uniform_nonzero(rng);
    EXPECT_EQ(F.pow(a, F.modulus() - 1), 1u);
  }
}

// --- Mersenne-61 fast path vs the generic reference -------------------------
//
// PrimeField dispatches to shift/add folding exactly when p = 2^61 - 1; the
// reference below is the generic backend's formula, computed inline so the
// two cannot share a code path.

constexpr std::uint64_t kM61 = PrimeField::kDefaultPrime;

std::uint64_t ref_mul_m61(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b %
                                    kM61);
}

TEST(Mersenne61, MulMatchesGenericReference) {
  PrimeField F;
  Rng rng(42);
  // Edge elements: products of the largest pair reach (p-1)^2 > 2^121.
  const std::vector<std::uint64_t> edge{
      0, 1, 2, 3, (1ULL << 60) - 1, 1ULL << 60, kM61 / 2, kM61 - 2, kM61 - 1};
  for (std::uint64_t a : edge) {
    for (std::uint64_t b : edge) {
      EXPECT_EQ(F.mul(a, b), ref_mul_m61(a, b)) << a << " * " << b;
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = F.uniform(rng), b = F.uniform(rng);
    ASSERT_EQ(F.mul(a, b), ref_mul_m61(a, b)) << a << " * " << b;
  }
}

TEST(Mersenne61, ReduceMatchesGenericReference) {
  PrimeField F;
  Rng rng(43);
  const std::vector<std::uint64_t> edge{0,        1,         kM61 - 1, kM61,
                                        kM61 + 1, 2 * kM61,  2 * kM61 + 1,
                                        ~0ULL,    ~0ULL - 1, 1ULL << 61};
  for (std::uint64_t v : edge) EXPECT_EQ(F.reduce(v), v % kM61) << v;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(F.reduce(v), v % kM61) << v;
  }
}

TEST(Mersenne61, ExtendedEuclidInvMatchesFermat) {
  PrimeField F;
  Rng rng(44);
  const std::vector<std::uint64_t> edge{1, 2, kM61 - 1, kM61 - 2, kM61 / 2};
  for (std::uint64_t a : edge) {
    EXPECT_EQ(F.inv(a), F.pow(a, kM61 - 2)) << a;
    EXPECT_EQ(F.mul(a, F.inv(a)), 1u) << a;
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = F.uniform_nonzero(rng);
    ASSERT_EQ(F.inv(a), F.pow(a, kM61 - 2)) << a;
  }
}

TEST(PrimeField, InvHandlesModuliAboveTwoTo63) {
  // Bezout coefficients overflow int64 for p near 2^64; the extended
  // Euclid must track them wide. Largest 64-bit prime:
  PrimeField F(18446744073709551557ULL);
  Rng rng(45);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = F.uniform_nonzero(rng);
    ASSERT_EQ(F.mul(a, F.inv(a)), 1u) << a;
  }
}

class BatchKernelsTest : public ::testing::TestWithParam<std::uint64_t> {};

// Both backends: the Mersenne prime exercises the folded loops, the others
// the generic ones.
INSTANTIATE_TEST_SUITE_P(Moduli, BatchKernelsTest,
                         ::testing::Values(65537ULL, kM61,
                                           18446744073709551557ULL));

TEST_P(BatchKernelsTest, MulScaleSubmulMatchScalarOps) {
  PrimeField F(GetParam());
  Rng rng(GetParam() % 1000 + 7);
  const std::size_t len = 257;
  std::vector<std::uint64_t> a(len), b(len), out(len);
  for (std::size_t i = 0; i < len; ++i) {
    a[i] = F.uniform(rng);
    b[i] = F.uniform(rng);
  }
  const std::uint64_t c = F.uniform(rng);
  F.scale_vec(a.data(), c, out.data(), len);
  for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(out[i], F.mul(a[i], c));
  std::vector<std::uint64_t> dst = a;
  F.submul_vec(dst.data(), b.data(), c, len);
  for (std::size_t i = 0; i < len; ++i) {
    ASSERT_EQ(dst[i], F.sub(a[i], F.mul(b[i], c)));
  }
}

TEST_P(BatchKernelsTest, BatchInvMatchesScalarInv) {
  PrimeField F(GetParam());
  Rng rng(GetParam() % 1000 + 8);
  for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{65}}) {
    std::vector<std::uint64_t> vals(len), scratch(len);
    for (auto& v : vals) v = F.uniform_nonzero(rng);
    // Include the edge element p-1 (its own inverse).
    vals[0] = F.modulus() - 1;
    const std::vector<std::uint64_t> orig = vals;
    F.batch_inv(vals.data(), len, scratch.data());
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(vals[i], F.inv(orig[i])) << "len=" << len << " i=" << i;
    }
  }
}

// out = a * b from the checked scalar ops: the oracle every matmul path is
// held to.
std::vector<std::uint64_t> reference_matmul(const PrimeField& F,
                                            const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b,
                                            std::size_t rows, std::size_t inner,
                                            std::size_t cols) {
  std::vector<std::uint64_t> out(rows * cols, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < inner; ++i) {
        acc = F.add(acc, F.mul(a[r * inner + i], b[i * cols + c]));
      }
      out[r * cols + c] = acc;
    }
  }
  return out;
}

// Matrix entries drawn to hit the edges: 0, 1 and p-1 (whose products are
// the largest the folds see) mixed into uniform values; `saturated`
// makes every entry p-1, the worst case for accumulator headroom.
std::vector<std::uint64_t> edge_matrix(const PrimeField& F, std::size_t len,
                                       Rng& rng, bool saturated) {
  const std::uint64_t top = F.modulus() - 1;
  std::vector<std::uint64_t> m(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t pick = rng.next_below(5);
    m[i] = saturated ? top
           : pick == 0 ? 0
           : pick == 1 ? top
           : pick == 2 ? 1
                       : F.uniform(rng);
  }
  return m;
}

struct MatShape {
  std::size_t rows, inner, cols;
};

// rows = 1 (the recovery checks), column counts off every lane and strip
// width, inner sizes straddling the scalar path's 64-term fold and the
// vector path's 6-term fold, the GVSS shapes at n = 32, 64, and the
// 1 x (f+1) x 1 products of gvss_recover's table fast path at f = 21, 42.
const MatShape kMatShapes[] = {
    {1, 1, 1},   {1, 22, 43}, {1, 3, 2},   {2, 6, 3},    {3, 7, 5},
    {4, 13, 13}, {5, 5, 16},  {2, 9, 17},  {3, 12, 19},  {1, 64, 31},
    {2, 65, 33}, {3, 130, 7}, {1, 129, 1}, {32, 11, 32}, {64, 22, 43},
    {1, 22, 1},  {1, 43, 1},  {0, 4, 4},   {4, 0, 4},    {4, 4, 0}};

TEST_P(BatchKernelsTest, MatMulMatchesScalarOps) {
  PrimeField F(GetParam());
  Rng rng(GetParam() % 1000 + 9);
  for (const MatShape& s : kMatShapes) {
    for (const bool saturated : {false, true}) {
      const auto a = edge_matrix(F, s.rows * s.inner, rng, saturated);
      const auto b = edge_matrix(F, s.inner * s.cols, rng, saturated);
      std::vector<std::uint64_t> out(s.rows * s.cols, 7);
      F.matmul(a.data(), b.data(), out.data(), s.rows, s.inner, s.cols);
      ASSERT_EQ(out, reference_matmul(F, a, b, s.rows, s.inner, s.cols))
          << s.rows << "x" << s.inner << "x" << s.cols
          << " saturated=" << saturated;
    }
  }
}

// --- SIMD vs scalar bit-exactness -----------------------------------------
//
// PrimeField(kM61) routes matmul and eval_points to the runtime-selected
// vector backend (when one exists on this machine); SimdMode::kOff pins the
// scalar reference. The two must agree bit for bit on every input,
// including the adversarial edges: 0, 1, p-1 (products up to
// (p-1)^2 >= 2^122), shapes that are not multiples of any lane width, and
// empty/short inputs. On machines without a vector unit both fields run
// scalar and the tests are vacuous but green.

TEST(Mersenne61Simd, DispatchModeIsHonored) {
  EXPECT_FALSE(PrimeField(kM61, SimdMode::kOff).simd_active());
  // Non-Mersenne moduli never have a vector backend.
  EXPECT_FALSE(PrimeField(65537ULL).simd_active());
#if SSBFT_HAVE_AVX2
  EXPECT_EQ(PrimeField(kM61).simd_active(), m61simd::available());
#else
  EXPECT_FALSE(PrimeField(kM61).simd_active());
#endif
}

TEST(Mersenne61Simd, MatMulMatchesScalarPathOnEdges) {
  // The dispatching field, the pinned scalar path and the raw m61simd
  // entry points all produce the reference product, bit for bit.
  PrimeField F(kM61);
  PrimeField R(kM61, SimdMode::kOff);
  Rng rng(2025);
  for (const MatShape& s : kMatShapes) {
    for (const bool saturated : {false, true}) {
      const auto a = edge_matrix(F, s.rows * s.inner, rng, saturated);
      const auto b = edge_matrix(F, s.inner * s.cols, rng, saturated);
      const auto want = reference_matmul(R, a, b, s.rows, s.inner, s.cols);
      std::vector<std::uint64_t> got(s.rows * s.cols, 7);
      F.matmul(a.data(), b.data(), got.data(), s.rows, s.inner, s.cols);
      ASSERT_EQ(got, want) << "simd " << s.rows << "x" << s.inner << "x"
                           << s.cols;
      R.matmul(a.data(), b.data(), got.data(), s.rows, s.inner, s.cols);
      ASSERT_EQ(got, want) << "kOff " << s.rows << "x" << s.inner << "x"
                           << s.cols;
      m61simd::matmul(a.data(), b.data(), got.data(), s.rows, s.inner,
                      s.cols);
      ASSERT_EQ(got, want) << "m61simd::matmul";
      m61simd::matmul_scalar(a.data(), b.data(), got.data(), s.rows, s.inner,
                             s.cols);
      ASSERT_EQ(got, want) << "m61simd::matmul_scalar";
    }
  }
}

TEST(Mersenne61Simd, MatMulLeavesMaskedTailColumnsUntouched) {
  // The vector path's masked tail stores only live lanes: a row of 5
  // columns written into a wider buffer must not touch what follows it.
  PrimeField F(kM61);
  Rng rng(2028);
  const auto a = edge_matrix(F, 3, rng, false);
  const auto b = edge_matrix(F, 3 * 5, rng, false);
  std::vector<std::uint64_t> out(8, 42);
  F.matmul(a.data(), b.data(), out.data(), 1, 3, 5);
  for (std::size_t c = 5; c < 8; ++c) EXPECT_EQ(out[c], 42u);
}

// --- Horner at the node points (PrimeField::eval_points) -------------------
//
// The oracle is the product it replaced: the node-point power table
// V[k][i] = (k+1)^i times the coefficient-major matrix, from the checked
// scalar ops. Column counts cover every strip and lane residue, w the
// deal/evaluation widths, and counts odd and even (the vector path pairs
// points, the scalar path groups eight).

std::vector<std::uint64_t> node_point_powers(const PrimeField& F,
                                             std::size_t count,
                                             std::size_t w) {
  std::vector<std::uint64_t> v(count * w);
  for (std::size_t k = 0; k < count; ++k) {
    std::uint64_t xp = 1;
    for (std::size_t i = 0; i < w; ++i) {
      v[k * w + i] = xp;
      xp = F.mul(xp, (k + 1) % F.modulus());
    }
  }
  return v;
}

// Coefficients mixing 0, 1, p-1 and 2^61-2 (both largest for the Mersenne
// prime) with uniform values; `saturated` makes every coefficient p-1, the
// accumulator's worst case.
std::vector<std::uint64_t> edge_coefficients(const PrimeField& F,
                                             std::size_t len, Rng& rng,
                                             bool saturated) {
  const std::uint64_t top = F.modulus() - 1;
  const std::uint64_t wide = (std::uint64_t{1} << 61) - 2;
  std::vector<std::uint64_t> c(len);
  for (auto& x : c) {
    const std::uint64_t pick = rng.next_below(6);
    x = saturated ? top
        : pick == 0 ? 0
        : pick == 1 ? 1
        : pick == 2 ? top
        : pick == 3 && F.valid(wide) ? wide
                    : F.uniform(rng);
  }
  return c;
}

std::vector<std::size_t> eval_point_cols() {
  std::vector<std::size_t> cols;
  for (std::size_t c = 1; c <= 17; ++c) cols.push_back(c);
  for (std::size_t c : {22, 43, 64, 128}) cols.push_back(c);
  return cols;
}

TEST(Mersenne61Simd, EvalPointsMatchesPowerTableOnEveryPath) {
  // The dispatching field, the pinned scalar path and both raw m61simd
  // entry points against V * C, bit for bit.
  PrimeField F(kM61);
  PrimeField R(kM61, SimdMode::kOff);
  Rng rng(2029);
  for (const std::size_t cols : eval_point_cols()) {
    for (const std::size_t w : {1, 2, 22, 43}) {
      for (const std::size_t count : {1, 2, 7, 9, 64, 65}) {
        const bool saturated = (cols + w + count) % 5 == 0;
        const auto coef = edge_coefficients(R, w * cols, rng, saturated);
        const auto want = reference_matmul(
            R, node_point_powers(R, count, w), coef, count, w, cols);
        std::vector<std::uint64_t> got(count * cols, 7);
        F.eval_points(coef.data(), w, cols, count, got.data(), cols);
        ASSERT_EQ(got, want) << "dispatch cols=" << cols << " w=" << w
                             << " count=" << count;
        R.eval_points(coef.data(), w, cols, count, got.data(), cols);
        ASSERT_EQ(got, want) << "kOff cols=" << cols << " w=" << w
                             << " count=" << count;
        m61simd::eval_points(coef.data(), w, cols, count, got.data(), cols);
        ASSERT_EQ(got, want) << "m61simd cols=" << cols << " w=" << w
                             << " count=" << count;
        m61simd::eval_points_scalar(coef.data(), w, cols, count, got.data(),
                                    cols);
        ASSERT_EQ(got, want) << "m61simd scalar cols=" << cols
                             << " w=" << w << " count=" << count;
      }
    }
  }
}

TEST(Mersenne61Simd, EvalPointsStridedRowsLeaveTheGapsUntouched) {
  // out_stride > cols: each row's values land at the front of its stride
  // and the gap after them (a masked tail store, on the vector path) keeps
  // its contents, on every path.
  PrimeField R(kM61, SimdMode::kOff);
  Rng rng(2031);
  using Kernel = void (*)(const std::uint64_t*, std::size_t, std::size_t,
                          std::size_t, std::uint64_t*, std::size_t);
  const Kernel kernels[] = {m61simd::eval_points,
                            m61simd::eval_points_scalar};
  for (const std::size_t cols : {1, 5, 16, 43}) {
    for (const std::size_t count : {1, 7, 64}) {
      const std::size_t w = 22, stride = cols + 5;
      const auto coef = edge_coefficients(R, w * cols, rng, false);
      const auto want = reference_matmul(
          R, node_point_powers(R, count, w), coef, count, w, cols);
      for (const Kernel kernel : kernels) {
        std::vector<std::uint64_t> out(count * stride, 7);
        kernel(coef.data(), w, cols, count, out.data(), stride);
        for (std::size_t k = 0; k < count; ++k) {
          for (std::size_t c = 0; c < stride; ++c) {
            ASSERT_EQ(out[k * stride + c], c < cols ? want[k * cols + c] : 7)
                << "cols=" << cols << " count=" << count << " k=" << k;
          }
        }
      }
    }
  }
}

TEST_P(BatchKernelsTest, EvalPointsMatchesPowerTableProduct) {
  // Every backend the modulus selects, the generic prime included.
  PrimeField F(GetParam());
  Rng rng(GetParam() % 1000 + 10);
  for (const std::size_t cols : {1, 5, 17, 43}) {
    for (const std::size_t w : {1, 2, 22}) {
      for (const std::size_t count : {1, 8, 33}) {
        const auto coef = edge_coefficients(F, w * cols, rng, cols == 5);
        std::vector<std::uint64_t> got(count * cols, 7);
        F.eval_points(coef.data(), w, cols, count, got.data(), cols);
        ASSERT_EQ(got, reference_matmul(F, node_point_powers(F, count, w),
                                        coef, count, w, cols))
            << "cols=" << cols << " w=" << w << " count=" << count;
      }
    }
  }
}

TEST(Mersenne61Simd, EvalPointsAtTheLargestPoints) {
  // count = 2^20 - 1: the last points are the largest multipliers the
  // unreduced accumulator ever sees. Spot-check them against Horner from
  // the checked ops, on both paths.
  const std::size_t count = PrimeField::kMaxEvalPoints - 1;
  const std::size_t w = 5, cols = 3;
  for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kOff}) {
    PrimeField F(kM61, mode);
    Rng rng(2030);
    const auto coef = edge_coefficients(F, w * cols, rng, true);
    std::vector<std::uint64_t> out(count * cols);
    F.eval_points(coef.data(), w, cols, count, out.data(), cols);
    for (std::size_t k = count - 9; k < count; ++k) {
      for (std::size_t c = 0; c < cols; ++c) {
        std::uint64_t acc = 0;
        for (std::size_t i = w; i-- > 0;) {
          acc = F.add(F.mul(acc, k + 1), coef[i * cols + c]);
        }
        ASSERT_EQ(out[k * cols + c], acc) << "point " << k + 1;
      }
    }
  }
}

TEST(Mersenne61Simd, EvalPointsRefusesOutOfRangeShapes) {
  // Nothing is written either way: cols = 0 or count = 0.
  const std::uint64_t coef[1] = {1};
  for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kOff}) {
    PrimeField F(kM61, mode);
    EXPECT_THROW(
        F.eval_points(coef, 1, 0, PrimeField::kMaxEvalPoints, nullptr, 0),
        contract_error);
    EXPECT_THROW(F.eval_points(coef, 0, 0, 1, nullptr, 0), contract_error);
    EXPECT_THROW(F.eval_points(coef, 1, 2, 0, nullptr, 1), contract_error);
    EXPECT_NO_THROW(
        F.eval_points(coef, 1, 0, PrimeField::kMaxEvalPoints - 1, nullptr, 0));
  }
  EXPECT_THROW(PrimeField(65537).eval_points(coef, 1, 0,
                                             PrimeField::kMaxEvalPoints,
                                             nullptr, 0),
               contract_error);
}

TEST(PrimeField, UniformStaysInRange) {
  PrimeField F(101);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(F.uniform(rng), 101u);
    EXPECT_NE(F.uniform_nonzero(rng), 0u);
  }
}

TEST(Poly, DegreeAndNormalization) {
  EXPECT_EQ(Poly().degree(), -1);
  EXPECT_EQ(Poly({0, 0, 0}).degree(), -1);  // trailing zeros drop
  EXPECT_EQ(Poly({5}).degree(), 0);
  EXPECT_EQ(Poly({1, 2, 0, 0}).degree(), 1);
}

TEST(Poly, HornerEvaluation) {
  PrimeField F(101);
  Poly p({3, 2, 1});  // 3 + 2x + x^2
  EXPECT_EQ(p.eval(F, 0), 3u);
  EXPECT_EQ(p.eval(F, 1), 6u);
  EXPECT_EQ(p.eval(F, 10), (3 + 20 + 100) % 101);
}

TEST(Poly, ArithmeticConsistentWithEvaluation) {
  PrimeField F(65537);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Poly a = Poly::random(F, 4, rng);
    Poly b = Poly::random(F, 3, rng);
    const auto x = F.uniform(rng);
    EXPECT_EQ(a.add(F, b).eval(F, x), F.add(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.sub(F, b).eval(F, x), F.sub(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.mul(F, b).eval(F, x), F.mul(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.scale(F, 7).eval(F, x), F.mul(a.eval(F, x), 7));
  }
}

TEST(Poly, DivmodRoundTrip) {
  PrimeField F(65537);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    Poly a = Poly::random(F, 6, rng);
    Poly d = Poly::random(F, 2, rng);
    if (d.is_zero()) continue;
    auto [q, r] = a.divmod(F, d);
    EXPECT_LT(r.degree(), d.degree());
    EXPECT_EQ(q.mul(F, d).add(F, r), a);
  }
}

TEST(Poly, DivisionByZeroRejected) {
  PrimeField F(101);
  EXPECT_THROW(Poly({1, 2}).divmod(F, Poly()), contract_error);
}

TEST(Poly, DivmodZeroDividend) {
  PrimeField F(101);
  auto [q, r] = Poly().divmod(F, Poly({3, 1}));
  EXPECT_TRUE(q.is_zero());
  EXPECT_TRUE(r.is_zero());
}

TEST(Poly, DivmodLowerDegreeDividendIsIdentityRemainder) {
  PrimeField F(101);
  Poly a({7, 5});           // degree 1
  Poly d({1, 2, 3, 4});     // degree 3
  auto [q, r] = a.divmod(F, d);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, a);
}

TEST(Poly, DivmodEqualDegrees) {
  PrimeField F(65537);
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    Poly a = Poly::random(F, 4, rng);
    Poly d = Poly::random(F, 4, rng);
    if (a.degree() != 4 || d.degree() != 4) continue;
    auto [q, r] = a.divmod(F, d);
    EXPECT_EQ(q.degree(), 0);
    EXPECT_LT(r.degree(), d.degree());
    EXPECT_EQ(q.mul(F, d).add(F, r), a);
  }
}

TEST(Interpolation, RecoversOriginalPolynomial) {
  PrimeField F(2305843009213693951ULL);
  Rng rng(8);
  for (int deg = 0; deg <= 6; ++deg) {
    Poly p = Poly::random(F, deg, rng);
    std::vector<std::uint64_t> xs, ys;
    for (std::uint64_t x = 1; x <= static_cast<std::uint64_t>(deg) + 1; ++x) {
      xs.push_back(x);
      ys.push_back(p.eval(F, x));
    }
    EXPECT_EQ(lagrange_interpolate(F, xs, ys), p) << "deg=" << deg;
  }
}

TEST(Interpolation, ExactDegreeBound) {
  PrimeField F(101);
  // 3 points -> degree <= 2 polynomial through them.
  Poly p = lagrange_interpolate(F, {1, 2, 3}, {10, 20, 40});
  EXPECT_LE(p.degree(), 2);
  EXPECT_EQ(p.eval(F, 1), 10u);
  EXPECT_EQ(p.eval(F, 2), 20u);
  EXPECT_EQ(p.eval(F, 3), 40u);
}

TEST(Interpolation, DuplicateNodesRejected) {
  PrimeField F(101);
  EXPECT_THROW(lagrange_interpolate(F, {1, 1}, {2, 3}), contract_error);
}

}  // namespace
}  // namespace ssbft
