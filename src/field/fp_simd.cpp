#include "field/fp_simd.h"

#include "field/fp.h"
#include "support/avx2.h"

#if SSBFT_HAVE_AVX2
#include <immintrin.h>
#endif

namespace ssbft {
namespace m61simd {

namespace {

constexpr std::uint64_t kM61 = PrimeField::kDefaultPrime;

// Horner at the small points x < 2^20 (PrimeField::kMaxEvalPoints): the
// accumulator stays below 2^63 without a full reduction, and each output
// is canonicalized once at the end. The scalar step
// is one 64x64 -> 128-bit product, a*x + c < 2^82 + 2^61, folded once to
// below 2^62. The vector step has only a 32-bit multiplier: with
// a = ah*2^32 + al (al < 2^32, ah < 2^31) and 2^61 = 1 (mod p),
//   a*x = al*x + (ah*x)*2^32
//       = al*x + ((ah*x) mod 2^29)*2^32 + ((ah*x) >> 29)     (mod p)
// where al*x < 2^52 and ah*x < 2^51, so a*x + c stays below
// 2^52 + 2^61 + 2^22 + 2^61 < 2^63 without any fold.
constexpr unsigned kHornerFoldBits = 29;
constexpr std::uint64_t kHornerFoldMask =
    (std::uint64_t{1} << kHornerFoldBits) - 1;

#if SSBFT_HAVE_AVX2

// ---- AVX2 backend -------------------------------------------------------

// Vector k of a strip of NV starting at row: masked (zeros in masked-off
// lanes) for the last vector of a tail strip.
template <int NV, bool kMasked>
__attribute__((target("avx2"))) inline __m256i load_strip(
    const std::uint64_t* row, int k, __m256i mask) {
  const auto* src = reinterpret_cast<const long long*>(row + 4 * k);
  return (kMasked && k == NV - 1)
             ? _mm256_maskload_epi64(src, mask)
             : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
}

// Lane mask of a tail strip's last vector for `rest` = cols % 16 tail
// columns: 1..4 lanes (a whole vector when rest % 4 is 0, which the masked
// strips handle like any other count).
__attribute__((target("avx2"))) inline __m256i tail_mask(std::size_t rest) {
  const long long last_lanes = static_cast<long long>((rest + 3) % 4 + 1);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(last_lanes),
                            _mm256_set_epi64x(3, 2, 1, 0));
}

// The strip kernel multiplies in a split that needs no per-product
// reduction. With a = a1*2^31 + a0 (a0 < 2^31, a1 < 2^30) and
// b = b1*2^30 + b0 (b0 < 2^30, b1 < 2^31), and 2^61 = 1 (mod p):
//   a*b = a0*b0 + a1*b1 + 2^30 * (a0*b1 + 2*a1*b0)      (mod p)
// Every factor fits the 32-bit multiplier. Per product, the low sum `lo`
// gains two terms below 2^61 each and the middle sum `mid` less than
// 1.5 * 2^62. Every kPairFold products `mid` folds into `lo`
// (mid * 2^30 = (mid >> 31) + (mid mod 2^31) * 2^30) and `lo` folds once;
// a folded `lo` stays below 2^62 + 2^34, so two more products keep both
// sums under 2^64.
constexpr std::size_t kPairFold = 2;

// One strip of NV 4-lane output vectors of row `arow * b`, starting at
// column 0 of b and out. With kMasked the last vector covers only the
// lanes set in `mask` (the column tail); masked-off lanes load 0 and are
// not stored.
template <int NV, bool kMasked>
__attribute__((target("avx2"))) inline void matmul_strip(
    const std::uint64_t* arow, const std::uint64_t* b, std::uint64_t* out,
    std::size_t inner, std::size_t cols, __m256i mask) {
  const __m256i M = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i m30 = _mm256_set1_epi64x((1LL << 30) - 1);
  const __m256i m31 = _mm256_set1_epi64x((1LL << 31) - 1);
  __m256i lo[NV];
  for (int k = 0; k < NV; ++k) lo[k] = _mm256_setzero_si256();
  for (std::size_t i0 = 0; i0 < inner; i0 += kPairFold) {
    const std::size_t i1 = inner - i0 < kPairFold ? inner : i0 + kPairFold;
    __m256i mid[NV];
    for (int k = 0; k < NV; ++k) mid[k] = _mm256_setzero_si256();
    for (std::size_t i = i0; i < i1; ++i) {
      const __m256i x = _mm256_set1_epi64x(static_cast<long long>(arow[i]));
      const __m256i a0 = _mm256_and_si256(x, m31);
      const __m256i a1 = _mm256_srli_epi64(x, 31);
      const __m256i a1x2 = _mm256_add_epi64(a1, a1);
      const std::uint64_t* brow = b + i * cols;
      for (int k = 0; k < NV; ++k) {
        const __m256i bv = load_strip<NV, kMasked>(brow, k, mask);
        const __m256i b0 = _mm256_and_si256(bv, m30);
        const __m256i b1 = _mm256_srli_epi64(bv, 30);
        lo[k] = _mm256_add_epi64(
            lo[k], _mm256_add_epi64(_mm256_mul_epu32(a0, b0),
                                    _mm256_mul_epu32(a1, b1)));
        mid[k] = _mm256_add_epi64(
            mid[k], _mm256_add_epi64(_mm256_mul_epu32(a0, b1),
                                     _mm256_mul_epu32(a1x2, b0)));
      }
    }
    for (int k = 0; k < NV; ++k) {
      lo[k] = _mm256_add_epi64(
          _mm256_add_epi64(_mm256_and_si256(lo[k], M),
                           _mm256_srli_epi64(lo[k], 61)),
          _mm256_add_epi64(
              _mm256_slli_epi64(_mm256_and_si256(mid[k], m31), 30),
              _mm256_srli_epi64(mid[k], 31)));
    }
  }
  const __m256i top = _mm256_set1_epi64x(static_cast<long long>(kM61 - 1));
  for (int k = 0; k < NV; ++k) {
    // Below 2^62 + 2^34: one more fold leaves at most 2^61 + 1, and one
    // conditional subtract canonicalizes.
    const __m256i s = _mm256_add_epi64(_mm256_and_si256(lo[k], M),
                                       _mm256_srli_epi64(lo[k], 61));
    const __m256i v =
        _mm256_sub_epi64(s, _mm256_and_si256(_mm256_cmpgt_epi64(s, top), M));
    auto* dst = reinterpret_cast<long long*>(out + 4 * k);
    if (kMasked && k == NV - 1) {
      _mm256_maskstore_epi64(dst, mask, v);
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
    }
  }
}

__attribute__((target("avx2"))) void matmul_avx2(const std::uint64_t* a,
                                                 const std::uint64_t* b,
                                                 std::uint64_t* out,
                                                 std::size_t rows,
                                                 std::size_t inner,
                                                 std::size_t cols) {
  const std::size_t full = cols / 16 * 16;
  const std::size_t rest = cols - full;  // < 16 tail columns
  const __m256i mask = tail_mask(rest);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t* arow = a + r * inner;
    std::uint64_t* orow = out + r * cols;
    for (std::size_t c = 0; c < full; c += 16) {
      matmul_strip<4, false>(arow, b + c, orow + c, inner, cols, mask);
    }
    const std::uint64_t* bt = b + full;
    std::uint64_t* ot = orow + full;
    switch ((rest + 3) / 4) {
      case 4: matmul_strip<4, true>(arow, bt, ot, inner, cols, mask); break;
      case 3: matmul_strip<3, true>(arow, bt, ot, inner, cols, mask); break;
      case 2: matmul_strip<2, true>(arow, bt, ot, inner, cols, mask); break;
      case 1: matmul_strip<1, true>(arow, bt, ot, inner, cols, mask); break;
      default: break;
    }
  }
}

// One strip of NV 4-lane output vectors for each of NP consecutive points
// (x in xv[0..NP)), starting at column 0 of coef and out (out rows are
// `stride` apart); masked like matmul_strip. The Horner step is the 32-bit
// split above: _mm256_mul_epu32 reads the low 32 bits of each lane, so al
// needs no mask. The points share every coefficient load, and their
// NP * NV Horner chains are independent, which keeps the multipliers busy
// where one point's chains would wait on each other.
template <int NP, int NV, bool kMasked>
__attribute__((target("avx2"))) inline void eval_strip(
    const std::uint64_t* coef, std::size_t w, std::size_t cols,
    const __m256i* xv, std::uint64_t* out, std::size_t stride, __m256i mask) {
  const __m256i M = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i fold =
      _mm256_set1_epi64x(static_cast<long long>(kHornerFoldMask));
  __m256i acc[NP][NV];
  for (int k = 0; k < NV; ++k) {
    const __m256i c = load_strip<NV, kMasked>(coef + (w - 1) * cols, k, mask);
    for (int p = 0; p < NP; ++p) acc[p][k] = c;
  }
  for (std::size_t i = w - 1; i-- > 0;) {
    const std::uint64_t* crow = coef + i * cols;
    for (int k = 0; k < NV; ++k) {
      const __m256i c = load_strip<NV, kMasked>(crow, k, mask);
      for (int p = 0; p < NP; ++p) {
        const __m256i hx =
            _mm256_mul_epu32(_mm256_srli_epi64(acc[p][k], 32), xv[p]);
        acc[p][k] = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_mul_epu32(acc[p][k], xv[p]),
                             _mm256_slli_epi64(_mm256_and_si256(hx, fold), 32)),
            _mm256_add_epi64(_mm256_srli_epi64(hx, kHornerFoldBits), c));
      }
    }
  }
  const __m256i top = _mm256_set1_epi64x(static_cast<long long>(kM61 - 1));
  for (int p = 0; p < NP; ++p) {
    for (int k = 0; k < NV; ++k) {
      const __m256i s = _mm256_add_epi64(_mm256_and_si256(acc[p][k], M),
                                         _mm256_srli_epi64(acc[p][k], 61));
      const __m256i v = _mm256_sub_epi64(
          s, _mm256_and_si256(_mm256_cmpgt_epi64(s, top), M));
      auto* dst = reinterpret_cast<long long*>(out + p * stride + 4 * k);
      if (kMasked && k == NV - 1) {
        _mm256_maskstore_epi64(dst, mask, v);
      } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
      }
    }
  }
}

// Rows k0 .. k0+NP-1 of eval_points (points k0+1 .. k0+NP).
template <int NP>
__attribute__((target("avx2"))) inline void eval_row_group(
    const std::uint64_t* coef, std::size_t w, std::size_t cols,
    std::size_t k0, std::uint64_t* out, std::size_t stride, __m256i mask) {
  __m256i xv[NP];
  for (int p = 0; p < NP; ++p) {
    xv[p] = _mm256_set1_epi64x(static_cast<long long>(k0 + 1 + p));
  }
  std::uint64_t* orow = out + k0 * stride;
  const std::size_t full = cols / 16 * 16;
  for (std::size_t c = 0; c < full; c += 16) {
    eval_strip<NP, 4, false>(coef + c, w, cols, xv, orow + c, stride, mask);
  }
  const std::uint64_t* ct = coef + full;
  std::uint64_t* ot = orow + full;
  switch ((cols - full + 3) / 4) {
    case 4: eval_strip<NP, 4, true>(ct, w, cols, xv, ot, stride, mask); break;
    case 3: eval_strip<NP, 3, true>(ct, w, cols, xv, ot, stride, mask); break;
    case 2: eval_strip<NP, 2, true>(ct, w, cols, xv, ot, stride, mask); break;
    case 1: eval_strip<NP, 1, true>(ct, w, cols, xv, ot, stride, mask); break;
    default: break;
  }
}

__attribute__((target("avx2"))) void eval_points_avx2(
    const std::uint64_t* coef, std::size_t w, std::size_t cols,
    std::size_t count, std::uint64_t* out, std::size_t stride) {
  const __m256i mask = tail_mask(cols % 16);
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    eval_row_group<2>(coef, w, cols, k, out, stride, mask);
  }
  if (k < count) eval_row_group<1>(coef, w, cols, k, out, stride, mask);
}

#endif  // SSBFT_HAVE_AVX2

}  // namespace

bool available() { return avx2_available(); }

const char* backend_name() { return available() ? "avx2" : "scalar"; }

void matmul(const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out, std::size_t rows, std::size_t inner,
            std::size_t cols) {
#if SSBFT_HAVE_AVX2
  if (available()) {
    matmul_avx2(a, b, out, rows, inner, cols);
    return;
  }
#endif
  matmul_scalar(a, b, out, rows, inner, cols);
}

void matmul_scalar(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t rows, std::size_t inner,
                   std::size_t cols) {
  // 64 products of canonical elements sum to under 2^128 - 2^68 + 64,
  // which leaves room for a canonical carry-in: fold once per 64 terms.
  constexpr std::size_t kTerms = 64;
  constexpr std::size_t kCols = 16;  // accumulators held per strip
  unsigned __int128 acc[kCols];
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t* arow = a + r * inner;
    for (std::size_t c0 = 0; c0 < cols; c0 += kCols) {
      const std::size_t w = cols - c0 < kCols ? cols - c0 : kCols;
      for (std::size_t c = 0; c < w; ++c) acc[c] = 0;
      for (std::size_t i0 = 0; i0 < inner; i0 += kTerms) {
        const std::size_t i1 = inner - i0 < kTerms ? inner : i0 + kTerms;
        for (std::size_t i = i0; i < i1; ++i) {
          const unsigned __int128 x = arow[i];
          const std::uint64_t* brow = b + i * cols + c0;
          for (std::size_t c = 0; c < w; ++c) acc[c] += x * brow[c];
        }
        for (std::size_t c = 0; c < w; ++c) {
          // (t mod 2^61) + (t >> 61) < 2^68 is within fold61's range.
          const unsigned __int128 t = acc[c];
          acc[c] = PrimeField::fold61((t & kM61) + (t >> 61));
        }
      }
      std::uint64_t* orow = out + r * cols + c0;
      for (std::size_t c = 0; c < w; ++c) {
        orow[c] = static_cast<std::uint64_t>(acc[c]);
      }
    }
  }
}

void eval_points(const std::uint64_t* coef, std::size_t w, std::size_t cols,
                 std::size_t count, std::uint64_t* out,
                 std::size_t out_stride) {
#if SSBFT_HAVE_AVX2
  if (available()) {
    eval_points_avx2(coef, w, cols, count, out, out_stride);
    return;
  }
#endif
  eval_points_scalar(coef, w, cols, count, out, out_stride);
}

void eval_points_scalar(const std::uint64_t* coef, std::size_t w,
                        std::size_t cols, std::size_t count,
                        std::uint64_t* out, std::size_t out_stride) {
  // Eight points per pass share each coefficient load and run eight
  // independent Horner chains. A short last group also evaluates spare
  // points past count (still below 2^20 + 8, within the step's bounds)
  // and drops them.
  constexpr std::size_t kPoints = 8;
  for (std::size_t k0 = 0; k0 < count; k0 += kPoints) {
    const std::size_t np = count - k0 < kPoints ? count - k0 : kPoints;
    for (std::size_t c = 0; c < cols; ++c) {
      std::uint64_t acc[kPoints];
      for (auto& a : acc) a = coef[(w - 1) * cols + c];
      for (std::size_t i = w - 1; i-- > 0;) {
        const std::uint64_t cv = coef[i * cols + c];
        for (std::size_t p = 0; p < kPoints; ++p) {
          const unsigned __int128 t =
              static_cast<unsigned __int128>(acc[p]) * (k0 + 1 + p) + cv;
          acc[p] = (static_cast<std::uint64_t>(t) & kM61) +
                   static_cast<std::uint64_t>(t >> 61);
        }
      }
      for (std::size_t p = 0; p < np; ++p) {
        out[(k0 + p) * out_stride + c] = PrimeField::fold61(acc[p]);
      }
    }
  }
}

}  // namespace m61simd
}  // namespace ssbft
