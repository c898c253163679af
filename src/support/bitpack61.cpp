#include "support/bitpack61.h"

#include <cstring>

#include "support/avx2.h"

#if SSBFT_HAVE_AVX2
#include <immintrin.h>
#endif

namespace ssbft {
namespace bitpack61 {

namespace {

constexpr std::uint64_t kMask61 = (std::uint64_t{1} << 61) - 1;

// Word j of the packed block holds bits [64j, 64j+64); value k sits at bit
// offset 61k. That gives, for j = 0..6:
//   w_j = (v[j] >> 3j) | (v[j+1] << (61 - 3j))
// and the final 40 bits of v[7] land in a 5-byte tail.

#if SSBFT_HAVE_AVX2

__attribute__((target("avx2"))) void pack_block_avx2(const std::uint64_t* v,
                                                     std::uint8_t* out) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 1));
  // Lanes j = 0..3.
  const __m256i w03 =
      _mm256_or_si256(_mm256_srlv_epi64(a, _mm256_set_epi64x(9, 6, 3, 0)),
                      _mm256_sllv_epi64(b, _mm256_set_epi64x(52, 55, 58, 61)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), w03);
  // Lanes j = 4..6 (lane 3 of the vector is garbage and not stored).
  const __m256i a2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 4));
  const __m256i b2 = _mm256_permute4x64_epi64(a2, _MM_SHUFFLE(3, 3, 2, 1));
  const __m256i w46 = _mm256_or_si256(
      _mm256_srlv_epi64(a2, _mm256_set_epi64x(21, 18, 15, 12)),
      _mm256_sllv_epi64(b2, _mm256_set_epi64x(40, 43, 46, 49)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32),
                   _mm256_castsi256_si128(w46));
  const std::uint64_t w6 =
      static_cast<std::uint64_t>(_mm256_extract_epi64(w46, 2));
  std::memcpy(out + 48, &w6, 8);
  const std::uint64_t tail = v[7] >> 21;  // remaining 40 bits
  std::memcpy(out + 56, &tail, 5);
}

__attribute__((target("avx2"))) void unpack_block_avx2(const std::uint8_t* in,
                                                       std::uint64_t* v) {
  const __m256i M = _mm256_set1_epi64x(static_cast<long long>(kMask61));
  // Words W0..W3 cover values 0..3; value k starts at bit 61k = 64q + s.
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
  const __m256i lo03 = _mm256_permute4x64_epi64(a, _MM_SHUFFLE(2, 1, 0, 0));
  const __m256i hi03 = _mm256_permute4x64_epi64(a, _MM_SHUFFLE(3, 2, 1, 1));
  const __m256i v03 = _mm256_and_si256(
      _mm256_or_si256(
          _mm256_srlv_epi64(lo03, _mm256_set_epi64x(55, 58, 61, 0)),
          _mm256_sllv_epi64(hi03, _mm256_set_epi64x(9, 6, 3, 64))),
      M);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(v), v03);
  // Words W3..W6 (bytes 24..55) cover values 4..6.
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 24));
  const __m256i hi46 = _mm256_permute4x64_epi64(b, _MM_SHUFFLE(3, 3, 2, 1));
  const __m256i v46 = _mm256_and_si256(
      _mm256_or_si256(
          _mm256_srlv_epi64(b, _mm256_set_epi64x(64, 46, 49, 52)),
          _mm256_sllv_epi64(hi46, _mm256_set_epi64x(64, 18, 15, 12))),
      M);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(v + 4),
                   _mm256_castsi256_si128(v46));
  v[6] = static_cast<std::uint64_t>(_mm256_extract_epi64(v46, 2));
  // Value 7 starts at bit 427 = 53*8 + 3; the 8-byte load at offset 53 is
  // the last fully in-bounds window of the 61-byte block.
  std::uint64_t w53;
  std::memcpy(&w53, in + 53, 8);
  v[7] = (w53 >> 3) & kMask61;
}

__attribute__((target("avx2"))) std::size_t presence_mask_avx2(
    const std::uint64_t* v, std::size_t len, std::uint64_t absent,
    std::uint8_t* mask, std::uint64_t* seen) {
  const __m256i va = _mm256_set1_epi64x(static_cast<long long>(absent));
  __m256i acc = _mm256_setzero_si256();
  std::size_t present = 0;
  const std::size_t full = len / 8;
  for (std::size_t b = 0; b < full; ++b) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * b));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * b + 4));
    const __m256i eq_lo = _mm256_cmpeq_epi64(lo, va);
    const __m256i eq_hi = _mm256_cmpeq_epi64(hi, va);
    acc = _mm256_or_si256(acc, _mm256_or_si256(_mm256_andnot_si256(eq_lo, lo),
                                               _mm256_andnot_si256(eq_hi, hi)));
    const unsigned m =
        ~static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq_lo)) |
            (_mm256_movemask_pd(_mm256_castsi256_pd(eq_hi)) << 4)) &
        0xFFu;
    mask[b] = static_cast<std::uint8_t>(m);
    present += static_cast<std::size_t>(_mm_popcnt_u32(m));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  *seen |= lanes[0] | lanes[1] | lanes[2] | lanes[3];
  return present + presence_mask_portable(v + 8 * full, len - 8 * full,
                                          absent, mask + full, seen);
}

#endif  // SSBFT_HAVE_AVX2

}  // namespace

void pack_block_portable(const std::uint64_t* v, std::uint8_t* out) {
  std::uint64_t w;
  w = v[0] | (v[1] << 61);
  std::memcpy(out, &w, 8);
  w = (v[1] >> 3) | (v[2] << 58);
  std::memcpy(out + 8, &w, 8);
  w = (v[2] >> 6) | (v[3] << 55);
  std::memcpy(out + 16, &w, 8);
  w = (v[3] >> 9) | (v[4] << 52);
  std::memcpy(out + 24, &w, 8);
  w = (v[4] >> 12) | (v[5] << 49);
  std::memcpy(out + 32, &w, 8);
  w = (v[5] >> 15) | (v[6] << 46);
  std::memcpy(out + 40, &w, 8);
  w = (v[6] >> 18) | (v[7] << 43);
  std::memcpy(out + 48, &w, 8);
  w = v[7] >> 21;  // remaining 40 bits
  std::memcpy(out + 56, &w, 5);
}

void unpack_block_portable(const std::uint8_t* in, std::uint64_t* v) {
  std::uint64_t W[7];
  std::memcpy(W, in, 56);
  std::uint64_t w53;
  std::memcpy(&w53, in + 53, 8);
  v[0] = W[0] & kMask61;
  v[1] = ((W[0] >> 61) | (W[1] << 3)) & kMask61;
  v[2] = ((W[1] >> 58) | (W[2] << 6)) & kMask61;
  v[3] = ((W[2] >> 55) | (W[3] << 9)) & kMask61;
  v[4] = ((W[3] >> 52) | (W[4] << 12)) & kMask61;
  v[5] = ((W[4] >> 49) | (W[5] << 15)) & kMask61;
  v[6] = ((W[5] >> 46) | (W[6] << 18)) & kMask61;
  v[7] = (w53 >> 3) & kMask61;
}

std::size_t presence_mask_portable(const std::uint64_t* v, std::size_t len,
                                   std::uint64_t absent, std::uint8_t* mask,
                                   std::uint64_t* seen) {
  std::size_t present = 0;
  std::uint64_t or_present = 0;
  for (std::size_t b = 0; b * 8 < len; ++b) {
    const std::size_t count = len - 8 * b < 8 ? len - 8 * b : 8;
    unsigned m = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t x = v[8 * b + k];
      const unsigned bit = x != absent;
      m |= bit << k;
      present += bit;
      or_present |= x & (std::uint64_t{0} - bit);
    }
    mask[b] = static_cast<std::uint8_t>(m);
  }
  *seen |= or_present;
  return present;
}

void pack_block(const std::uint64_t* v, std::uint8_t* out) {
#if SSBFT_HAVE_AVX2
  if (avx2_available()) {
    pack_block_avx2(v, out);
    return;
  }
#endif
  pack_block_portable(v, out);
}

std::size_t presence_mask(const std::uint64_t* v, std::size_t len,
                          std::uint64_t absent, std::uint8_t* mask,
                          std::uint64_t* seen) {
#if SSBFT_HAVE_AVX2
  if (avx2_available()) return presence_mask_avx2(v, len, absent, mask, seen);
#endif
  return presence_mask_portable(v, len, absent, mask, seen);
}

void unpack_block(const std::uint8_t* in, std::uint64_t* v) {
#if SSBFT_HAVE_AVX2
  if (avx2_available()) {
    unpack_block_avx2(in, v);
    return;
  }
#endif
  unpack_block_portable(in, v);
}

}  // namespace bitpack61
}  // namespace ssbft
