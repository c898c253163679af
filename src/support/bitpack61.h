// Bulk bit-packing kernels for 61-bit values.
//
// The masked wire codec (support/bytes.h) packs canonical Mersenne-61
// field elements at 61 bits each. Eight such values occupy exactly
// 61 bytes (8 * 61 = 488 bits), so the stream stays byte-aligned at every
// 8-value boundary and full blocks can be assembled with straight 64-bit
// word shifts — no 128-bit accumulator window. The kernels here produce /
// consume exactly the same bit layout as the scalar window in bytes.cpp
// (LSB-first, value k at bit offset 61*k), so the wire bytes are identical
// byte for byte; support_test pins this.
//
// Dispatch mirrors the field kernels (see field/fp.h): an AVX2 variant is
// selected by the cached CPUID probe of support/avx2.h, the portable
// variant is the always-available fallback, and -DSSBFT_SIMD=off removes
// the block path from the codec entirely (bytes.cpp then runs the
// reference window).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft {
namespace bitpack61 {

constexpr unsigned kValueBits = 61;
constexpr std::size_t kBlockValues = 8;
constexpr std::size_t kBlockBytes = 61;  // 8 * 61 bits, byte-aligned

// Packs v[0..8) (each < 2^61) into exactly 61 bytes at out, LSB-first.
void pack_block(const std::uint64_t* v, std::uint8_t* out);

// Unpacks 61 bytes at in into v[0..8), masking each value to 61 bits.
void unpack_block(const std::uint8_t* in, std::uint64_t* v);

// Presence mask of the masked codec: writes ceil(len/8) bytes at mask,
// bit i (byte i/8, bit i%8) set iff v[i] != absent and bits >= len clear,
// built without branches. ORs every present value into *seen (for the
// caller's one width check) and returns the number of present values.
std::size_t presence_mask(const std::uint64_t* v, std::size_t len,
                          std::uint64_t absent, std::uint8_t* mask,
                          std::uint64_t* seen);

// Portable reference variants (exposed so tests can cross-check the
// dispatched kernels on AVX2 machines).
void pack_block_portable(const std::uint64_t* v, std::uint8_t* out);
void unpack_block_portable(const std::uint8_t* in, std::uint64_t* v);
std::size_t presence_mask_portable(const std::uint64_t* v, std::size_t len,
                                   std::uint64_t absent, std::uint8_t* mask,
                                   std::uint64_t* seen);

}  // namespace bitpack61
}  // namespace ssbft
