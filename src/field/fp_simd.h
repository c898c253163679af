// Vector backends for the two Mersenne-61 batch kernels on the coin's hot
// path: matmul (GVSS recovery) and eval_points (the node points).
//
// Everything here operates on canonical elements of Z_(2^61-1) (the
// PrimeField::kDefaultPrime fast path only — the generic-modulus path has
// no vector backend). The functions are total on every build: when no
// vector unit is compiled in or the CPU lacks it, they fall through to
// their portable paths, so tests can call them unconditionally and
// compare against the scalar reference.
//
// Dispatch contract (see the design note in field/fp.h): `available()`
// probes the CPU once (the cached support/avx2.h probe) and PrimeField
// consults it a single time at construction. The per-call branch inside
// each kernel reads the same cached flag — there is no per-element
// dispatch anywhere.
//
// Bit-exactness: every kernel returns the canonical representative of the
// exact field result, which is unique, so vector and scalar paths cannot
// diverge (tests/field_test.cpp pins this over adversarial inputs).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft {
namespace m61simd {

// True iff a vector backend is compiled in (x86-64 AVX2, unless the build
// set -DSSBFT_SIMD=off) and this CPU supports it. Evaluated once.
bool available();

// "avx2" when available(), else "scalar" (diagnostics / bench context).
const char* backend_name();

// out = a * b mod 2^61-1 for row-major a (rows x inner), b (inner x cols)
// and out (rows x cols); out must not alias a or b. The vector path works
// on strips of 16 output columns (four 4-lane vectors sharing each
// broadcast a[r][i]): products split into 32-bit partial products that
// accumulate unreduced, fold once per two products, and each output is
// canonicalized once. Column tails run as narrower strips with a masked
// last vector.
void matmul(const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out, std::size_t rows, std::size_t inner,
            std::size_t cols);

// The portable path of matmul (and its fallback without a vector unit):
// 128-bit accumulators take up to 64 raw products (each < 2^122) between
// folds. PrimeField runs it for SimdMode::kOff on the Mersenne prime.
void matmul_scalar(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t rows, std::size_t inner,
                   std::size_t cols);

// Evaluates `cols` polynomials of w >= 1 coefficients (coef: w x cols,
// coefficient-major) at x = 1..count, count < 2^20, into out (count rows,
// out_stride >= cols apart); out must not alias coef. Horner's rule with
// an unreduced accumulator: on the vector path each step multiplies by
// the small point x with two 32-bit products and one partial fold, and
// each output is canonicalized once. It evaluates strips of 16 columns at
// two points at a time, with a masked last vector on the column tail.
void eval_points(const std::uint64_t* coef, std::size_t w, std::size_t cols,
                 std::size_t count, std::uint64_t* out, std::size_t out_stride);

// The portable path of eval_points (and its fallback without a vector
// unit): one 64x64 -> 128-bit product and one fold per step, eight points
// per pass. PrimeField runs it for SimdMode::kOff on the Mersenne prime.
void eval_points_scalar(const std::uint64_t* coef, std::size_t w,
                        std::size_t cols, std::size_t count,
                        std::uint64_t* out, std::size_t out_stride);

}  // namespace m61simd
}  // namespace ssbft
