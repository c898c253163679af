// Primality testing: PrimeField's constructor rejects a composite modulus.
//
// Remark 2.3: the coin protocol needs a prime p > n that is part of the
// code, so that a node recovering from a transient fault re-derives the
// same field. The FM coin's is 2^61 - 1 (PrimeField::kDefaultPrime) unless
// FmCoinParams::prime names another.
#pragma once

#include <cstdint>

namespace ssbft {

// Deterministic Miller-Rabin, exact for all 64-bit integers (fixed witness
// set proven sufficient for < 3.3 * 10^24).
bool is_prime_u64(std::uint64_t n);

}  // namespace ssbft
