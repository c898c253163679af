#include "field/primes.h"

#include <initializer_list>

namespace ssbft {

namespace {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod(std::uint64_t a, std::uint64_t e, std::uint64_t m) {
  std::uint64_t acc = 1 % m;
  a %= m;
  while (e != 0) {
    if (e & 1) acc = mulmod(acc, a, m);
    a = mulmod(a, a, m);
    e >>= 1;
  }
  return acc;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // n is odd and > 37 here.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // Sinclair's 7-witness set: exact for every 64-bit integer.
  for (std::uint64_t a : {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL,
                          9780504ULL, 1795265022ULL}) {
    std::uint64_t x = powmod(a % n, d, n);
    if (x == 0 || x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 1; i < r; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace ssbft
