// The one build guard and CPU probe of the runtime-dispatched AVX2
// kernels (field/fp_simd.cpp, support/bitpack61.cpp).
//
// SSBFT_HAVE_AVX2 is 1 whenever the compiler targets x86-64 with GNU
// attribute support and the build did not opt out (-DSSBFT_SIMD=off sets
// SSBFT_SIMD_DISABLED). The kernels carry target("avx2") attributes, so
// the base build needs no -mavx2; avx2_available() selects them at
// runtime only on CPUs that actually have AVX2.
#pragma once

#if defined(__GNUC__) && defined(__x86_64__) && !defined(SSBFT_SIMD_DISABLED)
#define SSBFT_HAVE_AVX2 1
#else
#define SSBFT_HAVE_AVX2 0
#endif

namespace ssbft {

// True iff the AVX2 kernels are compiled in and this CPU supports them.
// Probed once per process (cached static).
inline bool avx2_available() {
#if SSBFT_HAVE_AVX2
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

}  // namespace ssbft
