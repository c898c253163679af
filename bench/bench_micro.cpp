// Microbenchmarks (google-benchmark): the kernels under the FM coin —
// field arithmetic and batch kernels, the masked wire codec, polynomial
// evaluation, Lagrange interpolation, Berlekamp-Welch decoding (clean fast
// path vs adversarial slow path) and GVSS dealing. Whole beats are timed
// end to end by the repo benchmark (perfbench/), not here.
#include <benchmark/benchmark.h>

#include "coin/gvss.h"
#include "field/reed_solomon.h"
#include "support/bytes.h"

namespace ssbft {
namespace {

void BM_FieldMul(benchmark::State& state) {
  PrimeField F;
  Rng rng(1);
  std::uint64_t a = F.uniform(rng), b = F.uniform(rng);
  for (auto _ : state) {
    a = F.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(2);
  std::uint64_t a = F.uniform_nonzero(rng);
  for (auto _ : state) {
    a = F.inv(a);
    benchmark::DoNotOptimize(a);
    if (a == 0) a = 1;
  }
}
BENCHMARK(BM_FieldInv);

// --- Field batch-kernel benchmarks ------------------------------------------
//
// The kernels behind the FM coin's share-matrix arithmetic. CI smokes these
// together with the codec and GVSS benchmarks (filter
// BM_FieldKernels|BM_Codec|BM_Gvss) so the perf path cannot rot silently.

void BM_FieldKernels_BatchInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(22);
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> vals(len), scratch(len);
  for (auto& v : vals) v = F.uniform_nonzero(rng);
  for (auto _ : state) {
    // Involution: inverting twice restores the inputs, so the working set
    // stays nonzero across iterations.
    F.batch_inv(vals.data(), len, scratch.data());
    benchmark::DoNotOptimize(vals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_FieldKernels_BatchInv)->Arg(16)->Arg(256);

// --- Wide-shape kernel benchmarks ------------------------------------------
//
// The large-n scaling grid's shapes: the n x (f+1) by (f+1) x n products
// and node-point evaluations of the GVSS rounds for n up to 128 (the two
// kernels with a runtime-dispatched SIMD backend), and the length-n batch
// inversion. Rerun against a -DSSBFT_SIMD=off build for the scalar
// reference on identical inputs.

void BM_FieldKernelsWide_MatMul(benchmark::State& state) {
  // A square-ish wide product: n x (f+1) times (f+1) x n, f = (n-1)/3 (the
  // GVSS recovery checks run 1-row slices of this shape).
  PrimeField F;
  Rng rng(32);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t w = (n - 1) / 3 + 1;
  std::vector<std::uint64_t> a(n * w), b(w * n), out(n * n);
  for (auto& x : a) x = F.uniform(rng);
  for (auto& x : b) x = F.uniform(rng);
  for (auto _ : state) {
    F.matmul(a.data(), b.data(), out.data(), n, w, n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * w * n));
}
BENCHMARK(BM_FieldKernelsWide_MatMul)->ArgName("n")->Arg(32)->Arg(64)
    ->Arg(128);

void BM_FieldKernelsWide_NodePoints(benchmark::State& state) {
  // The deal-receive evaluation pass: n received rows of f+1 coefficients,
  // f = (n-1)/3, stored coefficient-major, evaluated at every node point
  // 1..n. Items are Horner steps.
  PrimeField F;
  Rng rng(34);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t w = (n - 1) / 3 + 1;
  std::vector<std::uint64_t> coef(w * n), out(n * n);
  for (auto& x : coef) x = F.uniform(rng);
  for (auto _ : state) {
    F.eval_points(coef.data(), w, n, n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * w * n));
}
BENCHMARK(BM_FieldKernelsWide_NodePoints)->ArgName("n")->Arg(32)->Arg(64)
    ->Arg(128);

void BM_FieldKernelsWide_BatchInv(benchmark::State& state) {
  PrimeField F;
  Rng rng(33);
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> vals(len), scratch(len);
  for (auto& v : vals) v = F.uniform_nonzero(rng);
  for (auto _ : state) {
    F.batch_inv(vals.data(), len, scratch.data());
    benchmark::DoNotOptimize(vals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_FieldKernelsWide_BatchInv)->ArgName("n")->Arg(32)->Arg(128);

// --- Masked wire codec ------------------------------------------------------
//
// ByteWriter::masked_u64_vec and ByteReader::masked_u64_vec_into at the FM
// coin's shapes on fm-n64 (n = 64, f = 21, the last f ids faulty): a cross
// or share vector of len 64 with the 43 correct ids present, and a deal row
// of len 22, all present. Items are vector entries.

std::vector<std::uint64_t> codec_vector(std::size_t len, std::size_t present) {
  PrimeField F;
  Rng rng(41);
  std::vector<std::uint64_t> v(len, F.modulus());  // the coin's sentinel
  for (std::size_t i = 0; i < present; ++i) v[i] = F.uniform(rng);
  return v;
}

void BM_Codec_MaskedEncode(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto v = codec_vector(len, static_cast<std::size_t>(state.range(1)));
  const PrimeField F;
  ByteWriter w;
  for (auto _ : state) {
    w.clear();
    w.masked_u64_vec(v.data(), len, F.modulus(), F.value_bits());
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Codec_MaskedEncode)->ArgNames({"len", "present"})
    ->Args({64, 43})->Args({22, 22});

void BM_Codec_MaskedDecode(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto v = codec_vector(len, static_cast<std::size_t>(state.range(1)));
  const PrimeField F;
  ByteWriter w;
  w.masked_u64_vec(v.data(), len, F.modulus(), F.value_bits());
  std::vector<std::uint64_t> out(len);
  for (auto _ : state) {
    ByteReader r(w.data());
    benchmark::DoNotOptimize(r.masked_u64_vec_into(
        out.data(), len, F.modulus(), F.value_bits()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Codec_MaskedDecode)->ArgNames({"len", "present"})
    ->Args({64, 43})->Args({22, 22});

void BM_FieldKernels_ScalarInv(benchmark::State& state) {
  // Extended-Euclid scalar inverse (the batch path amortizes this away;
  // kept visible so regressions in the scalar route are caught too).
  PrimeField F;
  Rng rng(24);
  std::uint64_t a = F.uniform_nonzero(rng);
  for (auto _ : state) {
    a = F.inv(a);
    benchmark::DoNotOptimize(a);
    if (a == 0) a = 1;
  }
}
BENCHMARK(BM_FieldKernels_ScalarInv);

void BM_PolyEval(benchmark::State& state) {
  PrimeField F;
  Rng rng(3);
  Poly p = Poly::random(F, static_cast<int>(state.range(0)), rng);
  std::uint64_t x = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval(F, x));
  }
}
BENCHMARK(BM_PolyEval)->Arg(2)->Arg(4)->Arg(8);

void BM_LagrangeInterpolate(benchmark::State& state) {
  PrimeField F;
  Rng rng(4);
  const int deg = static_cast<int>(state.range(0));
  Poly p = Poly::random(F, deg, rng);
  std::vector<std::uint64_t> xs, ys;
  for (int i = 0; i <= deg; ++i) {
    xs.push_back(static_cast<std::uint64_t>(i + 1));
    ys.push_back(p.eval(F, static_cast<std::uint64_t>(i + 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_interpolate(F, xs, ys));
  }
}
BENCHMARK(BM_LagrangeInterpolate)->Arg(2)->Arg(4)->Arg(8);

// Clean shares: gvss_recover's interpolation fast path.
void BM_GvssRecoverClean(benchmark::State& state) {
  PrimeField F;
  Rng rng(5);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n; ++i) {
    shares.push_back({node_point(i), Poly(dealing.row_for(F, i)).eval(F, 0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gvss_recover(F, f, shares));
  }
}
BENCHMARK(BM_GvssRecoverClean)->Arg(1)->Arg(2)->Arg(4);

// f lying shares: the Berlekamp-Welch slow path.
void BM_GvssRecoverAdversarial(benchmark::State& state) {
  PrimeField F;
  Rng rng(6);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n; ++i) {
    std::uint64_t y = Poly(dealing.row_for(F, i)).eval(F, 0);
    if (i < f) y = F.uniform(rng);
    shares.push_back({node_point(i), y});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gvss_recover(F, f, shares));
  }
}
BENCHMARK(BM_GvssRecoverAdversarial)->Arg(1)->Arg(2)->Arg(4);

void BM_GvssDealing(benchmark::State& state) {
  PrimeField F;
  Rng rng(7);
  const auto f = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 3 * f + 1;
  for (auto _ : state) {
    auto d = GvssDealing::sample(F, f, rng);
    for (NodeId i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(d.row_for(F, i));
    }
  }
}
BENCHMARK(BM_GvssDealing)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace ssbft

BENCHMARK_MAIN();
