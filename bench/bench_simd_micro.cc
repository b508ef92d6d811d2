// SIMD hot-path speedup harness: measures the vectorized evaluator
// micro-kernels (exact-leaf aggregation over the blocked SoA layout and
// the linear-bound dot product) under the scalar tier and under the best
// tier the host supports, and prints the speedup per dimensionality.
//
// Records gauges (dumped to the karl-bench-v1 JSON via
// KARL_BENCH_JSON_OUT, committed as BENCH_simd.json at the repo root):
//   karl_bench_simd_leaf_<kernel>_d<d>_scalar_mpps   scalar tier, Mpoints/s
//   karl_bench_simd_leaf_<kernel>_d<d>_vector_mpps   best tier, Mpoints/s
//   karl_bench_simd_leaf_<kernel>_d<d>_speedup       vector / scalar
//   karl_bench_simd_dot_d<d>_speedup                 linear-bound dot
//   karl_bench_simd_best_tier                        numeric Tier value
//
// The acceptance bar for the SIMD PR — and the CI bench-smoke assertion
// — is speedup >= 1.0 (never slower than scalar) on every row, with the
// leaf and dot kernels expected well above 2x for d >= 8 on AVX2+
// hardware.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/kernel.h"
#include "core/simd/simd.h"
#include "core/simd/soa_block.h"
#include "util/rng.h"

namespace {

namespace simd = karl::core::simd;
using karl::core::KernelParams;

// Defeats dead-code elimination across timed loops.
volatile double g_sink = 0.0;

// Best wall-clock of `repeats` runs of f() — the usual micro-benchmark
// noise filter on a single-core box.
template <typename F>
double BestSeconds(F&& f, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct LeafFixture {
  karl::data::Matrix pts;
  std::vector<double> weights;
  simd::SoaLeafBlocks soa;
  std::vector<double> q;

  LeafFixture(size_t n, size_t d) : pts(n, d), weights(n, 0.7), q(d) {
    karl::util::Rng rng(42 + static_cast<uint64_t>(d));
    for (size_t i = 0; i < n; ++i) {
      for (double& v : pts.MutableRow(i)) v = rng.Uniform(-1.0, 1.0);
    }
    for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
    std::vector<size_t> rows(n);
    std::iota(rows.begin(), rows.end(), size_t{0});
    soa.Build(pts, rows, weights);
  }
};

// Mpoints/s of LeafAggregate over the full range under `tier`.
double MeasureLeaf(simd::Tier tier, const KernelParams& kernel,
                   const LeafFixture& fx, int iters) {
  simd::ForceTier(tier);
  const auto n = static_cast<uint32_t>(fx.soa.rows());
  const auto run = [&] {
    double acc = 0.0;
    for (int it = 0; it < iters; ++it) {
      acc += simd::LeafAggregate(kernel, fx.soa, 0, n, fx.q);
    }
    g_sink = acc;
  };
  run();  // Warm-up.
  const double secs = BestSeconds(run, 3);
  return static_cast<double>(iters) * static_cast<double>(n) / secs / 1e6;
}

// Mdots/s of the linear-bound dot product under `tier`.
double MeasureDot(simd::Tier tier, size_t d, int iters) {
  simd::ForceTier(tier);
  karl::util::Rng rng(7 + static_cast<uint64_t>(d));
  std::vector<double> q(d), summary(d);
  for (size_t j = 0; j < d; ++j) {
    q[j] = rng.Uniform(-1.0, 1.0);
    summary[j] = rng.Uniform(-1.0, 1.0);
  }
  // Four independent accumulator chains: traversal computes bounds for
  // independent frontier nodes, so throughput — not the latency of one
  // serially-chained dot — is what the evaluator sees.
  const auto run = [&] {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (int it = 0; it + 4 <= iters; it += 4) {
      a0 += simd::Dot(q, summary);
      a1 += simd::Dot(q, summary);
      a2 += simd::Dot(q, summary);
      a3 += simd::Dot(q, summary);
    }
    g_sink = a0 + a1 + a2 + a3;
  };
  run();
  const double secs = BestSeconds(run, 3);
  return static_cast<double>(iters) / secs / 1e6;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main() {
  const simd::Tier best = simd::DetectBestTier();
  karl::bench::RecordBenchMetric("simd_best_tier",
                                 static_cast<double>(best));
  std::printf("SIMD micro-kernel speedup: scalar vs %s\n",
              std::string(simd::TierName(best)).c_str());
  if (best == simd::Tier::kScalar) {
    std::printf("host has no vector tier; nothing to compare\n");
    return 0;
  }

  const size_t n = 8192;
  const int kLeafIters = 60;
  karl::bench::PrintTableHeader(
      {"kernel", "d", "scalar Mpts/s", "vector Mpts/s", "speedup"});
  // d = 10 and 54 are the served dims (home, covtype); d = 4 is small
  // enough for the loop overhead around each vector to show.
  for (const size_t d : {4, 8, 10, 16, 33, 54, 64, 100}) {
    const LeafFixture fx(n, d);
    const double dd = static_cast<double>(d);
    const struct {
      const char* name;
      KernelParams kernel;
    } kernels[] = {
        {"gaussian", KernelParams::Gaussian(3.0 / dd)},
        {"laplacian", KernelParams::Laplacian(2.0 / std::sqrt(dd))},
        {"poly3", KernelParams::Polynomial(0.4 / dd, 0.1, 3)},
    };
    for (const auto& k : kernels) {
      const double scalar = MeasureLeaf(simd::Tier::kScalar, k.kernel, fx,
                                        kLeafIters);
      const double vector = MeasureLeaf(best, k.kernel, fx, kLeafIters);
      const double speedup = vector / scalar;
      const std::string key =
          std::string("simd_leaf_") + k.name + "_d" + std::to_string(d);
      karl::bench::RecordBenchMetric(key + "_scalar_mpps", scalar);
      karl::bench::RecordBenchMetric(key + "_vector_mpps", vector);
      karl::bench::RecordBenchMetric(key + "_speedup", speedup);
      karl::bench::PrintTableRow({k.name, std::to_string(d), Fmt(scalar),
                                  Fmt(vector), Fmt(speedup)});
    }
  }

  std::printf("\nlinear-bound dot product\n");
  karl::bench::PrintTableHeader(
      {"d", "scalar Mdot/s", "vector Mdot/s", "speedup"});
  for (const size_t d : {8, 16, 33, 64, 100}) {
    const int iters = 2000000 / static_cast<int>(d);
    const double scalar = MeasureDot(simd::Tier::kScalar, d, iters);
    const double vector = MeasureDot(best, d, iters);
    const double speedup = vector / scalar;
    karl::bench::RecordBenchMetric("simd_dot_d" + std::to_string(d) +
                                       "_speedup",
                                   speedup);
    karl::bench::PrintTableRow(
        {std::to_string(d), Fmt(scalar), Fmt(vector), Fmt(speedup)});
  }
  simd::ForceTier(best);
  return 0;
}
