// google-benchmark micro-benchmarks for the library's hot primitives:
// kernel evaluation, node-bound computation (SOTA vs KARL), tree
// construction, and single queries. Not a paper table — these guard
// against performance regressions in the building blocks.
//
// Custom main (instead of benchmark_main): strips a leading --threads=N
// flag, which adds a BM_BatchTkaq instance at that worker count on top
// of the built-in {1, 2, 8} sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/karl.h"
#include "core/simd/simd.h"
#include "core/simd/soa_block.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using karl::core::BoundKind;
using karl::core::KernelParams;

karl::data::Matrix MakePoints(size_t n, size_t d) {
  karl::util::Rng rng(5);
  return karl::data::SampleClustered(n, d, 4, 0.06, rng);
}

void BM_KernelValueGaussian(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(2, d);
  const auto kernel = KernelParams::Gaussian(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        karl::core::KernelValue(kernel, pts.Row(0), pts.Row(1)));
  }
}
BENCHMARK(BM_KernelValueGaussian)->Arg(10)->Arg(50)->Arg(200);

void BM_KernelValuePolynomial(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(2, d);
  const auto kernel = KernelParams::Polynomial(0.1, 0.0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        karl::core::KernelValue(kernel, pts.Row(0), pts.Row(1)));
  }
}
BENCHMARK(BM_KernelValuePolynomial)->Arg(10)->Arg(50);

template <BoundKind kKind>
void BM_GaussianNodeBounds(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(4096, d);
  const std::vector<double> weights(pts.rows(), 1.0);
  auto tree = karl::index::KdTree::Build(pts, weights, 64).ValueOrDie();
  const auto kernel = KernelParams::Gaussian(4.0);
  auto bounds = karl::core::MakeBoundFunction(kernel, kKind).ValueOrDie();
  const std::vector<double> q(d, 0.5);
  const auto ctx = karl::core::QueryContext::Make(q);
  double lb = 0.0, ub = 0.0;
  for (auto _ : state) {
    bounds->NodeBounds(*tree, tree->root(), ctx, &lb, &ub);
    benchmark::DoNotOptimize(lb);
    benchmark::DoNotOptimize(ub);
  }
}
BENCHMARK(BM_GaussianNodeBounds<BoundKind::kSota>)->Arg(10)->Arg(50);
BENCHMARK(BM_GaussianNodeBounds<BoundKind::kKarl>)->Arg(10)->Arg(50);

template <BoundKind kKind>
void BM_SigmoidNodeBounds(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(4096, d);
  const std::vector<double> weights(pts.rows(), 1.0);
  auto tree = karl::index::KdTree::Build(pts, weights, 64).ValueOrDie();
  const auto kernel = KernelParams::Sigmoid(0.5, -0.2);
  auto bounds = karl::core::MakeBoundFunction(kernel, kKind).ValueOrDie();
  const std::vector<double> q(d, 0.5);
  const auto ctx = karl::core::QueryContext::Make(q);
  double lb = 0.0, ub = 0.0;
  for (auto _ : state) {
    bounds->NodeBounds(*tree, tree->root(), ctx, &lb, &ub);
    benchmark::DoNotOptimize(lb);
  }
}
BENCHMARK(BM_SigmoidNodeBounds<BoundKind::kSota>)->Arg(20);
BENCHMARK(BM_SigmoidNodeBounds<BoundKind::kKarl>)->Arg(20);

void BM_KdTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(n, 18);
  const std::vector<double> weights(pts.rows(), 1.0);
  for (auto _ : state) {
    auto tree = karl::index::KdTree::Build(pts, weights, 80).ValueOrDie();
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_BallTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(n, 18);
  const std::vector<double> weights(pts.rows(), 1.0);
  for (auto _ : state) {
    auto tree = karl::index::BallTree::Build(pts, weights, 80).ValueOrDie();
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BallTreeBuild)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

template <BoundKind kKind>
void BM_TkaqQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(n, 18);
  karl::EngineOptions options;
  options.kernel = KernelParams::Gaussian(8.0);
  options.bounds = kKind;
  auto engine = karl::Engine::BuildUniform(pts, 1.0, options).ValueOrDie();
  const std::vector<double> q(18, 0.5);
  const double tau = engine.Exact(q) * 1.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Tkaq(q, tau));
  }
}
BENCHMARK(BM_TkaqQuery<BoundKind::kSota>)->Arg(100000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TkaqQuery<BoundKind::kKarl>)->Arg(100000)->Unit(benchmark::kMicrosecond);

// Same query with the telemetry registry attached — compare against
// BM_TkaqQuery<kKarl> to see the cost of the enabled instrumentation
// path (the disabled path is what BM_TkaqQuery itself measures).
void BM_TkaqQueryInstrumented(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(n, 18);
  karl::telemetry::Registry registry;
  karl::EngineOptions options;
  options.kernel = KernelParams::Gaussian(8.0);
  options.bounds = BoundKind::kKarl;
  options.metrics = &registry;
  auto engine = karl::Engine::BuildUniform(pts, 1.0, options).ValueOrDie();
  const std::vector<double> q(18, 0.5);
  const double tau = engine.Exact(q) * 1.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Tkaq(q, tau));
  }
}
BENCHMARK(BM_TkaqQueryInstrumented)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_ExactScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(n, 18);
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto kernel = KernelParams::Gaussian(8.0);
  const std::vector<double> q(18, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        karl::core::ExactAggregate(pts, weights, kernel, q));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactScan)->Arg(100000)->Unit(benchmark::kMicrosecond);

// Parallel batch engine: one query block fanned over a worker pool.
// Arg = worker-thread count (1 = serial batch path, no pool); items/s is
// queries per second, so the ratio across args is the batch speedup.
void BM_BatchTkaq(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const auto pts = MakePoints(50000, 18);
  karl::EngineOptions options;
  options.kernel = KernelParams::Gaussian(8.0);
  auto engine = karl::Engine::BuildUniform(pts, 1.0, options).ValueOrDie();
  karl::util::Rng rng(17);
  karl::data::Matrix queries(128, 18);
  for (size_t i = 0; i < queries.rows(); ++i) {
    for (double& v : queries.MutableRow(i)) v = rng.Uniform(0.0, 1.0);
  }
  const std::vector<double> probe(18, 0.5);
  const double tau = engine.Exact(probe) * 1.2;

  std::unique_ptr<karl::util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<karl::util::ThreadPool>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.TkaqBatch(queries, tau, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.rows()));
}
BENCHMARK(BM_BatchTkaq)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// SIMD hot-path micro-kernels, registered per reachable tier from
// main() (see below): the exact-leaf aggregate over the blocked SoA
// layout and the linear-bound dot product — the two inner loops the
// core/simd tiers vectorize. Compare scalar vs avx2/avx512 instances of
// the same benchmark to read off the tier speedup.

void BM_SimdLeafAggregate(benchmark::State& state, karl::core::simd::Tier tier,
                          size_t d) {
  namespace simd = karl::core::simd;
  const simd::Tier saved = simd::ActiveTier();
  simd::ForceTier(tier);
  const size_t n = 4096;
  const auto pts = MakePoints(n, d);
  simd::BlockStorage coords(simd::SoaLeafBlocks::NumBlocks(n) * d *
                            simd::SoaLeafBlocks::kBlockPoints);
  for (size_t i = 0; i < n; ++i) {
    std::copy(pts.Row(i).begin(), pts.Row(i).end(), coords.begin() + i * d);
  }
  simd::SoaLeafBlocks soa;
  soa.BuildFromRows(n, d, std::move(coords), std::vector<double>(n, 0.7));
  const auto kernel = KernelParams::Gaussian(3.0 / static_cast<double>(d));
  const std::vector<double> q(d, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::LeafAggregate(kernel, soa, 0, static_cast<uint32_t>(n), q));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  simd::ForceTier(saved);
}

void BM_SimdLinearBoundDot(benchmark::State& state,
                           karl::core::simd::Tier tier, size_t d) {
  namespace simd = karl::core::simd;
  const simd::Tier saved = simd::ActiveTier();
  simd::ForceTier(tier);
  karl::util::Rng rng(3);
  std::vector<double> q(d), summary(d);
  for (size_t j = 0; j < d; ++j) {
    q[j] = rng.Uniform(-1.0, 1.0);
    summary[j] = rng.Uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(q, summary));
  }
  simd::ForceTier(saved);
}

void RegisterSimdBenchmarks() {
  namespace simd = karl::core::simd;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::TierSupported(tier)) continue;
    const std::string suffix(simd::TierName(tier));
    for (const size_t d : {8, 16, 33, 64, 100}) {
      benchmark::RegisterBenchmark(
          ("BM_SimdLeafAggregate/" + suffix + "/d" + std::to_string(d))
              .c_str(),
          BM_SimdLeafAggregate, tier, d)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          ("BM_SimdLinearBoundDot/" + suffix + "/d" + std::to_string(d))
              .c_str(),
          BM_SimdLinearBoundDot, tier, d);
    }
  }
}

}  // namespace

// benchmark_main replacement so the binary accepts --threads=N (an
// extra BM_BatchTkaq instance at that count) before handing the rest of
// the command line to google-benchmark, which rejects unknown flags.
int main(int argc, char** argv) {
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<size_t>(argc));
  passthrough.push_back(argv[0]);
  long extra_threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      extra_threads = std::atol(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      extra_threads = std::atol(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (extra_threads > 0) {
    benchmark::RegisterBenchmark("BM_BatchTkaq/requested", BM_BatchTkaq)
        ->Arg(extra_threads)
        ->Unit(benchmark::kMillisecond);
  }
  RegisterSimdBenchmarks();
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
