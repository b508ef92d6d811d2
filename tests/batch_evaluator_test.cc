// Concurrency tests for the batch-query engine (core/batch.h): batch
// results must be bit-identical to the serial query loop for every
// kernel, weighting type and thread count; per-worker
// EvalStats must merge to exactly the serial totals; and the whole
// surface must be clean under TSan (CI job tsan-batch) with telemetry
// attached.
//
// SIMD note: the serial-vs-batch EXPECT_EQs below stay bit-exact even
// with the vectorized leaf path engaged, because both routes run the
// SAME per-query evaluator code under the one process-wide SIMD tier
// (core/simd) — work distribution never changes per-query arithmetic.
// Only comparisons ACROSS tiers are tolerance-level (see the
// cross-tier test at the bottom, and core/simd/simd.h for the
// contract); BatchIsBitStableUnderEverySimdTier pins the bit-exact
// half per reachable tier.
//
// KARL_TEST_THREADS (default 8) sets the largest pool size exercised.

#include "core/batch.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "core/karl.h"
#include "core/simd/simd.h"
#include "data/synthetic.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace karl {
namespace {

using core::BatchEvaluator;
using core::BatchOptions;
using core::EvalStats;
using core::KernelParams;

size_t TestThreads() {
  const char* env = std::getenv("KARL_TEST_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 8;
}

struct BatchCase {
  int kernel_id;  // 0 gaussian, 1 laplacian, 2 poly3, 3 sigmoid
  int weighting;  // 1, 2, 3
};

KernelParams KernelForCase(const BatchCase& bc, size_t d) {
  const double gamma = 1.0 / static_cast<double>(d);
  switch (bc.kernel_id) {
    case 0:
      return KernelParams::Gaussian(8.0);
    case 1:
      return KernelParams::Laplacian(4.0);
    case 2:
      return KernelParams::Polynomial(gamma, 0.1, 3);
    default:
      return KernelParams::Sigmoid(gamma, 0.05);
  }
}

std::vector<double> WeightsForCase(const BatchCase& bc, size_t n,
                                   util::Rng& rng) {
  std::vector<double> w(n);
  for (auto& v : w) {
    switch (bc.weighting) {
      case 1:
        v = 0.7;
        break;
      case 2:
        v = rng.Uniform(0.05, 1.5);
        break;
      default:
        v = rng.Uniform(-1.0, 1.0);
        if (v == 0.0) v = 0.5;
        break;
    }
  }
  return w;
}

data::Matrix MakeQueries(size_t n, size_t d, util::Rng& rng) {
  data::Matrix q(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : q.MutableRow(i)) v = rng.Uniform(-0.1, 1.1);
  }
  return q;
}

class BatchDeterminismTest : public ::testing::TestWithParam<BatchCase> {};

// The headline contract: for every kernel x weighting combination, the
// batch path with 1, 2 and KARL_TEST_THREADS workers is bit-identical
// (EXPECT_EQ on doubles, no tolerance) to the plain serial query loop.
TEST_P(BatchDeterminismTest, BatchMatchesSerialBitExactly) {
  const BatchCase bc = GetParam();
  util::Rng rng(77 + bc.kernel_id * 10 + bc.weighting);
  const size_t d = 4;
  const data::Matrix pts = data::SampleClustered(300, d, 3, 0.08, rng);
  const auto weights = WeightsForCase(bc, pts.rows(), rng);

  EngineOptions options;
  options.kernel = KernelForCase(bc, d);
  auto engine = Engine::Build(pts, weights, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const data::Matrix queries = MakeQueries(40, d, rng);
  const size_t n = queries.rows();

  // Serial reference via the plain per-query API.
  const double tau = 0.5;
  const double eps = 0.2;
  std::vector<uint8_t> serial_tkaq(n);
  std::vector<double> serial_ekaq(n), serial_exact(n);
  for (size_t i = 0; i < n; ++i) {
    serial_tkaq[i] = engine.value().Tkaq(queries.Row(i), tau) ? 1 : 0;
    if (bc.weighting != 3) {
      serial_ekaq[i] = engine.value().Ekaq(queries.Row(i), eps);
    }
    serial_exact[i] = engine.value().Exact(queries.Row(i));
  }

  for (const size_t threads : {size_t{1}, size_t{2}, TestThreads()}) {
    util::ThreadPool pool(threads);
    const auto tkaq = engine.value().TkaqBatch(queries, tau, &pool);
    const auto exact = engine.value().ExactBatch(queries, &pool);
    ASSERT_EQ(tkaq.size(), n);
    ASSERT_EQ(exact.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(tkaq[i], serial_tkaq[i]) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(exact[i], serial_exact[i])  // Bit-identical, no tolerance.
          << "threads=" << threads << " i=" << i;
    }
    if (bc.weighting != 3) {
      const auto ekaq = engine.value().EkaqBatch(queries, eps, &pool);
      ASSERT_EQ(ekaq.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ekaq[i], serial_ekaq[i])
            << "threads=" << threads << " i=" << i;
      }
    }
  }

  // Null pool: the serial batch path is the same loop too.
  EXPECT_EQ(engine.value().TkaqBatch(queries, tau), serial_tkaq);
  EXPECT_EQ(engine.value().ExactBatch(queries), serial_exact);
}

std::string BatchCaseName(const ::testing::TestParamInfo<BatchCase>& info) {
  static const char* const kKernels[] = {"Gauss", "Laplace", "Poly3",
                                         "Sigmoid"};
  return std::string(kKernels[info.param.kernel_id]) + "W" +
         std::to_string(info.param.weighting);
}

std::vector<BatchCase> MakeBatchCases() {
  std::vector<BatchCase> cases;
  for (int kernel_id = 0; kernel_id < 4; ++kernel_id) {
    for (int weighting = 1; weighting <= 3; ++weighting) {
      cases.push_back(BatchCase{kernel_id, weighting});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllWeightings, BatchDeterminismTest,
                         ::testing::ValuesIn(MakeBatchCases()), BatchCaseName);

// Shared fixture for the non-parameterised cases: one Type-II Gaussian
// engine plus a query block.
struct BatchFixture {
  data::Matrix pts;
  std::vector<double> weights;
  data::Matrix queries;
  util::Result<Engine> engine;

  explicit BatchFixture(telemetry::Registry* metrics = nullptr,
                        telemetry::TraceRecorder* tracer = nullptr)
      : engine(Build(metrics, tracer)) {}

 private:
  util::Result<Engine> Build(telemetry::Registry* metrics,
                             telemetry::TraceRecorder* tracer) {
    util::Rng rng(4321);
    pts = data::SampleClustered(400, 5, 3, 0.08, rng);
    weights.resize(pts.rows());
    for (auto& w : weights) w = rng.Uniform(0.05, 1.5);
    queries = MakeQueries(60, 5, rng);
    EngineOptions options;
    options.kernel = KernelParams::Gaussian(6.0);
    options.metrics = metrics;
    options.tracer = tracer;
    return Engine::Build(pts, weights, options);
  }
};

// Satellite-3 regression: sharing one plain-integer EvalStats across
// workers was a data race (TSan: concurrent size_t increments from
// Evaluator::QueryThreshold). The fix accumulates into per-slot
// EvalStats merged once per batch — so under TSan this test must be
// silent, and the merged totals must equal the serial totals EXACTLY
// (work counters are integers and every query does identical work
// regardless of which thread runs it).
TEST(BatchEvaluatorTest, MergedStatsEqualSerialStatsExactly) {
  BatchFixture fx;
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();

  EvalStats serial;
  for (size_t i = 0; i < fx.queries.rows(); ++i) {
    (void)fx.engine.value().Tkaq(fx.queries.Row(i), 0.5, &serial);
  }

  for (const size_t threads : {size_t{2}, TestThreads()}) {
    util::ThreadPool pool(threads);
    EvalStats batched;
    (void)fx.engine.value().TkaqBatch(fx.queries, 0.5, &pool, &batched);
    EXPECT_EQ(batched.iterations, serial.iterations) << "threads=" << threads;
    EXPECT_EQ(batched.nodes_expanded, serial.nodes_expanded)
        << "threads=" << threads;
    EXPECT_EQ(batched.kernel_evals, serial.kernel_evals)
        << "threads=" << threads;
  }
}

TEST(BatchEvaluatorTest, InstrumentedBatchUnderConcurrencyIsCoherent) {
  // Registry + tracer attached while the batch fans out: evaluator
  // counters are atomic and the tracer is internally locked, so the
  // totals must come out exact and TSan must stay silent.
  telemetry::Registry registry;
  telemetry::TraceRecorder tracer;
  BatchFixture fx(&registry, &tracer);
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();

  EvalStats serial;
  for (size_t i = 0; i < fx.queries.rows(); ++i) {
    (void)fx.engine.value().Exact(fx.queries.Row(i), &serial);
  }

  util::ThreadPool pool(TestThreads());
  EvalStats batched;
  const auto out = fx.engine.value().ExactBatch(fx.queries, &pool, &batched);
  ASSERT_EQ(out.size(), fx.queries.rows());
  EXPECT_EQ(batched.kernel_evals, serial.kernel_evals);

  EXPECT_EQ(registry.GetCounter("karl_batch_batches_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("karl_batch_queries_total")->value(),
            fx.queries.rows());
  EXPECT_EQ(registry.GetRollingHistogram("karl_batch_usec")->count(), 1u);
  EXPECT_EQ(registry.GetGauge("karl_batch_executors")->value(),
            static_cast<double>(pool.num_threads() + 1));
}

TEST(BatchEvaluatorTest, ManyBatchesShareOneEngineAndPool) {
  // N threads x M queries against one shared Engine through one shared
  // pool, repeatedly — the ISSUE's stress shape. Every round must
  // reproduce the reference bit-exactly.
  BatchFixture fx;
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();
  util::ThreadPool pool(TestThreads());
  const auto reference = fx.engine.value().ExactBatch(fx.queries);
  for (int round = 0; round < 25; ++round) {
    ASSERT_EQ(fx.engine.value().ExactBatch(fx.queries, &pool), reference)
        << "round " << round;
  }
}

TEST(BatchEvaluatorTest, ConcurrentCallersOnOneEngine) {
  // Several OS threads each running serial batches against the same
  // Engine: pins the documented thread-safety contract of the const
  // query surface itself (no pool involved, pure shared-read).
  BatchFixture fx;
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();
  const auto reference = fx.engine.value().ExactBatch(fx.queries);

  std::vector<std::thread> callers;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&fx, &reference, &mismatches, t] {
      EvalStats stats;  // Thread-private, per the contract.
      const auto out = fx.engine.value().ExactBatch(
          fx.queries, /*pool=*/nullptr, &stats);
      if (out != reference) mismatches[t] = 1;
    });
  }
  for (auto& t : callers) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "caller " << t;
}

// Satellite regression for the SIMD PR: under EVERY tier the host can
// run — forced through the core/simd test seam — batch results across
// thread counts are bit-identical to each other and to the serial
// per-query loop run under the same tier. Vectorization may only change
// results across tiers, never across work distributions.
TEST(BatchEvaluatorTest, BatchIsBitStableUnderEverySimdTier) {
  namespace simd = core::simd;
  BatchFixture fx;
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();

  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierSupported(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::TierSupported(simd::Tier::kAvx512)) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  const simd::Tier saved = simd::ActiveTier();

  for (const simd::Tier tier : tiers) {
    simd::ForceTier(tier);
    // Serial reference under this tier.
    const size_t n = fx.queries.rows();
    std::vector<double> serial(n);
    for (size_t i = 0; i < n; ++i) {
      serial[i] = fx.engine.value().Exact(fx.queries.Row(i));
    }

    for (const size_t threads : {size_t{1}, size_t{2}, TestThreads()}) {
      util::ThreadPool pool(threads);
      BatchOptions options;
      options.pool = &pool;
      const BatchEvaluator batch(fx.engine.value(), options);
      EXPECT_EQ(batch.Exact(fx.queries), serial)  // Bit-identical.
          << simd::TierName(tier) << " threads=" << threads;
    }
  }
  simd::ForceTier(saved);
}

// The tolerance-aware half: results ACROSS tiers agree only within the
// core/simd accuracy contract (reordered reductions + vector exp), not
// bit-for-bit — this is the one place vectorization is allowed to move
// a result, and the tolerance here is the documented bound, not a
// loosened test.
TEST(BatchEvaluatorTest, CrossTierBatchResultsAgreeWithinContract) {
  namespace simd = core::simd;
  BatchFixture fx;
  ASSERT_TRUE(fx.engine.ok()) << fx.engine.status().ToString();
  const simd::Tier saved = simd::ActiveTier();

  simd::ForceTier(simd::Tier::kScalar);
  const auto scalar = fx.engine.value().ExactBatch(fx.queries);

  for (const simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::TierSupported(tier)) continue;
    simd::ForceTier(tier);
    const auto vec = fx.engine.value().ExactBatch(fx.queries);
    ASSERT_EQ(vec.size(), scalar.size());
    for (size_t i = 0; i < vec.size(); ++i) {
      // Fixture weights are positive, so |exact| is the absolute mass;
      // 4x covers the traversal splitting the sum across leaf ranges.
      EXPECT_NEAR(vec[i], scalar[i],
                  4.0 * simd::kLeafSumRelTolerance * (1.0 + scalar[i]))
          << simd::TierName(tier) << " i=" << i;
    }
  }
  simd::ForceTier(saved);
}

}  // namespace
}  // namespace karl
