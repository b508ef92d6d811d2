// Property-based tests: randomised sweeps asserting the library's core
// invariants over many generated configurations.
//
//  P1. Bound validity: for every kernel, bound kind, tree, node and query,
//      lb ≤ Σ w_i K(q,p_i) ≤ ub.
//  P2. KARL dominance (Gaussian): KARL's node bounds are never looser
//      than SOTA's (Lemmas 3–4).
//  P3. Query correctness: TKAQ == (exact > τ) and eKAQ within ε, for any
//      tree/bound/weighting combination.
//  P4. Refinement monotonicity: global lb never decreases, ub never
//      increases during refinement.
//  P5. Linear-bound functions sandwich the profile pointwise on the
//      interval they were constructed for.
//  P6. Randomised batch queries match brute force (see below).
//  P7. The blocked SoA storage is a bit-exact re-layout of the permuted
//      input (built or attached from a snapshot), and vectorized queries
//      match brute force.
//  P8. The evaluator's direct bound calls give bit-identical answers
//      and work counts to the same bound function called virtually.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/karl.h"
#include "core/simd/simd.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "registry/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace karl {
namespace {

using core::BoundKind;
using core::Curvature;
using core::KernelParams;
using core::KernelProfile;
using core::LinearFn;

struct PropertyCase {
  uint64_t seed;
  size_t n;
  size_t d;
  index::IndexKind index_kind;
  size_t leaf_capacity;
  int kernel_id;   // 0 gaussian, 1 poly3, 2 poly2, 3 sigmoid
  int weighting;   // 1, 2, 3
};

KernelParams KernelForCase(const PropertyCase& pc, size_t d) {
  const double gamma = 1.0 / static_cast<double>(d);
  switch (pc.kernel_id) {
    case 0:
      return KernelParams::Gaussian(8.0 * gamma * static_cast<double>(d));
    case 1:
      return KernelParams::Polynomial(gamma, 0.1, 3);
    case 2:
      return KernelParams::Polynomial(gamma, -0.1, 2);
    default:
      return KernelParams::Sigmoid(gamma, 0.05);
  }
}

std::vector<double> WeightsForCase(const PropertyCase& pc, size_t n,
                                   util::Rng& rng) {
  std::vector<double> w(n);
  for (auto& v : w) {
    switch (pc.weighting) {
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

std::unique_ptr<index::TreeIndex> TreeForCase(const PropertyCase& pc,
                                              const data::Matrix& pts,
                                              std::span<const double> w) {
  if (pc.index_kind == index::IndexKind::kKdTree) {
    return index::KdTree::Build(pts, w, pc.leaf_capacity).ValueOrDie();
  }
  return index::BallTree::Build(pts, w, pc.leaf_capacity).ValueOrDie();
}

class QueryPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

// P3: query correctness through the Engine across the whole matrix of
// configurations.
TEST_P(QueryPropertyTest, ThresholdAndApproximateMatchBruteForce) {
  const PropertyCase pc = GetParam();
  util::Rng rng(pc.seed);
  const data::Matrix pts =
      data::SampleClustered(pc.n, pc.d, 3, 0.08, rng);
  const auto weights = WeightsForCase(pc, pc.n, rng);
  const KernelParams kernel = KernelForCase(pc, pc.d);

  for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
    EngineOptions options;
    options.kernel = kernel;
    options.bounds = bound_kind;
    options.index_kind = pc.index_kind;
    options.leaf_capacity = pc.leaf_capacity;
    auto engine = Engine::Build(pts, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> q(pc.d);
      for (auto& v : q) v = rng.Uniform(-0.1, 1.1);
      const double exact = core::ExactAggregate(pts, weights, kernel, q);

      // Refinement maintains bounds incrementally, so decisions carry an
      // absolute noise floor of ~eps_machine x (root bound magnitude) —
      // inherent to the paper's algorithm. Skip assertions when the
      // margin |exact - tau| sits below that floor.
      const double noise_floor =
          1e-12 * (1.0 + std::abs(exact));
      for (const double rel : {0.7, 0.97, 1.03, 1.4}) {
        const double tau = exact * rel;
        if (std::abs(exact - tau) <= noise_floor) continue;
        EXPECT_EQ(engine.value().Tkaq(q, tau), exact > tau)
            << "bounds=" << BoundKindToString(bound_kind) << " tau=" << tau
            << " exact=" << exact;
      }

      if (pc.weighting != 3) {
        const double approx = engine.value().Ekaq(q, 0.2);
        // Symmetric relative-error guarantee (F may be negative for
        // polynomial/sigmoid profiles even under positive weights).
        EXPECT_LE(std::abs(approx - exact), 0.2 * std::abs(exact) + 1e-10);
      }
    }
  }
}

// P1: node-bound validity on every node of the case's tree.
TEST_P(QueryPropertyTest, NodeBoundsAreValidEverywhere) {
  const PropertyCase pc = GetParam();
  util::Rng rng(pc.seed + 1000);
  const data::Matrix pts =
      data::SampleClustered(pc.n, pc.d, 3, 0.08, rng);
  // Bound functions require positive weights (the engine pre-splits
  // Type III), so test the positive-space contract directly.
  std::vector<double> weights(pc.n);
  for (auto& v : weights) v = rng.Uniform(0.05, 1.5);
  const KernelParams kernel = KernelForCase(pc, pc.d);
  const auto tree = TreeForCase(pc, pts, weights);

  for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
    auto bounds = core::MakeBoundFunction(kernel, bound_kind).ValueOrDie();
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> q(pc.d);
      for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
      const core::QueryContext ctx = core::QueryContext::Make(q);
      for (size_t id = 0; id < tree->num_nodes(); ++id) {
        const auto& nd = tree->node(id);
        double exact = 0.0;
        for (uint32_t i = nd.begin; i < nd.end; ++i) {
          std::vector<double> row(pc.d);
          for (size_t j = 0; j < pc.d; ++j) row[j] = tree->points().At(i, j);
          exact += tree->points().WeightAt(i) *
                   core::KernelValue(kernel, q, row);
        }
        double lb = 0.0, ub = 0.0;
        bounds->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &lb,
                           &ub);
        const double slack = 1e-7 * (1.0 + std::abs(exact));
        ASSERT_LE(lb, exact + slack)
            << BoundKindToString(bound_kind) << " node " << id;
        ASSERT_GE(ub, exact - slack)
            << BoundKindToString(bound_kind) << " node " << id;
      }
    }
  }
}

// P4: refinement monotonicity. This is a theorem only for the Gaussian
// chord/tangent bounds over nested kd boxes (child intervals shrink and
// the constructions are pointwise monotone in the interval). Ball-tree
// child balls are not nested in the parent ball, and the mixed-interval
// pivot construction is not pointwise monotone across intervals, so for
// those only bound validity is asserted.
TEST_P(QueryPropertyTest, RefinementIsMonotone) {
  const PropertyCase pc = GetParam();
  util::Rng rng(pc.seed + 2000);
  const data::Matrix pts =
      data::SampleClustered(pc.n, pc.d, 3, 0.08, rng);
  std::vector<double> weights(pc.n, 1.0);
  const KernelParams kernel = KernelForCase(pc, pc.d);
  const auto tree = TreeForCase(pc, pts, weights);

  core::Evaluator::Options options;
  options.bounds = BoundKind::kKarl;
  auto ev = core::Evaluator::Create(tree.get(), nullptr, kernel, options)
                .ValueOrDie();

  std::vector<double> q(pc.d, 0.5);
  const double exact =
      core::ExactAggregate(pts, weights, kernel, q);
  double prev_lb = -1e300, prev_ub = 1e300;
  bool monotone = true;
  bool valid = true;
  core::TraceFn trace = [&](size_t, double lb, double ub) {
    if (lb < prev_lb - 1e-7 || ub > prev_ub + 1e-7) monotone = false;
    if (lb > exact + 1e-6 || ub < exact - 1e-6) valid = false;
    prev_lb = lb;
    prev_ub = ub;
  };
  double lb = 0.0, ub = 0.0;
  ev.RefineToConvergence(q, 1000000, &lb, &ub, &trace);
  if (pc.index_kind == index::IndexKind::kKdTree && pc.kernel_id == 0) {
    EXPECT_TRUE(monotone);
  }
  EXPECT_TRUE(valid);
  EXPECT_LE(lb, ub + 1e-9);
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  uint64_t seed = 40;
  for (const auto kind :
       {index::IndexKind::kKdTree, index::IndexKind::kBallTree}) {
    for (const int kernel_id : {0, 1, 2, 3}) {
      for (const int weighting : {1, 2, 3}) {
        cases.push_back(PropertyCase{seed++, 250, 4, kind,
                                     (seed % 2 == 0) ? size_t{8} : size_t{32},
                                     kernel_id, weighting});
      }
    }
  }
  // A few stress shapes: tiny leaf, high-d, small n.
  cases.push_back({seed++, 64, 2, index::IndexKind::kKdTree, 1, 0, 1});
  cases.push_back({seed++, 300, 24, index::IndexKind::kKdTree, 16, 0, 2});
  cases.push_back({seed++, 40, 3, index::IndexKind::kBallTree, 2, 3, 3});
  return cases;
}

std::string PropertyCaseName(
    const ::testing::TestParamInfo<PropertyCase>& info) {
  const auto& pc = info.param;
  static const char* const kKernels[] = {"Gauss", "Poly3", "Poly2",
                                         "Sigmoid"};
  return std::string(pc.index_kind == index::IndexKind::kKdTree ? "Kd"
                                                                : "Ball") +
         kKernels[pc.kernel_id] + "W" + std::to_string(pc.weighting) + "N" +
         std::to_string(pc.n) + "D" + std::to_string(pc.d) + "C" +
         std::to_string(pc.leaf_capacity);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QueryPropertyTest,
                         ::testing::ValuesIn(MakeCases()), PropertyCaseName);

// P2: KARL dominance over SOTA on random Gaussian configurations.
TEST(BoundDominanceProperty, KarlNeverLooserThanSotaGaussian) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 31);
    const size_t d = 2 + seed % 5;
    const data::Matrix pts =
        data::SampleClustered(200 + 50 * seed, d, 1 + seed % 4, 0.1, rng);
    std::vector<double> weights(pts.rows());
    for (auto& w : weights) w = rng.Uniform(0.1, 2.0);
    auto tree = index::KdTree::Build(pts, weights, 16).ValueOrDie();
    const auto kernel = KernelParams::Gaussian(rng.Uniform(0.5, 10.0));
    auto sota = core::MakeBoundFunction(kernel, BoundKind::kSota).ValueOrDie();
    auto karl = core::MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();

    std::vector<double> q(d);
    for (auto& v : q) v = rng.Uniform(-0.5, 1.5);
    const core::QueryContext ctx = core::QueryContext::Make(q);
    for (size_t id = 0; id < tree->num_nodes(); ++id) {
      double slb = 0.0, sub = 0.0, klb = 0.0, kub = 0.0;
      sota->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &slb,
                       &sub);
      karl->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &klb,
                       &kub);
      ASSERT_GE(klb, slb - 1e-9) << "seed " << seed << " node " << id;
      ASSERT_LE(kub, sub + 1e-9) << "seed " << seed << " node " << id;
    }
  }
}

// P5: random-interval pointwise sandwich for the pure linear machinery.
TEST(LinearBoundProperty, RandomIntervalsSandwichProfiles) {
  util::Rng rng(4242);
  const std::vector<KernelParams> kernels = {
      KernelParams::Gaussian(1.0),       KernelParams::Polynomial(1, 0, 2),
      KernelParams::Polynomial(1, 0, 3), KernelParams::Polynomial(1, 0, 5),
      KernelParams::Polynomial(1, 0, 4), KernelParams::Sigmoid(1, 0),
      KernelParams::Laplacian(1.0),      KernelParams::Cauchy(1.0)};

  for (int trial = 0; trial < 260; ++trial) {
    const KernelParams& k = kernels[trial % kernels.size()];
    double lo = rng.Uniform(-3.0, 3.0);
    double hi = lo + rng.Uniform(0.01, 4.0);
    if (!core::IsInnerProductKernel(k.type)) {
      // Distance-profile arguments are non-negative.
      lo = std::abs(lo);
      hi = lo + rng.Uniform(0.01, 4.0);
    }

    LinearFn lower, upper;
    const Curvature curv = core::ClassifyProfile(k, lo, hi);
    const double t = rng.Uniform(lo, hi);
    switch (curv) {
      case Curvature::kLinear:
        continue;
      case Curvature::kConvex:
        upper = core::ProfileChord(k, lo, hi);
        lower = core::ProfileTangent(k, t);
        break;
      case Curvature::kConcave:
        lower = core::ProfileChord(k, lo, hi);
        upper = core::ProfileTangent(k, t);
        break;
      case Curvature::kMixedConcaveConvex:
        upper = core::PivotLine(k, lo, hi, true, true);
        lower = core::PivotLine(k, lo, hi, false, false);
        break;
      case Curvature::kMixedConvexConcave:
        upper = core::PivotLine(k, lo, hi, false, true);
        lower = core::PivotLine(k, lo, hi, true, false);
        break;
    }

    for (int i = 0; i <= 64; ++i) {
      const double x = lo + (hi - lo) * i / 64.0;
      const double f = KernelProfile(k, x);
      const double tol = 1e-8 * (1.0 + std::abs(f));
      ASSERT_LE(lower.At(x), f + tol)
          << core::KernelTypeToString(k.type) << " deg=" << k.degree
          << " [" << lo << "," << hi << "] x=" << x;
      ASSERT_GE(upper.At(x), f - tol)
          << core::KernelTypeToString(k.type) << " deg=" << k.degree
          << " [" << lo << "," << hi << "] x=" << x;
    }
  }
}

// P6: randomised batch cross-check. Fuzzes (kernel, γ/β/degree, τ or ε,
// thread count) and verifies the *parallel batch* answers against
// brute-force exact aggregation: TkaqBatch == (exact > τ) outside the
// refinement noise floor, EkaqBatch within (1±ε), and ExactBatch equal
// to brute force up to accumulation-order tolerance. This closes the
// loop the deterministic suites can't: batch correctness on parameter
// combinations nobody hand-picked.
TEST(BatchQueryProperty, RandomisedBatchMatchesBruteForce) {
  util::Rng rng(20260806);
  for (int trial = 0; trial < 9; ++trial) {
    const size_t d = 2 + static_cast<size_t>(rng.Uniform(0.0, 4.0));
    const size_t n = 120 + static_cast<size_t>(rng.Uniform(0.0, 180.0));
    const data::Matrix pts = data::SampleClustered(n, d, 3, 0.08, rng);

    // Random kernel with random parameters.
    KernelParams kernel;
    switch (trial % 4) {
      case 0:
        kernel = KernelParams::Gaussian(rng.Uniform(0.5, 10.0));
        break;
      case 1:
        kernel = KernelParams::Laplacian(rng.Uniform(0.5, 6.0));
        break;
      case 2:
        kernel = KernelParams::Polynomial(
            rng.Uniform(0.1, 1.0), rng.Uniform(-0.2, 0.2),
            2 + static_cast<int>(rng.Uniform(0.0, 3.0)));
        break;
      default:
        kernel = KernelParams::Sigmoid(rng.Uniform(0.05, 0.5),
                                       rng.Uniform(-0.1, 0.1));
        break;
    }

    // Random weighting type.
    const int weighting = 1 + static_cast<int>(rng.Uniform(0.0, 3.0));
    std::vector<double> weights(n);
    for (auto& w : weights) {
      w = weighting == 1   ? 0.7
          : weighting == 2 ? rng.Uniform(0.05, 1.5)
                           : rng.Uniform(-1.0, 1.0);
      if (w == 0.0) w = 0.5;
    }

    EngineOptions options;
    options.kernel = kernel;
    auto engine = Engine::Build(pts, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    data::Matrix queries(12, d);
    for (size_t i = 0; i < queries.rows(); ++i) {
      for (double& v : queries.MutableRow(i)) v = rng.Uniform(-0.1, 1.1);
    }
    std::vector<double> exact(queries.rows());
    for (size_t i = 0; i < queries.rows(); ++i) {
      exact[i] =
          core::ExactAggregate(pts, weights, kernel, queries.Row(i));
    }

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      util::ThreadPool pool(threads);

      // Random τ around the exact values of this batch.
      const double tau = exact[static_cast<size_t>(
                             rng.Uniform(0.0, 11.99))] *
                         rng.Uniform(0.6, 1.4);
      const auto tkaq = engine.value().TkaqBatch(queries, tau, &pool);
      for (size_t i = 0; i < queries.rows(); ++i) {
        const double noise_floor = 1e-12 * (1.0 + std::abs(exact[i]));
        if (std::abs(exact[i] - tau) <= noise_floor) continue;
        EXPECT_EQ(tkaq[i] != 0, exact[i] > tau)
            << "trial=" << trial << " threads=" << threads << " i=" << i
            << " tau=" << tau << " exact=" << exact[i];
      }

      const auto brute = engine.value().ExactBatch(queries, &pool);
      for (size_t i = 0; i < queries.rows(); ++i) {
        EXPECT_NEAR(brute[i], exact[i], 1e-9 * (1.0 + std::abs(exact[i])))
            << "trial=" << trial << " threads=" << threads << " i=" << i;
      }

      if (weighting != 3) {
        const double eps = rng.Uniform(0.05, 0.4);
        const auto ekaq = engine.value().EkaqBatch(queries, eps, &pool);
        for (size_t i = 0; i < queries.rows(); ++i) {
          EXPECT_LE(std::abs(ekaq[i] - exact[i]),
                    eps * std::abs(exact[i]) + 1e-10)
              << "trial=" << trial << " threads=" << threads << " i=" << i
              << " eps=" << eps;
        }
      }
    }
  }
}

// P7a: the blocked SoA storage every tree keeps (core/simd/soa_block.h)
// must be a bit-exact re-layout of the input — every coordinate and
// weight read back through the blocked accessors equals the input row
// the permutation names, bit for bit, for fuzzed shapes including ragged
// final blocks and n < kBlockPoints. A tree attached from a snapshot
// must hold byte-identical blocks, pad lanes included.
TEST(SimdSoaProperty, BlockedLayoutRoundTripsBitExactly) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const std::string snap_path =
      (std::filesystem::temp_directory_path() / "karl_p7_blocks.snap")
          .string();
  util::Rng rng(20260808);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t d = 1 + static_cast<size_t>(rng.Uniform(0.0, 9.0));
    const size_t n = 1 + static_cast<size_t>(rng.Uniform(0.0, 260.0));
    data::Matrix pts(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (double& v : pts.MutableRow(i)) v = rng.Uniform(-1.0, 1.0);
    }
    std::vector<double> weights(n);
    for (auto& w : weights) w = rng.Uniform(-1.0, 1.0);
    weights[0] = std::abs(weights[0]) + 0.25;  // An engine needs one w > 0.

    const PropertyCase pc{0, n, d,
                          trial % 2 == 0 ? index::IndexKind::kKdTree
                                         : index::IndexKind::kBallTree,
                          1 + static_cast<size_t>(rng.Uniform(0.0, 31.0)),
                          0, 2};
    const auto tree = TreeForCase(pc, pts, weights);
    const auto& blocks = tree->points();
    ASSERT_EQ(blocks.rows(), n) << "trial " << trial;
    ASSERT_EQ(blocks.dims(), d) << "trial " << trial;
    for (size_t i = 0; i < n; ++i) {
      const size_t orig = tree->original_indices()[i];
      ASSERT_EQ(bits(blocks.WeightAt(i)), bits(weights[orig]))
          << "trial " << trial << " row " << i;
      for (size_t j = 0; j < d; ++j) {
        ASSERT_EQ(bits(blocks.At(i, j)), bits(pts(orig, j)))
            << "trial " << trial << " row " << i << " dim " << j;
      }
    }

    EngineOptions options;
    options.index_kind = pc.index_kind;
    options.leaf_capacity = pc.leaf_capacity;
    const Engine built = Engine::Build(pts, weights, options).ValueOrDie();
    ASSERT_TRUE(registry::WriteSnapshot(snap_path, built).ok());
    auto snapshot = registry::MappedSnapshot::Map(snap_path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto attached = registry::AttachEngine(snapshot.value(), nullptr, nullptr);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    const index::TreeIndex* built_trees[] = {&built.plus_tree(),
                                             built.minus_tree()};
    const index::TreeIndex* attached_trees[] = {
        &attached.value().plus_tree(), attached.value().minus_tree()};
    for (size_t t = 0; t < 2; ++t) {
      ASSERT_EQ(built_trees[t] == nullptr, attached_trees[t] == nullptr);
      if (built_trees[t] == nullptr) continue;
      const auto& want = built_trees[t]->points();
      const auto& got = attached_trees[t]->points();
      ASSERT_EQ(got.planes().size(), want.planes().size());
      EXPECT_EQ(std::memcmp(got.planes().data(), want.planes().data(),
                            want.planes().size_bytes()),
                0)
          << "trial " << trial << " tree " << t;
    }
  }
  std::filesystem::remove(snap_path);
}

// P7b: randomised vectorized-vs-brute-force. Under every tier the host
// supports, fuzzed tKAQ/eKAQ/exact queries through the Engine (which
// runs the vectorized leaf path on vector tiers) must agree with plain
// brute-force aggregation: tKAQ exactly outside the noise floor, eKAQ
// within (1±ε), exact within accumulation-order tolerance.
TEST(SimdQueryProperty, VectorizedQueriesMatchBruteForce) {
  namespace simd = core::simd;
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierSupported(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::TierSupported(simd::Tier::kAvx512)) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  const simd::Tier saved = simd::ActiveTier();

  util::Rng rng(777);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t d = 2 + static_cast<size_t>(rng.Uniform(0.0, 5.0));
    const size_t n = 150 + static_cast<size_t>(rng.Uniform(0.0, 200.0));
    const data::Matrix pts = data::SampleClustered(n, d, 3, 0.08, rng);
    std::vector<double> weights(n);
    for (auto& w : weights) w = rng.Uniform(0.05, 1.5);

    KernelParams kernel;
    switch (trial % 3) {
      case 0:
        kernel = KernelParams::Gaussian(rng.Uniform(0.5, 8.0));
        break;
      case 1:
        kernel = KernelParams::Laplacian(rng.Uniform(0.5, 5.0));
        break;
      default:
        kernel = KernelParams::Cauchy(rng.Uniform(0.5, 6.0));
        break;
    }

    EngineOptions options;
    options.kernel = kernel;
    options.leaf_capacity = 1 + static_cast<size_t>(rng.Uniform(0.0, 40.0));
    auto engine = Engine::Build(pts, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (int query = 0; query < 5; ++query) {
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-0.1, 1.1);
      const double exact = core::ExactAggregate(pts, weights, kernel, q);
      const double tau = exact * rng.Uniform(0.6, 1.4);
      const double eps = rng.Uniform(0.05, 0.4);

      for (const simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        EXPECT_NEAR(engine.value().Exact(q), exact,
                    1e-9 * (1.0 + std::abs(exact)))
            << simd::TierName(tier) << " trial=" << trial << " q=" << query;
        const double noise_floor = 1e-12 * (1.0 + std::abs(exact));
        if (std::abs(exact - tau) > noise_floor) {
          EXPECT_EQ(engine.value().Tkaq(q, tau), exact > tau)
              << simd::TierName(tier) << " trial=" << trial << " q=" << query;
        }
        EXPECT_LE(std::abs(engine.value().Ekaq(q, eps) - exact),
                  eps * std::abs(exact) + 1e-10)
            << simd::TierName(tier) << " trial=" << trial << " q=" << query;
      }
      simd::ForceTier(saved);
    }
  }
}

// P7c: leaves folded as the narrow pass's enclosures keep every query
// contract on the served simulacra, on every tier: eKAQ within (1 ± ε)
// of an exact scan of the caller's points, and TKAQ deciding as that
// scan does at τ = F·(1 ± r) for r down to 1e-9, where the narrow
// intervals cannot decide and the drained frontier's exact scan must.
// covtype keeps its raw scale (coordinates in the thousands), where the
// fp32 query's rounding dominates the widening.
TEST(NarrowContractProperty, EkaqAndTkaqHoldOnTheServedSimulacra) {
  namespace simd = core::simd;
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierSupported(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::TierSupported(simd::Tier::kAvx512)) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  const simd::Tier saved = simd::ActiveTier();
  struct Case {
    const char* dataset;
    size_t n;
    bool raw_scale;
    double gamma;
    int weighting;
  };
  const Case cases[] = {
      {"home", 3000, false, 42.0, 1},
      {"home", 3000, false, 2000.0, 2},
      {"miniboone", 2000, false, 56.0, 1},
      {"covtype", 2000, true, 1.0 / 54.0, 2},
      {"covtype", 2000, true, 1.0, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.dataset) + " gamma " + std::to_string(c.gamma));
    auto spec = data::FindDataset(c.dataset).ValueOrDie();
    spec.n = c.n;
    data::Matrix pts = data::MakeUciLike(spec);
    // Raw covtype: columns from 0–1 up to 0–3600, most offset from 0.
    const auto column_scale = [&](size_t j) {
      return c.raw_scale ? std::pow(10.0, 0.5 * static_cast<double>(j % 8))
                         : 1.0;
    };
    const auto column_offset = [&](size_t j) {
      return c.raw_scale ? 1000.0 * static_cast<double>(j % 3) : 0.0;
    };
    for (size_t i = 0; i < pts.rows(); ++i) {
      auto row = pts.MutableRow(i);
      for (size_t j = 0; j < row.size(); ++j) {
        row[j] = row[j] * column_scale(j) + column_offset(j);
      }
    }
    util::Rng rng(9000 + c.n);
    std::vector<double> weights(pts.rows());
    for (double& w : weights) {
      w = c.weighting == 1 ? 1.0 / static_cast<double>(pts.rows())
                           : rng.Uniform(0.1, 1.0) *
                                 (c.weighting == 3 && rng.Uniform(0.0, 1.0) < 0.4
                                      ? -1.0
                                      : 1.0);
    }
    EngineOptions options;
    options.kernel = KernelParams::Gaussian(c.gamma);
    auto engine = Engine::Build(pts, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (size_t query = 0; query < 8; ++query) {
      // Near a data point, at about a kernel width.
      std::vector<double> q(pts.cols());
      const auto base = pts.Row((query * 211) % pts.rows());
      const double width = 1.0 / std::sqrt(c.gamma * pts.cols());
      for (size_t j = 0; j < q.size(); ++j) {
        q[j] = base[j] + rng.Gaussian(0.0, 0.5 * width);
      }
      const double f = core::ExactAggregate(pts, weights, options.kernel, q);
      for (const simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        SCOPED_TRACE(std::string(simd::TierName(tier)) + " query " +
                     std::to_string(query) + " F " + std::to_string(f));
        if (c.weighting != 3) {
          for (const double eps : {0.01, 0.1}) {
            EXPECT_LE(std::abs(engine.value().Ekaq(q, eps) - f),
                      eps * std::abs(f) + 1e-12 * std::abs(f))
                << "eps " << eps;
          }
        }
        for (const double r : {1e-3, 1e-5, 1e-7, 1e-9}) {
          for (const double sign : {-1.0, 1.0}) {
            const double tau = f * (1.0 + sign * r);
            EXPECT_EQ(engine.value().Tkaq(q, tau), f > tau)
                << "tau = F·(1 " << (sign > 0 ? "+ " : "- ") << r << ")";
          }
        }
      }
      simd::ForceTier(saved);
    }
  }
}

// P8: Evaluator::Create calls the concrete bound class directly;
// CreateWithBounds with the same MakeBoundFunction object goes through
// the vtable. Exact, TKAQ and eKAQ answers and EvalStats must be
// bit-identical between the two, in every tier, for every kernel family,
// index kind, bound kind and weighting type.
TEST(BoundDispatchProperty, DirectCallsMatchInjectedBoundFunction) {
  namespace simd = core::simd;
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierSupported(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::TierSupported(simd::Tier::kAvx512)) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  const simd::Tier saved = simd::ActiveTier();
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const std::vector<KernelParams> kernels = {
      KernelParams::Gaussian(6.0),
      KernelParams::Laplacian(3.0),
      KernelParams::Cauchy(5.0),
      KernelParams::Polynomial(0.3, 0.1, 3),
      KernelParams::Sigmoid(0.3, 0.05),
  };

  util::Rng rng(2718);
  const size_t n = 400, d = 5;
  const data::Matrix pts = data::SampleClustered(n, d, 3, 0.1, rng);
  for (const int weighting : {1, 2, 3}) {
    PropertyCase pc{};
    pc.weighting = weighting;
    const std::vector<double> signed_w = WeightsForCase(pc, n, rng);
    // Type III splits into a plus tree and a minus tree of |w|.
    std::vector<size_t> pos, neg;
    for (size_t i = 0; i < n; ++i) {
      (signed_w[i] >= 0.0 ? pos : neg).push_back(i);
    }
    std::vector<double> pw, nw;
    for (const size_t i : pos) pw.push_back(signed_w[i]);
    for (const size_t i : neg) nw.push_back(-signed_w[i]);
    const data::Matrix pp = pts.SelectRows(pos);
    const data::Matrix np = pts.SelectRows(neg);

    for (const auto kind :
         {index::IndexKind::kKdTree, index::IndexKind::kBallTree}) {
      pc.index_kind = kind;
      pc.leaf_capacity = 16;
      const auto plus = TreeForCase(pc, pp, pw);
      const auto minus = neg.empty() ? nullptr : TreeForCase(pc, np, nw);

      for (const KernelParams& kernel : kernels) {
        for (const BoundKind bounds : {BoundKind::kSota, BoundKind::kKarl}) {
          core::Evaluator::Options options;
          options.bounds = bounds;
          const auto direct =
              core::Evaluator::Create(plus.get(), minus.get(), kernel,
                                      options)
                  .ValueOrDie();
          const auto injected =
              core::Evaluator::CreateWithBounds(
                  plus.get(), minus.get(), kernel, options,
                  core::MakeBoundFunction(kernel, bounds).ValueOrDie())
                  .ValueOrDie();
          const std::string label =
              std::string(core::KernelTypeToString(kernel.type)) + " " +
              std::string(index::IndexKindToString(kind)) + " " +
              std::string(core::BoundKindToString(bounds)) + " type " +
              std::to_string(weighting);

          for (const simd::Tier tier : tiers) {
            simd::ForceTier(tier);
            for (int query = 0; query < 3; ++query) {
              std::vector<double> q(d);
              for (auto& v : q) v = rng.Uniform(-0.1, 1.1);
              const std::string where = label + " " +
                                        std::string(simd::TierName(tier)) +
                                        " q" + std::to_string(query);
              core::EvalStats sd, si;
              const double exact = direct.QueryExact(q, &sd);
              EXPECT_EQ(bits(exact), bits(injected.QueryExact(q, &si)))
                  << where;
              const double tau = exact * 0.9;
              EXPECT_EQ(direct.QueryThreshold(q, tau, &sd),
                        injected.QueryThreshold(q, tau, &si))
                  << where;
              EXPECT_EQ(bits(direct.QueryApproximate(q, 0.05, &sd)),
                        bits(injected.QueryApproximate(q, 0.05, &si)))
                  << where;
              EXPECT_EQ(sd.iterations, si.iterations) << where;
              EXPECT_EQ(sd.nodes_expanded, si.nodes_expanded) << where;
              EXPECT_EQ(sd.kernel_evals, si.kernel_evals) << where;
            }
          }
          simd::ForceTier(saved);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Auditor coverage: the KARL_AUDIT_BOUNDS runtime auditor must (a) stay
// silent on correct bounds and (b) abort on deliberately broken ones.
// ---------------------------------------------------------------------

// Swaps the real lower/upper bounds — the classic sign error in the
// linear-bound construction the auditor exists to catch.
class InvertedBounds final : public core::BoundFunction {
 public:
  explicit InvertedBounds(std::unique_ptr<core::BoundFunction> inner)
      : inner_(std::move(inner)) {}

  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const core::QueryContext& ctx, double* lb,
                  double* ub) const override {
    inner_->NodeBounds(tree, id, ctx, ub, lb);  // Swapped outputs.
  }

 private:
  std::unique_ptr<core::BoundFunction> inner_;
};

// Keeps lb <= ub but shifts the interval above the exact aggregate, so
// only the exact-enclosure audit (not the inversion audit) can catch it.
class ShiftedBounds final : public core::BoundFunction {
 public:
  explicit ShiftedBounds(std::unique_ptr<core::BoundFunction> inner)
      : inner_(std::move(inner)) {}

  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const core::QueryContext& ctx, double* lb,
                  double* ub) const override {
    inner_->NodeBounds(tree, id, ctx, lb, ub);
    const double shift = 10.0 * (1.0 + std::abs(*ub));
    *lb += shift;
    *ub += shift;
  }

 private:
  std::unique_ptr<core::BoundFunction> inner_;
};

struct AuditFixture {
  data::Matrix pts;
  std::vector<double> weights;
  std::unique_ptr<index::TreeIndex> tree;
  KernelParams kernel = KernelParams::Gaussian(4.0);

  AuditFixture() {
    util::Rng rng(7);
    pts = data::SampleClustered(200, 3, 2, 0.08, rng);
    weights.assign(200, 1.0);
    tree = index::KdTree::Build(pts, weights, 16).ValueOrDie();
  }

  core::Evaluator MakeEvaluator(
      std::unique_ptr<core::BoundFunction> bounds) const {
    core::Evaluator::Options options;
    options.audit_bounds = true;
    return core::Evaluator::CreateWithBounds(tree.get(), nullptr, kernel,
                                             options, std::move(bounds))
        .ValueOrDie();
  }
};

TEST(BoundAuditProperty, AuditorSilentOnCorrectBounds) {
  AuditFixture fx;
  auto ev = fx.MakeEvaluator(
      core::MakeBoundFunction(fx.kernel, BoundKind::kKarl).ValueOrDie());
  const std::vector<double> q(3, 0.5);
  const double exact = core::ExactAggregate(fx.pts, fx.weights, fx.kernel, q);
  EXPECT_EQ(ev.QueryThreshold(q, 0.5 * exact), true);
  EXPECT_EQ(ev.QueryThreshold(q, 2.0 * exact), false);
  EXPECT_NEAR(ev.QueryApproximate(q, 0.1), exact, 0.1 * exact + 1e-9);
}

TEST(BoundAuditProperty, AuditorSilentOnTypeThreeEngine) {
  util::Rng rng(11);
  const data::Matrix pts = data::SampleClustered(150, 3, 2, 0.08, rng);
  std::vector<double> weights(150);
  for (auto& w : weights) {
    w = rng.Uniform(-1.0, 1.0);
    if (w == 0.0) w = 0.5;
  }
  EngineOptions options;
  options.kernel = KernelParams::Gaussian(4.0);
  options.audit_bounds = true;
  auto engine = Engine::Build(pts, weights, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine.value().weighting_type(), WeightingType::kTypeIII);
  const std::vector<double> q(3, 0.4);
  const double exact = engine.value().Exact(q);
  EXPECT_EQ(engine.value().Tkaq(q, exact - 0.5), true);
  EXPECT_EQ(engine.value().Tkaq(q, exact + 0.5), false);
}

TEST(BoundAuditDeathTest, AuditorDetectsInvertedBounds) {
  AuditFixture fx;
  auto ev = fx.MakeEvaluator(std::make_unique<InvertedBounds>(
      core::MakeBoundFunction(fx.kernel, BoundKind::kKarl).ValueOrDie()));
  const std::vector<double> q(3, 0.5);
  EXPECT_DEATH((void)ev.QueryThreshold(q, 1.0), "inverted node bounds");
}

TEST(BoundAuditDeathTest, AuditorDetectsBoundsExcludingExact) {
  AuditFixture fx;
  auto ev = fx.MakeEvaluator(std::make_unique<ShiftedBounds>(
      core::MakeBoundFunction(fx.kernel, BoundKind::kKarl).ValueOrDie()));
  const std::vector<double> q(3, 0.5);
  EXPECT_DEATH((void)ev.QueryThreshold(q, 1.0),
               "node bounds exclude the exact aggregate");
}

}  // namespace
}  // namespace karl
