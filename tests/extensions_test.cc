// Tests for the modules beyond the paper's core that the benchmarks run:
// sparse (CSR) storage with its exact scan (Table VII's LIBSVM column)
// and the ablation bound variants (bench_ablation_bounds).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/karl.h"
#include "data/sparse_matrix.h"
#include "data/synthetic.h"
#include "index/kd_tree.h"
#include "util/rng.h"

namespace karl {
namespace {

using core::BoundKind;
using core::KernelParams;

// ------------------------------ SparseMatrix -----------------------------

data::Matrix SparseTestMatrix() {
  // Mostly-zero matrix with structure.
  data::Matrix m(3, 4);
  m(0, 1) = 2.0;
  m(1, 0) = -1.0;
  m(1, 3) = 0.5;
  return m;  // Row 2 is all zeros.
}

TEST(SparseMatrixTest, FromDenseDropsZeros) {
  const auto sparse = data::SparseMatrix::FromDense(SparseTestMatrix());
  EXPECT_EQ(sparse.rows(), 3u);
  EXPECT_EQ(sparse.cols(), 4u);
  EXPECT_EQ(sparse.Row(0).size() + sparse.Row(1).size(), 3u);
  EXPECT_EQ(sparse.Row(2).size(), 0u);
}

TEST(SparseMatrixTest, RowNormsAndDots) {
  const auto sparse = data::SparseMatrix::FromDense(SparseTestMatrix());
  EXPECT_DOUBLE_EQ(sparse.RowSquaredNorm(0), 4.0);
  EXPECT_DOUBLE_EQ(sparse.RowSquaredNorm(1), 1.25);
  const std::vector<double> q{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sparse.DotDense(0, q), 4.0);
  EXPECT_DOUBLE_EQ(sparse.DotDense(1, q), -1.0 + 2.0);
  EXPECT_DOUBLE_EQ(sparse.DotDense(2, q), 0.0);
}

TEST(SparseMatrixTest, SparseAggregateMatchesDenseAllKernels) {
  util::Rng rng(1);
  // Sparse-ish data: zero out most entries.
  data::Matrix dense = data::SampleUniform(100, 8, -1.0, 1.0, rng);
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      if (rng.Uniform() < 0.7) dense(i, j) = 0.0;
    }
  }
  const auto sparse = data::SparseMatrix::FromDense(dense);
  std::vector<double> weights(dense.rows());
  for (auto& w : weights) w = rng.Uniform(-1.0, 1.0);

  for (const auto kernel :
       {KernelParams::Gaussian(2.0), KernelParams::Polynomial(0.5, 0.1, 3),
        KernelParams::Sigmoid(1.0, -0.2)}) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> q(8);
      for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
      const double dense_f = core::ExactAggregate(dense, weights, kernel, q);
      const double sparse_f =
          core::ExactAggregateSparse(sparse, weights, kernel, q);
      EXPECT_NEAR(sparse_f, dense_f, 1e-9 * (1.0 + std::abs(dense_f)));
    }
  }
}

// --------------------------- Ablation bound kinds ------------------------

TEST(AblationBoundsTest, NamesExist) {
  EXPECT_EQ(core::BoundKindToString(BoundKind::kKarlChordOnly),
            "KARL-chord-only");
  EXPECT_EQ(core::BoundKindToString(BoundKind::kKarlTangentOnly),
            "KARL-tangent-only");
}

TEST(AblationBoundsTest, TightnessOrderingHolds) {
  // Pointwise: SOTA ⊆ chord-only / tangent-only ⊆ full KARL on each side.
  util::Rng rng(8);
  const data::Matrix pts = data::SampleClustered(300, 4, 3, 0.08, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  auto tree = index::KdTree::Build(pts, weights, 16).ValueOrDie();
  const auto kernel = KernelParams::Gaussian(5.0);

  auto sota = core::MakeBoundFunction(kernel, BoundKind::kSota).ValueOrDie();
  auto chord =
      core::MakeBoundFunction(kernel, BoundKind::kKarlChordOnly).ValueOrDie();
  auto tangent = core::MakeBoundFunction(kernel, BoundKind::kKarlTangentOnly)
                     .ValueOrDie();
  auto full = core::MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const auto ctx = core::QueryContext::Make(q);
    for (size_t id = 0; id < tree->num_nodes(); ++id) {
      double s_lb, s_ub, c_lb, c_ub, t_lb, t_ub, f_lb, f_ub;
      const auto node = static_cast<index::NodeId>(id);
      sota->NodeBounds(*tree, node, ctx, &s_lb, &s_ub);
      chord->NodeBounds(*tree, node, ctx, &c_lb, &c_ub);
      tangent->NodeBounds(*tree, node, ctx, &t_lb, &t_ub);
      full->NodeBounds(*tree, node, ctx, &f_lb, &f_ub);

      // Chord-only: KARL ub, SOTA lb.
      EXPECT_LE(c_ub, s_ub + 1e-9);
      EXPECT_NEAR(c_lb, s_lb, 1e-9 + 1e-9 * std::abs(s_lb));
      // Tangent-only: SOTA ub, KARL lb.
      EXPECT_NEAR(t_ub, s_ub, 1e-9 + 1e-9 * std::abs(s_ub));
      EXPECT_GE(t_lb, s_lb - 1e-9);
      // Full matches the union of the two improvements.
      EXPECT_NEAR(f_ub, c_ub, 1e-9 + 1e-9 * std::abs(c_ub));
      EXPECT_NEAR(f_lb, t_lb, 1e-9 + 1e-9 * std::abs(t_lb));
    }
  }
}

TEST(AblationBoundsTest, QueriesStayCorrectUnderAllVariants) {
  util::Rng rng(9);
  const data::Matrix pts = data::SampleClustered(400, 3, 3, 0.07, rng);
  const auto kernel = KernelParams::Gaussian(4.0);
  std::vector<double> weights(pts.rows(), 1.0);

  for (const auto kind :
       {BoundKind::kKarlChordOnly, BoundKind::kKarlTangentOnly}) {
    EngineOptions options;
    options.kernel = kernel;
    options.bounds = kind;
    auto engine = Engine::Build(pts, weights, options).ValueOrDie();
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q(3);
      for (auto& v : q) v = rng.Uniform(0.0, 1.0);
      const double exact = core::ExactAggregate(pts, weights, kernel, q);
      EXPECT_EQ(engine.Tkaq(q, exact * 0.9), true);
      EXPECT_EQ(engine.Tkaq(q, exact * 1.1), false);
      const double approx = engine.Ekaq(q, 0.2);
      EXPECT_NEAR(approx, exact, 0.2 * exact + 1e-12);
    }
  }
}

}  // namespace
}  // namespace karl
