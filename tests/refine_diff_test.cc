// Differential test of the evaluator's best-first loop against a reference
// copy of the loop it replaced: a std::priority_queue of frontier entries
// (pop, then push the children), node bounds through the BoundFunction
// vtable and leaves through simd::LeafAggregate. Answers, EvalStats and
// EXPLAIN profiles must be bit-equal for eKAQ and TKAQ over the five
// kernels, kd and ball trees, every bound kind, Type I/II/III weights,
// every level cap and every SIMD tier this binary and host can run.
//
// The reference encodes the shipped stop rule: when the stop holds on the
// running sums, the enclosure is re-summed as the exact leaf sum plus the
// live entries' bounds in admission order and tested again; a drained
// frontier answers the leaf sum; eKAQ stops at (1−ε)·ub <= (1+ε)·lb and
// answers the harmonic mean of lb and ub.
//
// Tie rule: the widest gap pops first, and equal gaps pop in admission
// order (the order the loop bounded the entries in, within one query).
// The loop this replaced left ties to std::priority_queue's layout; exact
// ties do occur, between entries whose bounds underflow to [0, 0], and a
// frontier pops them once it drains, so the reference breaks ties the
// same way. The large-γ cases and the τ within a few ulps of F below
// drive exactly that.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/simd/simd.h"
#include "core/traversal_profile.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "util/rng.h"

namespace karl::core {
namespace {

// ---------------------------------------------------------------------
// The reference loop.
// ---------------------------------------------------------------------

struct RefEntry {
  double gap = 0.0;
  uint32_t seq = 0;  // Admission order.
  double lb = 0.0;
  double ub = 0.0;
  index::NodeId node = index::kInvalidNode;
  int8_t side = +1;
};

struct RefEntryLess {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    return a.gap < b.gap || (a.gap == b.gap && a.seq > b.seq);
  }
};

struct RefResult {
  double lb = 0.0;
  double ub = 0.0;
  EvalStats work;
  TraversalProfile profile;
  size_t max_frontier = 0;
};

template <typename Stop>
RefResult ReferenceRefine(const index::TreeIndex& plus,
                          const index::TreeIndex* minus,
                          const KernelParams& kernel,
                          const BoundFunction& bound, BoundKind kind,
                          int max_level, std::span<const double> q,
                          Stop stop) {
  RefResult r;
  r.profile.bounds = kind;
  const auto level = [&](uint16_t depth) -> TraversalProfile::Level& {
    if (r.profile.levels.size() <= depth) r.profile.levels.resize(depth + 1u);
    return r.profile.levels[depth];
  };
  const auto step = [&] {
    if (r.profile.timeline.size() < TraversalProfile::kMaxTimeline) {
      r.profile.timeline.push_back({r.lb, r.ub, r.work.kernel_evals});
    } else {
      r.profile.timeline_truncated = true;
    }
  };

  const QueryContext ctx = QueryContext::Make(q);
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefEntryLess> frontier;
  // Every bounded entry's (lb, ub) by admission order, zeroed on pop.
  std::vector<std::pair<double, double>> admitted_bounds;
  double leaf = 0.0;
  uint32_t admitted = 0;
  const auto admit = [&](const index::TreeIndex& tree, int8_t side,
                         index::NodeId id) {
    const auto& nd = tree.node(id);
    if (nd.is_leaf() ||
        (max_level >= 0 && nd.depth >= static_cast<uint16_t>(max_level))) {
      const double exact =
          static_cast<double>(side) *
          simd::LeafAggregate(kernel, tree.points(), nd.begin, nd.end, q);
      r.work.kernel_evals += nd.count();
      TraversalProfile::Level& l = level(nd.depth);
      ++l.visited;
      ++l.exact_leaves;
      l.kernel_evals += nd.count();
      leaf += exact;
      r.lb += exact;
      r.ub += exact;
      return;
    }
    double node_lb = 0.0;
    double node_ub = 0.0;
    bound.NodeBounds(tree, id, ctx, &node_lb, &node_ub);
    RefEntry e;
    e.node = id;
    e.side = side;
    e.lb = side > 0 ? node_lb : -node_ub;
    e.ub = side > 0 ? node_ub : -node_lb;
    e.gap = e.ub - e.lb;
    e.seq = admitted++;
    admitted_bounds.emplace_back(e.lb, e.ub);
    ++level(nd.depth).visited;
    r.lb += e.lb;
    r.ub += e.ub;
    frontier.push(e);
    r.max_frontier = std::max(r.max_frontier, frontier.size());
  };

  admit(plus, +1, plus.root());
  if (minus != nullptr) admit(*minus, -1, minus->root());
  step();
  while (!frontier.empty()) {
    if (stop(r.lb, r.ub)) {
      r.lb = leaf;
      r.ub = leaf;
      for (const auto& [lb, ub] : admitted_bounds) {
        r.lb += lb;
        r.ub += ub;
      }
      if (stop(r.lb, r.ub)) break;
    }
    const RefEntry top = frontier.top();
    frontier.pop();
    admitted_bounds[top.seq] = {0.0, 0.0};
    ++r.work.iterations;
    r.lb -= top.lb;
    r.ub -= top.ub;
    const index::TreeIndex& tree = top.side > 0 ? plus : *minus;
    const auto& nd = tree.node(top.node);
    ++r.work.nodes_expanded;
    ++level(nd.depth).expanded;
    admit(tree, top.side, nd.left);
    admit(tree, top.side, nd.right);
    step();
  }
  const bool drained = frontier.empty();
  while (!frontier.empty()) {
    const RefEntry rest = frontier.top();
    frontier.pop();
    const index::TreeIndex& tree = rest.side > 0 ? plus : *minus;
    ++level(tree.node(rest.node).depth).pruned;
  }
  r.profile.iterations = r.work.iterations;
  r.profile.nodes_expanded = r.work.nodes_expanded;
  r.profile.kernel_evals = r.work.kernel_evals;
  if (drained) r.lb = r.ub = leaf;
  return r;
}

// The eKAQ contract holds for every F in [l, u] (the stop's first clauses).
bool WithinContract(double l, double u, double eps) {
  return (l >= 0.0 && (1.0 - eps) * u <= (1.0 + eps) * l) ||
         (u <= 0.0 && (1.0 - eps) * l >= (1.0 + eps) * u);
}

bool ApproximateStop(double l, double u, double eps) {
  return WithinContract(l, u, eps) || (u <= 1e-300 && l >= -1e-300);
}

// The answers QueryThreshold and QueryApproximate derive from [lb, ub].
bool ThresholdAnswer(const RefResult& r, double tau) {
  if (r.lb > tau) return true;
  if (r.ub <= tau) return false;
  return 0.5 * (r.lb + r.ub) > tau;
}

double ApproximateAnswer(const RefResult& r, double eps) {
  if (!WithinContract(r.lb, r.ub, eps)) return 0.5 * (r.lb + r.ub);
  // 2·lb·ub/(lb+ub), as the evaluator computes it.
  if (r.lb == r.ub) return r.lb;
  if (r.lb + r.ub == 0.0) return 0.0;
  const bool lb_nearer = std::abs(r.lb) < std::abs(r.ub);
  const double near = lb_nearer ? r.lb : r.ub;
  const double far = lb_nearer ? r.ub : r.lb;
  return near / (0.5 + 0.5 * (near / far));
}

// ---------------------------------------------------------------------
// Bit-equality checks.
// ---------------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameWork(const EvalStats& got, const EvalStats& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.kernel_evals, want.kernel_evals);
}

void ExpectSameProfile(const TraversalProfile& got,
                       const TraversalProfile& want) {
  EXPECT_EQ(got.bounds, want.bounds);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.kernel_evals, want.kernel_evals);
  EXPECT_EQ(got.timeline_truncated, want.timeline_truncated);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (size_t d = 0; d < want.levels.size(); ++d) {
    SCOPED_TRACE("depth " + std::to_string(d));
    EXPECT_EQ(got.levels[d].visited, want.levels[d].visited);
    EXPECT_EQ(got.levels[d].expanded, want.levels[d].expanded);
    EXPECT_EQ(got.levels[d].pruned, want.levels[d].pruned);
    EXPECT_EQ(got.levels[d].exact_leaves, want.levels[d].exact_leaves);
    EXPECT_EQ(got.levels[d].kernel_evals, want.levels[d].kernel_evals);
  }
  ASSERT_EQ(got.timeline.size(), want.timeline.size());
  for (size_t i = 0; i < want.timeline.size(); ++i) {
    SCOPED_TRACE("timeline " + std::to_string(i));
    EXPECT_EQ(Bits(got.timeline[i].lb), Bits(want.timeline[i].lb));
    EXPECT_EQ(Bits(got.timeline[i].ub), Bits(want.timeline[i].ub));
    EXPECT_EQ(got.timeline[i].kernel_evals, want.timeline[i].kernel_evals);
  }
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

enum class TreeKind { kKd, kBall };

std::unique_ptr<index::TreeIndex> BuildTree(TreeKind kind,
                                            const data::Matrix& points,
                                            std::span<const double> weights,
                                            size_t leaf_capacity) {
  if (kind == TreeKind::kKd) {
    return index::KdTree::Build(points, weights, leaf_capacity).ValueOrDie();
  }
  return index::BallTree::Build(points, weights, leaf_capacity).ValueOrDie();
}

// The kernels, each at a moderate γ and (distance kernels) a γ large
// enough that far nodes' bounds underflow to [0, 0].
std::vector<KernelParams> KernelsFor(int kernel_id, size_t d) {
  const double ip_gamma = 1.0 / static_cast<double>(d);
  switch (kernel_id) {
    case 0:
      return {KernelParams::Gaussian(8.0), KernelParams::Gaussian(4000.0)};
    case 1:
      return {KernelParams::Laplacian(4.0), KernelParams::Laplacian(900.0)};
    case 2:
      return {KernelParams::Cauchy(8.0)};
    case 3:
      return {KernelParams::Polynomial(ip_gamma, 0.1, 3)};
    default:
      return {KernelParams::Sigmoid(ip_gamma, 0.05)};
  }
}

// Type I: unit weights; Type II: positive weights; Type III: mixed signs.
std::vector<double> WeightsFor(int type, size_t n, util::Rng& rng) {
  std::vector<double> w(n);
  for (double& v : w) {
    if (type == 1) {
      v = 1.0;
    } else if (type == 2) {
      v = rng.Uniform(0.1, 2.0);
    } else {
      v = rng.Uniform(0.1, 2.0) * (rng.Uniform(0.0, 1.0) < 0.4 ? -1.0 : 1.0);
    }
  }
  return w;
}

struct Model {
  data::Matrix plus_points;
  std::vector<double> plus_weights;
  data::Matrix minus_points;
  std::vector<double> minus_weights;
  std::unique_ptr<index::TreeIndex> plus;
  std::unique_ptr<index::TreeIndex> minus;  // Type III only.
};

Model BuildModel(TreeKind kind, int type, const data::Matrix& points,
                 const std::vector<double>& weights, size_t leaf_capacity) {
  Model m;
  const size_t d = points.cols();
  std::vector<double> plus_rows;
  std::vector<double> minus_rows;
  for (size_t i = 0; i < points.rows(); ++i) {
    const auto row = points.Row(i);
    if (weights[i] > 0.0) {
      plus_rows.insert(plus_rows.end(), row.begin(), row.end());
      m.plus_weights.push_back(weights[i]);
    } else {
      minus_rows.insert(minus_rows.end(), row.begin(), row.end());
      m.minus_weights.push_back(-weights[i]);
    }
  }
  m.plus_points = data::Matrix(m.plus_weights.size(), d, std::move(plus_rows));
  m.plus = BuildTree(kind, m.plus_points, m.plus_weights, leaf_capacity);
  if (type == 3) {
    m.minus_points =
        data::Matrix(m.minus_weights.size(), d, std::move(minus_rows));
    m.minus = BuildTree(kind, m.minus_points, m.minus_weights, leaf_capacity);
  }
  return m;
}

std::vector<simd::Tier> RunnableTiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Restores the process's tier when a test ends.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

// Runs every query of one evaluator against the reference, with and
// without a profile (the two observer paths). Returns the largest
// reference frontier seen.
size_t CheckQueries(const Evaluator& ev, const Model& m,
                    const KernelParams& kernel, const BoundFunction& bound,
                    BoundKind kind, int max_level, int type,
                    const std::vector<std::vector<double>>& queries) {
  size_t max_frontier = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    const std::span<const double> q = queries[qi];
    const double exact = ev.QueryExact(q);

    // TKAQ: τ far from F (early stop), and τ within a few ulps of F
    // (the frontier drains).
    std::vector<double> taus = {0.5 * exact, exact + 0.25 * std::abs(exact),
                                exact};
    double up = exact;
    double down = exact;
    for (int k = 0; k < 3; ++k) {
      up = std::nextafter(up, INFINITY);
      down = std::nextafter(down, -INFINITY);
      taus.push_back(up);
      taus.push_back(down);
    }
    for (const double tau : taus) {
      SCOPED_TRACE("tau " + std::to_string(tau));
      const auto stop = [tau](double l, double u) {
        return l > tau || u <= tau;
      };
      const RefResult want = ReferenceRefine(*m.plus, m.minus.get(), kernel,
                                             bound, kind, max_level, q, stop);
      max_frontier = std::max(max_frontier, want.max_frontier);
      EvalStats bare;
      EXPECT_EQ(ev.QueryThreshold(q, tau, &bare), ThresholdAnswer(want, tau));
      ExpectSameWork(bare, want.work);
      EvalStats observed;
      TraversalProfile profile;
      EXPECT_EQ(ev.QueryThreshold(q, tau, &observed, nullptr, &profile),
                ThresholdAnswer(want, tau));
      ExpectSameWork(observed, want.work);
      ExpectSameProfile(profile, want.profile);
    }

    if (type == 3) continue;  // eKAQ needs F ≥ 0 (Type I/II).
    for (const double eps : {0.05, 1e-3, 1e-12, 2.5}) {
      SCOPED_TRACE("eps " + std::to_string(eps));
      const auto stop = [eps](double l, double u) {
        return ApproximateStop(l, u, eps);
      };
      const RefResult want = ReferenceRefine(*m.plus, m.minus.get(), kernel,
                                             bound, kind, max_level, q, stop);
      max_frontier = std::max(max_frontier, want.max_frontier);
      EvalStats bare;
      EXPECT_EQ(Bits(ev.QueryApproximate(q, eps, &bare)),
                Bits(ApproximateAnswer(want, eps)));
      ExpectSameWork(bare, want.work);
      EvalStats observed;
      TraversalProfile profile;
      EXPECT_EQ(Bits(ev.QueryApproximate(q, eps, &observed, nullptr, &profile)),
                Bits(ApproximateAnswer(want, eps)));
      ExpectSameWork(observed, want.work);
      ExpectSameProfile(profile, want.profile);
    }
  }
  return max_frontier;
}

class RefineDiffTest
    : public ::testing::TestWithParam<std::tuple<int, TreeKind>> {};

TEST_P(RefineDiffTest, BitEqualToPriorityQueueLoop) {
  const auto [kernel_id, tree_kind] = GetParam();
  const TierGuard tier_guard;
  constexpr size_t kN = 240;
  constexpr size_t kDims = 3;
  constexpr size_t kLeafCapacity = 2;
  util::Rng rng(0x5EED + static_cast<uint64_t>(kernel_id));
  const data::Matrix points = data::SampleClustered(kN, kDims, 3, 0.07, rng);
  std::vector<std::vector<double>> queries;
  const auto near = points.Row(17);
  queries.emplace_back(near.begin(), near.end());
  queries.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                     rng.Uniform(0.0, 1.0)});

  for (const int type : {1, 2, 3}) {
    const std::vector<double> weights = WeightsFor(type, kN, rng);
    const Model m = BuildModel(tree_kind, type, points, weights, kLeafCapacity);
    int depth = static_cast<int>(m.plus->max_depth());
    if (m.minus != nullptr) {
      depth = std::max(depth, static_cast<int>(m.minus->max_depth()));
    }
    for (const KernelParams& kernel : KernelsFor(kernel_id, kDims)) {
      for (const BoundKind kind :
           {BoundKind::kSota, BoundKind::kKarl, BoundKind::kKarlChordOnly,
            BoundKind::kKarlTangentOnly}) {
        const auto bound = MakeBoundFunction(kernel, kind).ValueOrDie();
        for (int max_level = -1; max_level <= depth; ++max_level) {
          Evaluator::Options options;
          options.bounds = kind;
          options.max_level = max_level;
          const Evaluator ev =
              Evaluator::Create(m.plus.get(), m.minus.get(), kernel, options)
                  .ValueOrDie();
          for (const simd::Tier tier : RunnableTiers()) {
            simd::ForceTier(tier);
            SCOPED_TRACE("type " + std::to_string(type) + " kernel " +
                         std::string(KernelTypeToString(kernel.type)) +
                         " gamma " + std::to_string(kernel.gamma) +
                         " bounds " + BoundFamilyName(kind) + " max_level " +
                         std::to_string(max_level) + " tier " +
                         std::string(simd::TierName(tier)));
            CheckQueries(ev, m, kernel, *bound, kind, max_level, type,
                         queries);
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(RefineDiffTest, FrontierOutgrowsItsFirstStorage) {
  // The evaluator's frontier starts with room for 64 entries; these
  // queries hold more than that at once, so the growth path runs.
  const TierGuard tier_guard;
  util::Rng rng(7);
  const data::Matrix points = data::SampleClustered(1500, 2, 3, 0.07, rng);
  const std::vector<double> weights = WeightsFor(2, points.rows(), rng);
  const KernelParams kernel = KernelParams::Gaussian(8.0);
  const auto row = points.Row(11);
  const std::vector<std::vector<double>> queries = {{row.begin(), row.end()}};
  size_t max_frontier = 0;
  for (const TreeKind tree_kind : {TreeKind::kKd, TreeKind::kBall}) {
    const Model m = BuildModel(tree_kind, 2, points, weights, 1);
    for (const BoundKind kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = kind;
      const Evaluator ev =
          Evaluator::Create(m.plus.get(), nullptr, kernel, options)
              .ValueOrDie();
      const auto bound = MakeBoundFunction(kernel, kind).ValueOrDie();
      for (const simd::Tier tier : RunnableTiers()) {
        simd::ForceTier(tier);
        SCOPED_TRACE(std::string(BoundFamilyName(kind)) + " " +
                     std::string(simd::TierName(tier)));
        max_frontier = std::max(
            max_frontier,
            CheckQueries(ev, m, kernel, *bound, kind, -1, 2, queries));
      }
    }
  }
  EXPECT_GT(max_frontier, 64u);
}

TEST(RefineDiffTest, InjectedBoundsTakeTheSameLoop) {
  // CreateWithBounds calls the bound function through its vtable.
  const TierGuard tier_guard;
  util::Rng rng(99);
  const data::Matrix points = data::SampleClustered(300, 4, 3, 0.07, rng);
  const std::vector<double> weights = WeightsFor(3, points.rows(), rng);
  const Model m = BuildModel(TreeKind::kKd, 3, points, weights, 4);
  const KernelParams kernel = KernelParams::Gaussian(8.0);
  Evaluator::Options options;
  const Evaluator ev =
      Evaluator::CreateWithBounds(
          m.plus.get(), m.minus.get(), kernel, options,
          MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie())
          .ValueOrDie();
  const auto bound = MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();
  const auto row = points.Row(5);
  const std::vector<std::vector<double>> queries = {{row.begin(), row.end()}};
  for (const simd::Tier tier : RunnableTiers()) {
    simd::ForceTier(tier);
    SCOPED_TRACE(std::string(simd::TierName(tier)));
    CheckQueries(ev, m, kernel, *bound, BoundKind::kKarl, -1, 3, queries);
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<int, TreeKind>>& info) {
  static const char* const kKernels[] = {"Gaussian", "Laplacian", "Cauchy",
                                         "Polynomial", "Sigmoid"};
  return std::string(kKernels[std::get<0>(info.param)]) +
         (std::get<1>(info.param) == TreeKind::kKd ? "Kd" : "Ball");
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsBothTrees, RefineDiffTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(TreeKind::kKd, TreeKind::kBall)),
    CaseName);

}  // namespace
}  // namespace karl::core
