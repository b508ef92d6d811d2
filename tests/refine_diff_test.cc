// Differential test of the evaluator's best-first loop against a reference
// copy of the loop it replaced: a std::priority_queue of frontier entries
// (pop, then push the children), node bounds through the BoundFunction
// vtable and leaves through simd::LeafInterval and simd::LeafAggregate.
// Answers, EvalStats and EXPLAIN profiles must be bit-equal for eKAQ and
// TKAQ over the five kernels, kd and ball trees, every bound kind, Type
// I/II/III weights, every level cap and every SIMD tier this binary and
// host can run.
//
// The reference encodes the shipped leaf and stop rules: a distance
// kernel's leaves fold the narrow pass's interval (simd::LeafInterval),
// two sibling leaves as one range, and on a kd tree an expansion whose
// narrow leaves would widen the popped entry retakes them exactly; when
// the stop holds on the running sums, the enclosure is re-summed as the
// leaf intervals' sum plus the live entries' bounds in admission order
// and tested again; when it fails while neither [ub − W, ub] nor
// [lb, lb + W] would pass it, W the summed width of the leaves folded as
// intervals, those leaves are retaken exactly, in fold order after the
// sum of the point leaves, every later leaf is scanned exactly, and the
// enclosure is re-summed; a drained frontier answers the leaf sum, after
// the same retake if the intervals leave the query undecided; eKAQ stops at
// (1−ε)·ub <= (1+ε)·lb and answers the harmonic mean of lb and ub.
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
  const simd::NarrowQuery narrow_q(kernel, q);
  bool narrow =
      narrow_q.usable() && plus.points().nonnegative_weights() &&
      (minus == nullptr || minus->points().nonnegative_weights());
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefEntryLess> frontier;
  // Every bounded entry's (lb, ub) by admission order, zeroed on pop.
  std::vector<std::pair<double, double>> admitted_bounds;
  double leaf_lb = 0.0;
  double leaf_ub = 0.0;
  // Leaves folded as intervals (tree, range, side), and the sum of those
  // folded as points.
  std::vector<std::tuple<const index::TreeIndex*, index::TreeIndex::Node,
                         int8_t>>
      interval_leaves;
  double leaf_exact = 0.0;
  uint32_t admitted = 0;
  const auto is_leaf = [&](const index::TreeIndex& tree, index::NodeId id) {
    const auto& nd = tree.node(id);
    return nd.is_leaf() ||
           (max_level >= 0 && nd.depth >= static_cast<uint16_t>(max_level));
  };
  const auto exact_leaf = [&](const index::TreeIndex& tree,
                              const index::TreeIndex::Node& nd) {
    const double exact =
        simd::LeafAggregate(kernel, tree.points(), nd.begin, nd.end, q);
    r.work.kernel_evals += nd.count();
    level(nd.depth).kernel_evals += nd.count();
    return std::pair<double, double>{exact, exact};
  };
  // A leaf's narrow interval, or its exact sum; *narrowed says which.
  const auto scan_leaf = [&](const index::TreeIndex& tree,
                             const index::TreeIndex::Node& nd,
                             bool* narrowed) {
    *narrowed = false;
    if (narrow) {
      const simd::NodeInterval iv =
          simd::LeafInterval(kernel, tree.points(), nd.begin, nd.end,
                             narrow_q);
      r.work.kernel_evals += nd.count();
      level(nd.depth).kernel_evals += nd.count();
      if (std::isfinite(iv.ub)) {
        *narrowed = true;
        return std::pair<double, double>{iv.lb, iv.ub};
      }
    }
    return exact_leaf(tree, nd);
  };
  const auto count_leaf = [&](const index::TreeIndex::Node& nd) {
    TraversalProfile::Level& l = level(nd.depth);
    ++l.visited;
    ++l.exact_leaves;
  };
  const auto fold_leaf = [&](const index::TreeIndex& tree,
                             const index::TreeIndex::Node& nd, int8_t side,
                             std::pair<double, double> v) {
    const double lo = side > 0 ? v.first : -v.second;
    const double hi = side > 0 ? v.second : -v.first;
    if (lo == hi) {
      leaf_exact += lo;
    } else {
      interval_leaves.emplace_back(&tree, nd, side);
    }
    leaf_lb += lo;
    leaf_ub += hi;
    r.lb += lo;
    r.ub += hi;
  };
  const auto push = [&](const index::TreeIndex& tree, int8_t side,
                        index::NodeId id, std::pair<double, double> v) {
    const auto& nd = tree.node(id);
    RefEntry e;
    e.node = id;
    e.side = side;
    e.lb = side > 0 ? v.first : -v.second;
    e.ub = side > 0 ? v.second : -v.first;
    e.gap = e.ub - e.lb;
    e.seq = admitted++;
    admitted_bounds.emplace_back(e.lb, e.ub);
    ++level(nd.depth).visited;
    r.lb += e.lb;
    r.ub += e.ub;
    frontier.push(e);
    r.max_frontier = std::max(r.max_frontier, frontier.size());
  };
  const auto bounds_of = [&](const index::TreeIndex& tree, index::NodeId id) {
    std::pair<double, double> v;
    bound.NodeBounds(tree, id, ctx, &v.first, &v.second);
    return v;
  };
  const auto admit_root = [&](const index::TreeIndex& tree, int8_t side) {
    const index::NodeId id = tree.root();
    bool narrowed;
    if (is_leaf(tree, id)) {
      count_leaf(tree.node(id));
      fold_leaf(tree, tree.node(id), side,
                scan_leaf(tree, tree.node(id), &narrowed));
    } else {
      push(tree, side, id, bounds_of(tree, id));
    }
  };
  const auto wider = [](const RefEntry& top, double lo, double hi) {
    return top.side > 0 ? lo < top.lb || hi > top.ub
                        : -hi < top.lb || -lo > top.ub;
  };
  // Both children of `top`. Two leaves under the narrow pass are scanned
  // as one leaf over `top`'s range, a level down. Otherwise leaves are
  // scanned and bounds taken left then right. On a kd tree, narrow leaves
  // that leave the children wider than `top` on either side are retaken
  // exactly; then each is folded or pushed, left then right.
  const auto expand = [&](const index::TreeIndex& tree, const RefEntry& top,
                          const index::TreeIndex::Node& nd) {
    const index::NodeId kids[2] = {nd.left, nd.right};
    const bool kd = tree.kind() == index::IndexKind::kKdTree;
    bool leaf[2], narrowed[2] = {false, false};
    for (int c = 0; c < 2; ++c) leaf[c] = is_leaf(tree, kids[c]);
    if (narrow && leaf[0] && leaf[1]) {
      index::TreeIndex::Node pair = nd;
      pair.left = pair.right = index::kInvalidNode;
      pair.depth = static_cast<uint16_t>(nd.depth + 1);
      std::pair<double, double> v = scan_leaf(tree, pair, &narrowed[0]);
      if (narrowed[0] && kd && wider(top, v.first, v.second)) {
        v = exact_leaf(tree, pair);
      }
      count_leaf(tree.node(kids[0]));
      count_leaf(tree.node(kids[1]));
      fold_leaf(tree, pair, top.side, v);
      return;
    }
    std::pair<double, double> v[2];
    for (int c = 0; c < 2; ++c) {
      v[c] = leaf[c] ? scan_leaf(tree, tree.node(kids[c]), &narrowed[c])
                     : bounds_of(tree, kids[c]);
    }
    if ((narrowed[0] || narrowed[1]) && kd &&
        wider(top, v[0].first + v[1].first, v[0].second + v[1].second)) {
      for (int c = 0; c < 2; ++c) {
        if (narrowed[c]) v[c] = exact_leaf(tree, tree.node(kids[c]));
      }
    }
    for (int c = 0; c < 2; ++c) {
      if (leaf[c]) {
        count_leaf(tree.node(kids[c]));
        fold_leaf(tree, tree.node(kids[c]), top.side, v[c]);
      } else {
        push(tree, top.side, kids[c], v[c]);
      }
    }
  };

  admit_root(plus, +1);
  if (minus != nullptr) admit_root(*minus, -1);
  step();
  const auto resum = [&] {
    r.lb = leaf_lb;
    r.ub = leaf_ub;
    for (const auto& [lb, ub] : admitted_bounds) {
      r.lb += lb;
      r.ub += ub;
    }
  };
  // The interval leaves retaken exactly, in fold order after the point
  // sum, and every later leaf scanned exactly.
  const auto retake = [&] {
    narrow = false;
    for (const auto& [tree, nd, side] : interval_leaves) {
      leaf_exact += side * exact_leaf(*tree, nd).first;
    }
    interval_leaves.clear();
    leaf_lb = leaf_ub = leaf_exact;
    resum();
  };
  while (!frontier.empty()) {
    if (stop(r.lb, r.ub)) {
      resum();
      if (stop(r.lb, r.ub)) break;
    } else if (const double w = leaf_ub - leaf_lb;
               !interval_leaves.empty() && !stop(r.ub - w, r.ub) &&
               !stop(r.lb, r.lb + w)) {
      retake();
      continue;
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
    expand(tree, top, nd);
    step();
  }
  const bool drained = frontier.empty();
  while (!frontier.empty()) {
    const RefEntry rest = frontier.top();
    frontier.pop();
    const index::TreeIndex& tree = rest.side > 0 ? plus : *minus;
    ++level(tree.node(rest.node).depth).pruned;
  }
  if (drained) {
    r.lb = leaf_lb;
    r.ub = leaf_ub;
    if (!interval_leaves.empty() && !stop(r.lb, r.ub)) retake();
  }
  r.profile.iterations = r.work.iterations;
  r.profile.nodes_expanded = r.work.nodes_expanded;
  r.profile.kernel_evals = r.work.kernel_evals;
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
