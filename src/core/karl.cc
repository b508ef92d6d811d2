#include "core/karl.h"

#include <cmath>
#include <string>
#include <vector>

#include "core/simd/simd.h"
#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "index/principal_frame.h"
#include "telemetry/context.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"

namespace karl {

namespace {

// Builds the configured index kind over `rows` of `points` (every row
// if empty) with `weights`, a kd tree in `frame`.
util::Result<std::unique_ptr<index::TreeIndex>> BuildIndex(
    const data::Matrix& points, std::span<const size_t> rows,
    std::span<const double> weights, const EngineOptions& options,
    index::Frame frame) {
  if (options.index_kind == index::IndexKind::kKdTree) {
    auto tree = index::KdTree::Build(points, weights, options.leaf_capacity,
                                     std::move(frame), rows);
    if (!tree.ok()) return tree.status();
    return std::unique_ptr<index::TreeIndex>(std::move(tree).ValueOrDie());
  }
  auto tree =
      index::BallTree::Build(points, weights, options.leaf_capacity, rows);
  if (!tree.ok()) return tree.status();
  return std::unique_ptr<index::TreeIndex>(std::move(tree).ValueOrDie());
}

}  // namespace

std::string_view WeightingTypeToString(WeightingType type) {
  switch (type) {
    case WeightingType::kTypeI:
      return "I";
    case WeightingType::kTypeII:
      return "II";
    case WeightingType::kTypeIII:
      return "III";
  }
  return "?";
}

WeightingType ClassifyWeights(std::span<const double> weights) {
  bool all_equal = true;
  bool all_positive = true;
  const double first = weights.empty() ? 0.0 : weights.front();
  for (const double w : weights) {
    if (w != first) all_equal = false;
    if (w <= 0.0) all_positive = false;
  }
  if (all_positive && all_equal) return WeightingType::kTypeI;
  if (all_positive) return WeightingType::kTypeII;
  return WeightingType::kTypeIII;
}

util::Result<Engine> Engine::Build(const data::Matrix& points,
                                   std::span<const double> weights,
                                   const EngineOptions& options) {
  if (points.empty()) {
    return util::Status::InvalidArgument("cannot build engine on empty data");
  }
  if (weights.size() != points.rows()) {
    return util::Status::InvalidArgument(
        "weight count does not match point count");
  }
  KARL_RETURN_NOT_OK(options.kernel.Validate());

  // One clock reading brackets the build for the metric and the trace.
  const uint64_t build_begin_us = telemetry::MonotonicMicros();

  // A NaN weight is neither positive nor negative: the split below
  // would drop its point without a word.
  size_t num_pos = 0;
  size_t num_neg = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i])) {
      return util::Status::InvalidArgument(
          "non-finite weight " + std::to_string(weights[i]) + " at row " +
          std::to_string(i));
    }
    num_pos += weights[i] > 0.0 ? 1 : 0;
    num_neg += weights[i] < 0.0 ? 1 : 0;
  }
  if (num_pos == 0) {
    return util::Status::InvalidArgument(
        "engine requires at least one positive-weight point");
  }

  Engine engine;
  engine.options_ = options;
  engine.weighting_type_ = ClassifyWeights(weights);

  // One frame, fitted on every point, for both trees (DESIGN.md §17).
  index::Frame frame;
  if (index::TakesPrincipalFrame(options.index_kind, points.cols())) {
    frame = index::FitPrincipalFrame(points);
  }

  if (num_pos == points.rows()) {
    // Types I and II: one tree over the caller's points and weights as
    // they are; the tree build checks the points.
    auto plus = BuildIndex(points, {}, weights, options, std::move(frame));
    if (!plus.ok()) return plus.status();
    engine.plus_tree_ = std::move(plus).ValueOrDie();
  } else {
    // Split into positive and negative sides (§IV-A2), dropping zero
    // weights; the minus tree stores |w_i| so both trees carry positive
    // weights. Each tree reads its rows of the caller's points in place,
    // with no copy of them. Every row is checked first, the dropped ones
    // too, so an error names the caller's row.
    KARL_RETURN_NOT_OK(index::CheckFinitePoints(points));
    std::vector<size_t> pos_rows, neg_rows;
    pos_rows.reserve(num_pos);
    neg_rows.reserve(num_neg);
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] > 0.0) {
        pos_rows.push_back(i);
      } else if (weights[i] < 0.0) {
        neg_rows.push_back(i);
      }
    }
    std::vector<double> pos_weights;
    pos_weights.reserve(num_pos);
    for (const size_t i : pos_rows) pos_weights.push_back(weights[i]);
    auto plus = BuildIndex(points, pos_rows, pos_weights, options, frame);
    if (!plus.ok()) return plus.status();
    engine.plus_tree_ = std::move(plus).ValueOrDie();

    if (!neg_rows.empty()) {
      std::vector<double> neg_weights;
      neg_weights.reserve(num_neg);
      for (const size_t i : neg_rows) neg_weights.push_back(-weights[i]);
      auto minus = BuildIndex(points, neg_rows, neg_weights, options,
                              std::move(frame));
      if (!minus.ok()) return minus.status();
      engine.minus_tree_ = std::move(minus).ValueOrDie();
    }
  }

  core::Evaluator::Options eval_options;
  eval_options.bounds = options.bounds;
  eval_options.max_level = options.max_level;
  eval_options.audit_bounds = options.audit_bounds;
  eval_options.metrics = options.metrics;
  eval_options.tracer = options.tracer;
  auto evaluator =
      core::Evaluator::Create(engine.plus_tree_.get(),
                              engine.minus_tree_.get(), options.kernel,
                              eval_options);
  if (!evaluator.ok()) return evaluator.status();
  engine.evaluator_ = std::make_unique<core::Evaluator>(
      std::move(evaluator).ValueOrDie());

  const uint64_t build_us = telemetry::MonotonicMicros() - build_begin_us;
  if (options.metrics != nullptr) {
    telemetry::Registry& reg = *options.metrics;
    // Which SIMD tier the evaluator hot path runs under (0 = scalar,
    // 1 = avx2, 2 = avx512); see core/simd/simd.h.
    reg.GetGauge("karl_simd_tier")
        ->Set(static_cast<double>(core::simd::ActiveTier()));
    reg.GetCounter("karl_engine_builds_total")->Increment();
    reg.GetRollingHistogram("karl_engine_build_usec")
        ->Record(static_cast<double>(build_us));
    reg.GetGauge("karl_engine_index_bytes")
        ->Set(static_cast<double>(engine.MemoryUsageBytes()));
    reg.GetGauge("karl_engine_points")
        ->Set(static_cast<double>(num_pos + num_neg));
    switch (engine.weighting_type_) {
      case WeightingType::kTypeI:
        reg.GetCounter("karl_engine_weighting_type_i_total")->Increment();
        break;
      case WeightingType::kTypeII:
        reg.GetCounter("karl_engine_weighting_type_ii_total")->Increment();
        break;
      case WeightingType::kTypeIII:
        reg.GetCounter("karl_engine_weighting_type_iii_total")->Increment();
        break;
    }
  }
  if (options.tracer != nullptr) {
    options.tracer->CompleteEvent(
        "engine_build", build_begin_us, build_us,
        {{"points", static_cast<double>(num_pos + num_neg)},
         {"index_bytes", static_cast<double>(engine.MemoryUsageBytes())},
         {"weighting_type",
          static_cast<double>(static_cast<int>(engine.weighting_type_))}});
  }
  return engine;
}

util::Result<Engine> Engine::Attach(
    std::unique_ptr<index::TreeIndex> plus_tree,
    std::unique_ptr<index::TreeIndex> minus_tree, WeightingType weighting,
    const EngineOptions& options) {
  if (plus_tree == nullptr) {
    return util::Status::InvalidArgument(
        "attach requires a positive-side tree");
  }
  if (weighting == WeightingType::kTypeIII && minus_tree == nullptr) {
    return util::Status::InvalidArgument(
        "Type III weighting requires a negative-side tree");
  }
  KARL_RETURN_NOT_OK(options.kernel.Validate());

  const uint64_t attach_begin_us = telemetry::MonotonicMicros();

  Engine engine;
  engine.options_ = options;
  engine.weighting_type_ = weighting;
  engine.plus_tree_ = std::move(plus_tree);
  engine.minus_tree_ = std::move(minus_tree);

  core::Evaluator::Options eval_options;
  eval_options.bounds = options.bounds;
  eval_options.max_level = options.max_level;
  eval_options.audit_bounds = options.audit_bounds;
  eval_options.metrics = options.metrics;
  eval_options.tracer = options.tracer;
  auto evaluator =
      core::Evaluator::Create(engine.plus_tree_.get(),
                              engine.minus_tree_.get(), options.kernel,
                              eval_options);
  if (!evaluator.ok()) return evaluator.status();
  engine.evaluator_ = std::make_unique<core::Evaluator>(
      std::move(evaluator).ValueOrDie());

  if (options.metrics != nullptr) {
    telemetry::Registry& reg = *options.metrics;
    reg.GetGauge("karl_simd_tier")
        ->Set(static_cast<double>(core::simd::ActiveTier()));
    reg.GetCounter("karl_engine_attaches_total")->Increment();
    const uint64_t attach_us = telemetry::MonotonicMicros() - attach_begin_us;
    reg.GetRollingHistogram("karl_engine_attach_usec")
        ->Record(static_cast<double>(attach_us));
    reg.GetGauge("karl_engine_index_bytes")
        ->Set(static_cast<double>(engine.MemoryUsageBytes()));
  }
  return engine;
}

util::Result<Engine> Engine::BuildUniform(const data::Matrix& points,
                                          double common_weight,
                                          const EngineOptions& options) {
  if (!std::isfinite(common_weight) || common_weight <= 0.0) {
    return util::Status::InvalidArgument(
        "Type I weighting requires a positive finite common weight");
  }
  const std::vector<double> weights(points.rows(), common_weight);
  return Build(points, weights, options);
}

size_t Engine::MemoryUsageBytes() const {
  size_t bytes = plus_tree_->MemoryUsageBytes();
  if (minus_tree_ != nullptr) bytes += minus_tree_->MemoryUsageBytes();
  return bytes;
}

}  // namespace karl
