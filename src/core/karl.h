// KARL public API: build an engine over a weighted point set, then run
// TKAQ / eKAQ / exact kernel aggregation queries against it.
//
// Quickstart:
//
//   karl::EngineOptions options;
//   options.kernel = karl::core::KernelParams::Gaussian(0.5);
//   auto engine = karl::Engine::Build(points, weights, options);
//   bool above = engine.value().Tkaq(q, /*tau=*/10.0);
//
// The engine detects the weighting type (paper Table I) from the weights
// and, for Type III, transparently splits the data into positive- and
// negative-weight trees (§IV-A2).

#ifndef KARL_CORE_KARL_H_
#define KARL_CORE_KARL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/kernel.h"
#include "index/tree_index.h"
#include "util/status.h"

namespace karl::util {
class ThreadPool;
}  // namespace karl::util

namespace karl {

/// Weighting taxonomy of paper Table I.
enum class WeightingType {
  kTypeI = 1,    ///< Identical positive weights (kernel density).
  kTypeII = 2,   ///< Arbitrary positive weights (1-class SVM).
  kTypeIII = 3,  ///< Unrestricted weights (2-class SVM).
};

/// Human-readable weighting name ("I" / "II" / "III").
std::string_view WeightingTypeToString(WeightingType type);

/// Classifies a weight vector per paper Table I.
WeightingType ClassifyWeights(std::span<const double> weights);

/// Engine construction parameters.
struct EngineOptions {
  core::KernelParams kernel;
  core::BoundKind bounds = core::BoundKind::kKarl;
  index::IndexKind index_kind = index::IndexKind::kKdTree;
  size_t leaf_capacity = 80;
  /// Level cap forwarded to the evaluator (in-situ T_i simulation);
  /// < 0 disables.
  int max_level = -1;
  /// Runtime bound-invariant auditor (see core::Evaluator::Options::
  /// audit_bounds): verifies every node bound and every refinement step
  /// against exact aggregates, aborting with diagnostics on violation.
  /// Orders of magnitude slower; defaults ON when compiled with
  /// -DKARL_AUDIT_BOUNDS.
#ifdef KARL_AUDIT_BOUNDS
  bool audit_bounds = true;
#else
  bool audit_bounds = false;
#endif
  /// Telemetry sinks, forwarded to the evaluator and also fed by
  /// Engine::Build itself (build time, index memory, weighting-type
  /// counts). Non-owning, runtime-only — snapshots do not serialize
  /// them — and null disables instrumentation entirely.
  telemetry::Registry* metrics = nullptr;
  telemetry::TraceRecorder* tracer = nullptr;
};

/// A built kernel-aggregation engine: indexes + evaluator over one
/// weighted dataset.
///
/// Thread safety: an Engine is immutable after Build, and every const
/// query method (Tkaq/Ekaq/Exact and their *Batch forms) is safe to call
/// concurrently from any number of threads. Concurrent callers must not
/// share one EvalStats object across threads (its counters are plain
/// integers); the *Batch methods handle this with per-worker
/// accumulators merged once per batch.
class Engine {
 public:
  /// Builds indexes over `points` with per-point `weights` (any weighting
  /// type; zero-weight points are dropped). Fails on empty/mismatched
  /// input or invalid kernel parameters.
  static util::Result<Engine> Build(const data::Matrix& points,
                                    std::span<const double> weights,
                                    const EngineOptions& options);

  /// Type-I convenience: every point carries `common_weight`.
  static util::Result<Engine> BuildUniform(const data::Matrix& points,
                                           double common_weight,
                                           const EngineOptions& options);

  /// Wires an engine over trees that are already materialised — the mmap
  /// snapshot attach path (registry/snapshot.h). Takes ownership of the
  /// tree objects; any external memory the trees view (e.g. a mapping)
  /// must outlive the engine. `minus_tree` may be null (Type I/II);
  /// `weighting` is trusted from the snapshot header rather than
  /// re-derived (the weights may live in mapped memory).
  static util::Result<Engine> Attach(
      std::unique_ptr<index::TreeIndex> plus_tree,
      std::unique_ptr<index::TreeIndex> minus_tree, WeightingType weighting,
      const EngineOptions& options);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// TKAQ: is F_P(q) > tau?
  bool Tkaq(std::span<const double> q, double tau,
            core::EvalStats* stats = nullptr) const {
    return evaluator_->QueryThreshold(q, tau, stats);
  }

  /// eKAQ: F̂ within relative error eps (Type I/II only).
  double Ekaq(std::span<const double> q, double eps,
              core::EvalStats* stats = nullptr) const {
    return evaluator_->QueryApproximate(q, eps, stats);
  }

  /// Exact F_P(q) by full scan.
  double Exact(std::span<const double> q,
               core::EvalStats* stats = nullptr) const {
    return evaluator_->QueryExact(q, stats);
  }

  /// Batch TKAQ over every row of `queries`, fanned across `pool`
  /// (null runs serially): out[i] = (F(q_i) > tau). Results are
  /// bit-identical to the serial loop for any thread count; see
  /// core::BatchEvaluator (core/batch.h) for chunk control and the
  /// determinism/stats contract.
  std::vector<uint8_t> TkaqBatch(const data::Matrix& queries, double tau,
                                 util::ThreadPool* pool = nullptr,
                                 core::EvalStats* stats = nullptr) const;

  /// Batch eKAQ: out[i] = F̂(q_i) within relative error eps.
  std::vector<double> EkaqBatch(const data::Matrix& queries, double eps,
                                util::ThreadPool* pool = nullptr,
                                core::EvalStats* stats = nullptr) const;

  /// Batch exact aggregation by full scan per query.
  std::vector<double> ExactBatch(const data::Matrix& queries,
                                 util::ThreadPool* pool = nullptr,
                                 core::EvalStats* stats = nullptr) const;

  /// The detected weighting type.
  WeightingType weighting_type() const { return weighting_type_; }

  /// The underlying evaluator (trace hooks, level-capped queries).
  const core::Evaluator& evaluator() const { return *evaluator_; }

  /// Positive-weight tree (always present).
  const index::TreeIndex& plus_tree() const { return *plus_tree_; }

  /// Negative-weight tree, or nullptr for Type I/II data.
  const index::TreeIndex* minus_tree() const { return minus_tree_.get(); }

  /// Options the engine was built with.
  const EngineOptions& options() const { return options_; }

  /// Total index memory footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  Engine() = default;

  EngineOptions options_;
  WeightingType weighting_type_ = WeightingType::kTypeI;
  std::unique_ptr<index::TreeIndex> plus_tree_;
  std::unique_ptr<index::TreeIndex> minus_tree_;
  // unique_ptr so the Engine stays movable with stable evaluator address.
  std::unique_ptr<core::Evaluator> evaluator_;
};

}  // namespace karl

#endif  // KARL_CORE_KARL_H_
