// Parallel batch-query execution over a shared engine.
//
// KARL's per-query refinement (paper §V) is embarrassingly parallel
// across query points: a built Engine is immutable, so a batch of
// queries fans out across a thread pool with zero coordination on the
// hot path.
//
// Determinism contract: each query runs the identical single-threaded
// refinement it would run in a serial loop, and results are stored by
// query index — so batch output is bit-identical to the serial loop for
// every thread count and schedule. That holds whichever SIMD tier
// (core/simd) the process runs under, because the tier is process-wide
// and every row executes the same per-row code path; only *across*
// tiers (e.g. a KARL_SIMD=scalar run vs an avx2 run) do results differ,
// within the tolerance contract of core/simd/simd.h.
//
// Stats & telemetry: each executor accumulates work counters into its
// own slot-local EvalStats and the slots are summed once per batch into
// the caller's EvalStats; a batch without a pool is the same fan-out
// body run once over every row with one slot. Fanning one
// caller-supplied EvalStats pointer across workers instead would be a
// data race (plain size_t increments; TSan flags it) — the slot-local
// merge is the supported pattern, and batch_evaluator_test pins it
// under TSan. Batch-level metrics
// (karl_batch_*) land in the engine's registry once per batch, never per
// query.

#ifndef KARL_CORE_BATCH_H_
#define KARL_CORE_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/karl.h"

namespace karl::util {
class ThreadPool;
}  // namespace karl::util

namespace karl::core {

/// How a batch is scheduled.
struct BatchOptions {
  /// Pool to fan queries across; null runs the batch serially on the
  /// calling thread through the same fan-out body, so serial and
  /// parallel results are directly comparable. Non-owning.
  util::ThreadPool* pool = nullptr;
  /// Per-row completion hook, invoked on the executing thread right
  /// after each row finishes with the row's index, its begin/end stamps
  /// (telemetry::MonotonicMicros domain), and the engine work that row
  /// alone performed. This is how the serving stack attributes eval time
  /// and EvalStats back to individual coalesced requests. Must be
  /// thread-safe when `pool` is set (rows complete concurrently); rows
  /// are observed exactly once, in no particular order. Leaving it empty
  /// keeps the hot path free of per-row clock reads.
  std::function<void(size_t row, uint64_t begin_us, uint64_t end_us,
                     const EvalStats& stats)>
      row_observer;
};

/// Batch-query front end over one engine. Cheap to construct (resolves
/// telemetry handles once); the engine must outlive it. Safe to use from
/// one thread at a time; the engine itself may be shared by any number
/// of BatchEvaluators.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Engine& engine,
                          const BatchOptions& options = {});

  /// TKAQ per row of `queries`: out[i] = (F(q_i) > tau). uint8_t instead
  /// of bool so rows can be written concurrently (std::vector<bool> bits
  /// share bytes — a data race under concurrent writers).
  std::vector<uint8_t> Tkaq(const data::Matrix& queries, double tau,
                            EvalStats* stats = nullptr) const;

  /// eKAQ per row: out[i] = F̂(q_i) within relative error eps
  /// (Type I/II weighting only, as in the serial API).
  std::vector<double> Ekaq(const data::Matrix& queries, double eps,
                           EvalStats* stats = nullptr) const;

  /// Exact F(q_i) per row by full scan.
  std::vector<double> Exact(const data::Matrix& queries,
                            EvalStats* stats = nullptr) const;

 private:
  // Shared fan-out skeleton: runs `per_query(q, slot_stats)` for every
  // row, writing by index; merges slot stats; records batch metrics.
  template <typename T, typename PerQuery>
  std::vector<T> Run(const data::Matrix& queries, EvalStats* stats,
                     const PerQuery& per_query) const;

  // Batch-level metric handles; null when the engine has no registry.
  struct Instruments {
    telemetry::Counter* batches = nullptr;
    telemetry::Counter* queries = nullptr;
    telemetry::RollingHistogram* batch_usec = nullptr;
    telemetry::Gauge* executors = nullptr;
  };

  void ResolveInstruments(telemetry::Registry* registry);

  const Engine* engine_ = nullptr;
  BatchOptions options_;
  Instruments instruments_;
};

}  // namespace karl::core

#endif  // KARL_CORE_BATCH_H_
