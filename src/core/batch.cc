#include "core/batch.h"

#include <optional>
#include <utility>

#include "telemetry/context.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace karl::core {

void BatchEvaluator::ResolveInstruments(telemetry::Registry* registry) {
  if (registry == nullptr) return;
  instruments_.batches = registry->GetCounter("karl_batch_batches_total");
  instruments_.queries = registry->GetCounter("karl_batch_queries_total");
  instruments_.batch_usec = registry->GetRollingHistogram("karl_batch_usec");
  instruments_.executors = registry->GetGauge("karl_batch_executors");
}

BatchEvaluator::BatchEvaluator(const Engine& engine,
                               const BatchOptions& options)
    : engine_(&engine), options_(options) {
  ResolveInstruments(engine.options().metrics);
}

template <typename T, typename PerQuery>
std::vector<T> BatchEvaluator::Run(const data::Matrix& queries,
                                   EvalStats* stats,
                                   const PerQuery& per_query) const {
  const size_t n = queries.rows();
  std::vector<T> out(n);
  std::optional<util::Stopwatch> timer;
  if (instruments_.batches != nullptr) timer.emplace();

  // Runs one row, attributing its clock time and stats delta to the
  // row_observer when one is set; the un-observed path stays exactly the
  // bare per_query call.
  const auto& observer = options_.row_observer;
  const auto run_row = [&per_query, &observer](size_t i,
                                               std::span<const double> q,
                                               EvalStats* work) -> T {
    if (!observer) return per_query(q, work);
    const uint64_t begin_us = telemetry::MonotonicMicros();
    const EvalStats before = *work;
    T result = per_query(q, work);
    const uint64_t end_us = telemetry::MonotonicMicros();
    EvalStats delta;
    delta.iterations = work->iterations - before.iterations;
    delta.nodes_expanded = work->nodes_expanded - before.nodes_expanded;
    delta.kernel_evals = work->kernel_evals - before.kernel_evals;
    observer(i, begin_us, end_us, delta);
    return result;
  };

  // One EvalStats per executor slot: workers never share a work
  // accumulator (sharing the caller's EvalStats across workers is a
  // plain-integer data race), and the slot sums merge into the caller's
  // stats exactly once per batch. Without a pool the caller runs the
  // whole batch as slot 0.
  util::ThreadPool* const pool = options_.pool;
  const size_t executors = pool != nullptr ? pool->num_threads() + 1 : 1;
  std::vector<EvalStats> slot_stats(executors);
  const auto fan_out = [&queries, &out, &slot_stats, &run_row](
                           size_t begin, size_t end, size_t slot) {
    EvalStats& local = slot_stats[slot];
    for (size_t i = begin; i < end; ++i) {
      out[i] = run_row(i, queries.Row(i), &local);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, /*chunk=*/0, fan_out);
  } else {
    fan_out(0, n, 0);
  }
  if (stats != nullptr) {
    for (const EvalStats& s : slot_stats) *stats += s;
  }

  if (instruments_.batches != nullptr) {
    instruments_.batches->Increment();
    instruments_.queries->Add(n);
    instruments_.batch_usec->Record(timer->ElapsedSeconds() * 1e6);
    instruments_.executors->Set(static_cast<double>(executors));
  }
  return out;
}

std::vector<uint8_t> BatchEvaluator::Tkaq(const data::Matrix& queries,
                                          double tau,
                                          EvalStats* stats) const {
  const auto per_query = [this, tau](std::span<const double> q,
                                     EvalStats* work) -> uint8_t {
    return engine_->Tkaq(q, tau, work) ? 1 : 0;
  };
  return Run<uint8_t>(queries, stats, per_query);
}

std::vector<double> BatchEvaluator::Ekaq(const data::Matrix& queries,
                                         double eps,
                                         EvalStats* stats) const {
  const auto per_query = [this, eps](std::span<const double> q,
                                     EvalStats* work) {
    return engine_->Ekaq(q, eps, work);
  };
  return Run<double>(queries, stats, per_query);
}

std::vector<double> BatchEvaluator::Exact(const data::Matrix& queries,
                                          EvalStats* stats) const {
  const auto per_query = [this](std::span<const double> q, EvalStats* work) {
    return engine_->Exact(q, work);
  };
  return Run<double>(queries, stats, per_query);
}

}  // namespace karl::core

namespace karl {

std::vector<uint8_t> Engine::TkaqBatch(const data::Matrix& queries,
                                       double tau, util::ThreadPool* pool,
                                       core::EvalStats* stats) const {
  core::BatchOptions options;
  options.pool = pool;
  return core::BatchEvaluator(*this, options).Tkaq(queries, tau, stats);
}

std::vector<double> Engine::EkaqBatch(const data::Matrix& queries, double eps,
                                      util::ThreadPool* pool,
                                      core::EvalStats* stats) const {
  core::BatchOptions options;
  options.pool = pool;
  return core::BatchEvaluator(*this, options).Ekaq(queries, eps, stats);
}

std::vector<double> Engine::ExactBatch(const data::Matrix& queries,
                                       util::ThreadPool* pool,
                                       core::EvalStats* stats) const {
  core::BatchOptions options;
  options.pool = pool;
  return core::BatchEvaluator(*this, options).Exact(queries, stats);
}

}  // namespace karl
