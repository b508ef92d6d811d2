// Fixed-size thread pool for batch-parallel query execution.
//
// Workers pop tasks FIFO from one shared queue guarded by one mutex.
// The pool's only producer in the serving stack is ParallelFor, which
// enqueues at most one helper task per worker, each of which joins a
// shared chunk cursor; that cursor, not the queue, balances the load,
// so a single queue is all the scheduling the pool needs.
//
// Scheduling model for data-parallel loops: ParallelFor splits [0, n)
// into chunks handed out dynamically from a shared cursor (chunked
// dynamic scheduling), so uneven per-item cost — the norm for KARL
// queries, where refinement work varies per query point — still load-
// balances. The calling thread participates as slot 0, which guarantees
// forward progress even when every worker is busy (and makes nested
// ParallelFor calls from inside a task deadlock-free).
//
// Shutdown is cooperative and draining: the destructor wakes every
// worker, lets them finish all queued tasks (including tasks enqueued by
// running tasks), then joins. Submitting from outside the pool after the
// destructor has begun is undefined.
//
// Exceptions thrown by a ParallelFor body are caught, the remaining
// chunks are cancelled (best effort), and the first exception is
// rethrown on the calling thread once every dispatched task has
// finished. Fire-and-forget Submit tasks must not throw.

#ifndef KARL_UTIL_THREAD_POOL_H_
#define KARL_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace karl::telemetry {
class Gauge;
class Registry;
}  // namespace karl::telemetry

namespace karl::util {

/// Fixed-size thread pool over one FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins all workers.
  ~ThreadPool();

  /// Number of worker threads (excluding callers participating in
  /// ParallelFor).
  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), or 1 when unknown.
  static size_t DefaultThreadCount();

  /// Exports pool-saturation gauges into `registry` (null detaches):
  /// `karl_pool_queue_depth` (tasks enqueued but not yet picked up) and
  /// `karl_pool_active_workers` (workers currently running a task;
  /// callers participating in ParallelFor are not counted). Updates are
  /// single relaxed stores on the task hot path. Attach before
  /// submitting work — not synchronized against in-flight tasks.
  void AttachMetrics(telemetry::Registry* registry);

  /// Enqueues a fire-and-forget task. The task must not throw.
  void Submit(std::function<void()> task);

  /// Loop body for ParallelFor: processes [begin, end). `slot` is a
  /// stable per-executor index in [0, num_threads()] — one executor runs
  /// exactly one slot for the whole call, so slot-indexed accumulators
  /// need no synchronisation.
  using LoopBody = std::function<void(size_t begin, size_t end, size_t slot)>;

  /// Runs body over [0, n) split into chunks of `chunk` iterations
  /// (0 = automatic: ~8 chunks per executor), handed out dynamically.
  /// The calling thread executes slot 0; up to num_threads() workers
  /// take the remaining slots. Blocks until every chunk completed or was
  /// cancelled by a thrown exception, which is rethrown here.
  void ParallelFor(size_t n, size_t chunk, const LoopBody& body);

 private:
  void WorkerLoop();

  // Updates the AttachMetrics gauges from the queue state.
  void PublishGauges() KARL_REQUIRES(mu_);

  std::vector<std::thread> workers_;
  telemetry::Gauge* queue_depth_gauge_ = nullptr;    // See AttachMetrics.
  telemetry::Gauge* active_workers_gauge_ = nullptr;
  Mutex mu_;
  CondVar wake_;
  std::deque<std::function<void()>> tasks_ KARL_GUARDED_BY(mu_);
  size_t active_ KARL_GUARDED_BY(mu_) = 0;  // Workers inside a task.
  bool stop_ KARL_GUARDED_BY(mu_) = false;
};

}  // namespace karl::util

#endif  // KARL_UTIL_THREAD_POOL_H_
