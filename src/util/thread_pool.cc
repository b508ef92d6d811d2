#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace karl::util {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(&mu_);
    stop_ = true;
  }
  wake_.SignalAll();
  for (auto& worker : workers_) worker.join();
  const MutexLock lock(&mu_);
  KARL_DCHECK(tasks_.empty()) << ": thread pool destroyed with undrained tasks";
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::AttachMetrics(telemetry::Registry* registry) {
  if (registry == nullptr) {
    queue_depth_gauge_ = nullptr;
    active_workers_gauge_ = nullptr;
    return;
  }
  queue_depth_gauge_ = registry->GetGauge("karl_pool_queue_depth");
  active_workers_gauge_ = registry->GetGauge("karl_pool_active_workers");
  queue_depth_gauge_->Set(0.0);
  active_workers_gauge_->Set(0.0);
}

void ThreadPool::PublishGauges() {
  if (queue_depth_gauge_ == nullptr) return;
  queue_depth_gauge_->Set(static_cast<double>(tasks_.size()));
  active_workers_gauge_->Set(static_cast<double>(active_));
}

void ThreadPool::Submit(std::function<void()> task) {
  KARL_DCHECK(task != nullptr) << ": null task submitted to thread pool";
  {
    const MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
    PublishGauges();
  }
  wake_.Signal();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      const MutexLock lock(&mu_);
      while (tasks_.empty() && !stop_) wake_.Wait(&mu_);
      if (tasks_.empty()) return;  // Stopping, and every task has run.
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++active_;
      PublishGauges();
    }
    task();
    const MutexLock lock(&mu_);
    --active_;
    PublishGauges();
  }
}

void ThreadPool::ParallelFor(size_t n, size_t chunk, const LoopBody& body) {
  if (n == 0) return;
  const size_t executors = num_threads() + 1;  // Workers + calling thread.
  if (chunk == 0) {
    chunk = std::max<size_t>(1, n / (executors * 8));
  }

  // Heap-shared loop state: a dispatched helper task may not get CPU
  // time until after this call returned (see the wait below), so the
  // cursor, the body copy, and the bookkeeping must outlive the caller's
  // stack frame. The shared_ptr held by each helper keeps it alive.
  struct LoopState {
    LoopState(size_t n, size_t chunk, const LoopBody& body)
        : n(n), chunk(chunk), body(body) {}

    const size_t n;
    const size_t chunk;
    const LoopBody body;  // Owned copy; helpers may outlive the caller's.
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar done_cv;
    // Helpers inside RunSlot.
    size_t active KARL_GUARDED_BY(mu) = 0;
    // First exception wins.
    std::exception_ptr error KARL_GUARDED_BY(mu);

    void RunSlot(size_t slot) {
      try {
        for (size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
             begin < n;
             begin = next.fetch_add(chunk, std::memory_order_relaxed)) {
          body(begin, std::min(begin + chunk, n), slot);
        }
      } catch (...) {
        // Cancel the remaining chunks (best effort) and record the
        // first exception for the caller to rethrow.
        next.store(n, std::memory_order_relaxed);
        const MutexLock lock(&mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  auto state = std::make_shared<LoopState>(n, chunk, body);

  // One loop task per worker, at most one per chunk beyond the caller's.
  const size_t chunks = (n + chunk - 1) / chunk;
  const size_t helpers = std::min(num_threads(), chunks - 1);
  for (size_t slot = 1; slot <= helpers; ++slot) {
    Submit([state, slot] {
      {
        const MutexLock lock(&state->mu);
        ++state->active;
      }
      state->RunSlot(slot);
      const MutexLock lock(&state->mu);
      if (--state->active == 0) state->done_cv.SignalAll();
    });
  }

  state->RunSlot(0);

  // The caller returning from RunSlot(0) means the cursor is exhausted,
  // so every chunk was claimed by the caller or by a *started* helper.
  // Wait only for those started helpers: a helper still sitting in a
  // queue can never claim a chunk and simply no-ops whenever a worker
  // eventually runs it (possibly after this call returned). Waiting on
  // never-started helpers would deadlock nested ParallelFor calls —
  // with every worker blocked in an outer body's inner wait, queued
  // inner helpers would never get a thread.
  state->mu.Lock();
  while (state->active != 0) state->done_cv.Wait(&state->mu);
  const std::exception_ptr error = state->error;
  state->mu.Unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace karl::util
