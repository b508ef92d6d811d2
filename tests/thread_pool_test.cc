// Concurrency stress tests for util::ThreadPool: task completion,
// ParallelFor coverage/slot contracts, exception propagation, and
// shutdown-under-load. Designed to run under the debug-tsan preset (CI
// job tsan-batch) as well as the plain presets.
//
// KARL_TEST_THREADS (default 8) sets the worker count for the stress
// cases so CI can pin oversubscription independently of the host.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace karl::util {
namespace {

size_t TestThreads() {
  const char* env = std::getenv("KARL_TEST_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 8;
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(TestThreads());
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, ShutdownUnderLoadDrainsEverything) {
  // Tasks still queued (and still running) when the destructor starts
  // must all complete: shutdown is draining, not abandoning.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(TestThreads());
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // Destructor races the sleeping workers.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitFromWorkerTask) {
  // Tasks enqueued by running tasks are part of the drain set.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(TestThreads());
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&pool, &ran] {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(TestThreads());
  constexpr size_t kN = 10007;  // Prime: never divides evenly into chunks.
  std::vector<std::atomic<int>> hits(kN);
  for (const size_t chunk : {size_t{0}, size_t{1}, size_t{3}, size_t{4096},
                             size_t{20000}}) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.ParallelFor(kN, chunk, [&hits](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 0, [&called](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSlotsAreInRangeAndExclusive) {
  // Slots must lie in [0, num_threads()] and, at any instant, at most
  // one executor holds a given slot — slot-indexed accumulators then
  // need no synchronisation. Verified by marking slots busy/free around
  // each body invocation.
  ThreadPool pool(TestThreads());
  const size_t slots = pool.num_threads() + 1;
  std::vector<std::atomic<int>> busy(slots);
  for (auto& b : busy) b.store(0, std::memory_order_relaxed);
  std::atomic<bool> ok{true};
  pool.ParallelFor(5000, 7, [&](size_t, size_t, size_t slot) {
    if (slot >= slots) {
      ok.store(false, std::memory_order_relaxed);
      return;
    }
    if (busy[slot].fetch_add(1, std::memory_order_acq_rel) != 0) {
      ok.store(false, std::memory_order_relaxed);  // Slot shared!
    }
    std::this_thread::yield();
    busy[slot].fetch_sub(1, std::memory_order_acq_rel);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, ParallelForSlotLocalAccumulatorsSumExactly) {
  // The intended usage pattern of the slot contract: per-slot partial
  // sums with no atomics, merged after the call.
  ThreadPool pool(TestThreads());
  constexpr size_t kN = 20000;
  std::vector<uint64_t> partial(pool.num_threads() + 1, 0);
  pool.ParallelFor(kN, 13, [&partial](size_t begin, size_t end, size_t slot) {
    for (size_t i = begin; i < end; ++i) partial[slot] += i;
  });
  uint64_t total = 0;
  for (const uint64_t p : partial) total += p;
  EXPECT_EQ(total, uint64_t{kN} * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(TestThreads());
  EXPECT_THROW(
      pool.ParallelFor(1000, 1,
                       [](size_t begin, size_t, size_t) {
                         if (begin == 500) {
                           throw std::runtime_error("boom at 500");
                         }
                       }),
      std::runtime_error);

  // The pool must remain fully usable after a thrown body.
  std::atomic<int> ran{0};
  pool.ParallelFor(100, 0, [&ran](size_t begin, size_t end, size_t) {
    ran.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ParallelForRunsOneChunkOnCallerAsSlotZero) {
  ThreadPool pool(TestThreads());
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t begin, size_t end, size_t slot) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);

  EXPECT_THROW(pool.ParallelFor(1, 0,
                                [](size_t, size_t, size_t) {
                                  throw std::runtime_error("one chunk");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(257, 0);  // Caller + 1 worker; plain ints are fine
  pool.ParallelFor(hits.size(), 10, [&hits](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.ParallelFor(10, 0, [&ran](size_t begin, size_t end, size_t) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  // ParallelFor returning guarantees its own 10; the Submit task is
  // guaranteed only after the destructor drain.
  EXPECT_GE(ran.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller participates in the loop, so a body issuing its own
  // ParallelFor makes progress even when every worker is occupied.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, 1, [&](size_t, size_t, size_t) {
    pool.ParallelFor(16, 4, [&inner_total](size_t begin, size_t end, size_t) {
      inner_total.fetch_add(static_cast<int>(end - begin),
                            std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ConcurrentSubmittersStress) {
  // Many external threads hammering Submit while ParallelFor runs from
  // the main thread: exercises round-robin queues + stealing under
  // contention (the interesting TSan surface).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(TestThreads());
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &ran] {
        for (int i = 0; i < 200; ++i) {
          pool.Submit(
              [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    pool.ParallelFor(1000, 3, [&ran](size_t begin, size_t end, size_t) {
      ran.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
    for (auto& t : submitters) t.join();
  }
  EXPECT_EQ(ran.load(), 4 * 200 + 1000);
}

TEST(ThreadPoolTest, ManySequentialParallelForsReuseWorkers) {
  // Repeated small loops through one pool: catches lost-wakeup bugs
  // where a sleeping worker misses a notification and a loop hangs.
  ThreadPool pool(TestThreads());
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> ran{0};
    pool.ParallelFor(17, 2, [&ran](size_t begin, size_t end, size_t) {
      ran.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), 17) << "round " << round;
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, AttachMetricsExportsSaturationGauges) {
  telemetry::Registry registry;
  auto* queue_depth = registry.GetGauge("karl_pool_queue_depth");
  auto* active = registry.GetGauge("karl_pool_active_workers");
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(2);
    pool.AttachMetrics(&registry);

    // Occupy both workers; each publishes the active gauge before its
    // task body runs, so started==2 implies active==2 was observed.
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&started, &release] {
        started.fetch_add(1, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    }
    while (started.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    EXPECT_DOUBLE_EQ(active->value(), 2.0);

    // With every worker blocked, a third task must sit in the queue and
    // show up in the depth gauge.
    pool.Submit([] {});
    EXPECT_DOUBLE_EQ(queue_depth->value(), 1.0);

    release.store(true, std::memory_order_release);
  }  // Destructor drains; the gauges must return to idle.
  EXPECT_DOUBLE_EQ(queue_depth->value(), 0.0);
  EXPECT_DOUBLE_EQ(active->value(), 0.0);
}

}  // namespace
}  // namespace karl::util
