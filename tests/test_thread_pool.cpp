#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/metrics.hpp"

namespace fastmon {
namespace {

TEST(ThreadPool, ExplicitSizeIsHonored) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeMatchesHardware) {
    ThreadPool pool;
    EXPECT_EQ(pool.size(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
    ThreadPool pool(4);
    constexpr int kTasks = 2000;
    std::vector<std::atomic<int>> hits(kTasks);
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i) {
        group.run([&hits, i] { hits[i].fetch_add(1); });
    }
    group.wait();
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, ContendedCounterIsExact) {
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    ThreadPool::TaskGroup group(pool);
    constexpr std::uint64_t kTasks = 500;
    constexpr std::uint64_t kIters = 200;
    for (std::uint64_t t = 0; t < kTasks; ++t) {
        group.run([&sum] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                sum.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    group.wait();
    EXPECT_EQ(sum.load(), kTasks * kIters);
}

TEST(ThreadPool, ReusedAcrossSubmissionRounds) {
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        ThreadPool::TaskGroup group(pool);
        for (int i = 0; i < 20; ++i) {
            group.run([&total] { total.fetch_add(1); });
        }
        group.wait();
    }
    EXPECT_EQ(total.load(), 50 * 20);
}

TEST(ThreadPool, WaitRethrowsFirstException) {
    ThreadPool pool(2);
    ThreadPool::TaskGroup group(pool);
    std::atomic<int> completed{0};
    for (int i = 0; i < 16; ++i) {
        group.run([&completed, i] {
            if (i == 5) throw std::runtime_error("task 5 failed");
            completed.fetch_add(1);
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    // The group is drained after wait(): a second wait is a no-op and
    // must not rethrow the already-delivered exception.
    EXPECT_NO_THROW(group.wait());
    EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, CancelDrainsQueuedTasksWithoutRunningThem) {
    ThreadPool pool(2);
    ThreadPool::TaskGroup group(pool);
    // Park both workers so the queue backs up deterministically.
    std::atomic<int> parked{0};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    for (int i = 0; i < 2; ++i) {
        group.run([&parked, &release, &ran] {
            parked.fetch_add(1);
            while (!release.load()) std::this_thread::yield();
            ran.fetch_add(1);
        });
    }
    while (parked.load() < 2) std::this_thread::yield();
    constexpr int kQueued = 100;
    for (int i = 0; i < kQueued; ++i) {
        group.run([&ran] { ran.fetch_add(1); });
    }
    pool.cancel();
    release.store(true);
    // wait() still balances: drained tasks complete their bookkeeping,
    // they just skip the user function.
    group.wait();
    EXPECT_EQ(ran.load(), 2);  // only the already-running blockers
    EXPECT_EQ(pool.stats().tasks_drained, static_cast<std::uint64_t>(kQueued));
    pool.reset_cancel();
    // The pool is usable again after the drain.
    ThreadPool::TaskGroup after(pool);
    std::atomic<int> post{0};
    after.run([&post] { post.fetch_add(1); });
    after.wait();
    EXPECT_EQ(post.load(), 1);
}

TEST(ThreadPool, NestedSubmissionFromWorkerTasks) {
    ThreadPool pool(3);
    std::atomic<int> inner_runs{0};
    ThreadPool::TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
        outer.run([&pool, &inner_runs] {
            ThreadPool::TaskGroup inner(pool);
            for (int k = 0; k < 8; ++k) {
                inner.run([&inner_runs] { inner_runs.fetch_add(1); });
            }
            inner.wait();  // waiting inside a worker must not deadlock
        });
    }
    outer.wait();
    EXPECT_EQ(inner_runs.load(), 8 * 8);
}

TEST(ThreadPool, ParallelChunksCoversRangeExactly) {
    ThreadPool pool(4);
    constexpr std::size_t kTotal = 10007;  // prime: uneven chunks
    std::vector<std::atomic<int>> hits(kTotal);
    pool.parallel_chunks(kTotal, 0, [&hits](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kTotal; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelChunksEmptyAndSingle) {
    ThreadPool pool(2);
    int calls = 0;
    pool.parallel_chunks(0, 0, [&calls](std::size_t, std::size_t) {
        ++calls;
    });
    EXPECT_EQ(calls, 0);
    pool.parallel_chunks(1, 0, [&calls](std::size_t b, std::size_t e) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, StatsCountExecutedTasks) {
    ThreadPool pool(4);
    constexpr int kTasks = 300;
    std::atomic<int> ran{0};
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < kTasks; ++i) {
        group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.tasks_executed, static_cast<std::uint64_t>(kTasks));
    // All tasks came through the injection queue (caller is external).
    EXPECT_EQ(stats.tasks_injected, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.worker_busy_seconds.size(), pool.size());
    EXPECT_GE(stats.total_busy_seconds(), 0.0);
}

TEST(ThreadPool, StatsCountIsExactRightAfterEveryWait) {
    // The run/wait/read-stats pattern, repeated: every task of a group
    // must be counted by the time wait() returns, not shortly after.
    ThreadPool pool(4);
    constexpr int kRounds = 200;
    constexpr int kTasks = 300;
    std::atomic<int> ran{0};
    for (int round = 1; round <= kRounds; ++round) {
        ThreadPool::TaskGroup group(pool);
        for (int i = 0; i < kTasks; ++i) {
            group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
        group.wait();
        ASSERT_EQ(pool.stats().tasks_executed,
                  static_cast<std::uint64_t>(round) * kTasks)
            << "round " << round;
    }
    EXPECT_EQ(ran.load(), kRounds * kTasks);
}

TEST(ThreadPool, PublishMetricsFillsPoolGauges) {
    ThreadPool pool(2);
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) {
        group.run([] {});
    }
    group.wait();
    MetricsRegistry reg;
    pool.publish_metrics(reg);
    EXPECT_DOUBLE_EQ(reg.gauge("pool.workers").value(), 2.0);
    EXPECT_DOUBLE_EQ(reg.gauge("pool.tasks_executed").value(), 50.0);
    EXPECT_EQ(reg.histogram("pool.worker_busy_seconds").count(), 2u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
    ThreadPool& a = ThreadPool::shared();
    ThreadPool& b = ThreadPool::shared();
    EXPECT_EQ(&a, &b);
    std::atomic<int> ran{0};
    ThreadPool::TaskGroup group(a);
    group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace fastmon
