#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace vu = volsched::util;

TEST(ThreadPool, RunsAllSubmittedTasks) {
    vu::ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException) {
    vu::ThreadPool pool(2);
    for (int i = 0; i < 10; ++i)
        pool.submit([i] {
            if (i == 3) throw std::runtime_error("boom");
        });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
    vu::ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
    vu::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait_idle();
    // One worker: strict FIFO execution.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
    vu::ThreadPool pool(2);
    pool.wait_idle();
    SUCCEED();
}

namespace {

/// Unevenly-sized busy work so task completion order is thoroughly shuffled
/// relative to submission order: heavy and light tasks interleave and the
/// queue drains out of index order on any pool with >1 worker.
double busy_work(std::size_t i) {
    vu::Rng rng(vu::mix_seed(0xB05Bu, i));
    const std::size_t spins = 64 + 8 * (rng() % 512);
    double acc = 0.0;
    for (std::size_t k = 0; k < spins; ++k)
        acc += std::sqrt(static_cast<double>(i + k + 1));
    return acc;
}

} // namespace

/// The determinism contract the parallel-campaign work inherits: per-slot
/// results land in per-index storage and are reduced *in index order*, so
/// the floating-point sum is bit-identical to a serial run no matter how
/// the pool interleaves completions.  Summing in completion order instead
/// would reassociate the doubles and drift.
TEST(ThreadPool, OrderedReductionBitMatchesSerialUnderConcurrency) {
    constexpr std::size_t kTasks = 512;

    // Serial reference, single thread of execution, index order.
    std::vector<double> serial(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) serial[i] = busy_work(i);
    double serial_sum = 0.0;
    for (double v : serial) serial_sum += v;

    for (std::size_t threads : {2u, 3u, 7u}) {
        vu::ThreadPool pool(threads);
        std::vector<double> partial(kTasks, 0.0);
        std::vector<std::size_t> completion_order;
        std::mutex order_mutex;
        for (std::size_t i = 0; i < kTasks; ++i)
            pool.submit([&, i] {
                partial[i] = busy_work(i);
                std::lock_guard lock(order_mutex);
                completion_order.push_back(i);
            });
        pool.wait_idle();
        ASSERT_EQ(completion_order.size(), kTasks);

        // Ordered reduction: bit-identical, not just approximately equal.
        double pool_sum = 0.0;
        for (double v : partial) pool_sum += v;
        EXPECT_EQ(pool_sum, serial_sum) << "threads=" << threads;
        EXPECT_EQ(partial, serial) << "threads=" << threads;
    }
}

/// Repeated waves through one pool: bursts of submit()s, each drained by a
/// wait_idle barrier, must not lose tasks or deadlock (exercises the
/// idle/active bookkeeping under contention; run under the tsan preset).
TEST(ThreadPool, RepeatedWavesRetainEveryTask) {
    vu::ThreadPool pool(4);
    std::atomic<long long> total{0};
    for (int wave = 0; wave < 20; ++wave) {
        for (int burst : {50, 10}) {
            for (int i = 0; i < burst; ++i)
                pool.submit([&total] { ++total; });
            pool.wait_idle();
        }
    }
    EXPECT_EQ(total.load(), 20 * (50 + 10));
}
