#pragma once
/// \file thread_pool.hpp
/// Work-queue thread pool under the grid drivers' completion pipeline
/// (exp/campaign.cpp), which submits one task per grid job.  Jobs are
/// independent by construction (per-instance derived RNG seeds), so the
/// grid is embarrassingly parallel.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace volsched::util {

/// Fixed-size pool with a single shared FIFO queue.
///
/// Exceptions thrown by tasks are caught and re-thrown (first one wins) from
/// wait_idle(), so a failing task is never silently dropped.  (The
/// completion pipeline catches its jobs' exceptions itself and rethrows the
/// first from its emitter.)
class ThreadPool {
public:
    /// `threads == 0` selects hardware_concurrency() (min 1).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue a task.  Must not be called after shutdown started.
    void submit(std::function<void()> task);

    /// Blocks until the queue drains and all workers are idle, then rethrows
    /// the first task exception if any occurred.
    void wait_idle();

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    std::size_t active_ = 0;
    bool stop_ = false;
    std::exception_ptr first_error_;
};

} // namespace volsched::util
