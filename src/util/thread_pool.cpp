#include "util/thread_pool.hpp"

#include <algorithm>

namespace volsched::util {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0)
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard lock(mutex_);
        queue_.push(std::move(task));
    }
    cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop();
            ++active_;
        }
        try {
            task();
        } catch (...) {
            std::lock_guard lock(mutex_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        {
            std::lock_guard lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
        }
    }
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    if (first_error_) {
        auto err = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

} // namespace volsched::util
