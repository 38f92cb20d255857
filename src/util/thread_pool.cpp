#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/error.hpp"

namespace krak::util {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  check(static_cast<bool>(task), "ThreadPool::submit requires a callable");
  {
    std::lock_guard lock(mutex_);
    check(!shutting_down_, "ThreadPool::submit after shutdown");
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  check(static_cast<bool>(fn), "ThreadPool::parallel_for requires a callable");
  parallel_for_chunked(count, 1,
                       [&fn](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) fn(i);
                       });
}

void ThreadPool::parallel_for_chunked(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  check(static_cast<bool>(fn),
        "ThreadPool::parallel_for_chunked requires a callable");
  check(grain > 0, "ThreadPool::parallel_for_chunked requires grain > 0");
  if (count == 0) return;
  // Chunks are claimed dynamically via a shared counter so uneven task
  // costs (e.g. large vs. small processor counts in a sweep) stay
  // balanced. A worker exception must reach the caller, not
  // std::terminate: the first one (by completion order) is captured,
  // later ones are dropped, and remaining chunks are abandoned — a
  // sweep with a broken point has no meaningful partial answer.
  struct SharedState {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };
  auto state = std::make_shared<SharedState>();
  const std::size_t chunks = (count + grain - 1) / grain;
  const std::size_t workers = std::min(chunks, thread_count());
  for (std::size_t w = 0; w < workers; ++w) {
    submit([state, count, grain, &fn] {
      for (;;) {
        if (state->failed.load(std::memory_order_acquire)) return;
        const std::size_t begin = state->next.fetch_add(grain);
        if (begin >= count) return;
        try {
          fn(begin, std::min(begin + grain, count));
        } catch (...) {
          std::lock_guard lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true, std::memory_order_release);
          return;
        }
      }
    });
  }
  wait_idle();
  if (state->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(state->error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down with no work left
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    // Destroy what the task captured before reporting it done, so a
    // caller returning from wait_idle() never races this thread's
    // destructors (e.g. dropping the last reference to an exception
    // that parallel_for_chunked rethrows).
    task = nullptr;
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace krak::util
