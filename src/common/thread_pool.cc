#include "common/thread_pool.h"

#include "common/check.h"

namespace greta {

ThreadPool::ThreadPool(size_t num_workers) {
  if (num_workers == 0) num_workers = 1;
  pinned_.resize(num_workers);
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::SubmitPinned(size_t worker, std::function<void()> task) {
  GRETA_CHECK(task != nullptr);
  GRETA_CHECK(worker < pinned_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    GRETA_CHECK(!shutdown_);
    pinned_[worker].push_back(std::move(task));
  }
  // The pinned worker may be the one waiting; wake everyone rather than
  // tracking which condvar waiter maps to which thread.
  task_ready_.notify_all();
}

void ThreadPool::WorkerLoop(size_t index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this, index] {
        return shutdown_ || !pinned_[index].empty();
      });
      if (pinned_[index].empty()) return;  // shutdown, nothing left
      task = std::move(pinned_[index].front());
      pinned_[index].pop_front();
    }
    task();
  }
}

}  // namespace greta
