#ifndef GRETA_COMMON_THREAD_POOL_H_
#define GRETA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace greta {

/// A fixed-size pool of pinned workers (src/runtime/ sharded execution):
/// SubmitPinned(w, task) guarantees the task runs on worker `w`, so
/// per-shard state touched only by that shard's drain loop needs no further
/// synchronization. Long-running tasks (e.g. a queue drain loop that exits
/// on queue close) simply occupy their worker until they return; the
/// destructor runs every queued task, then joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_workers` workers (at least 1).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task that must execute on worker `worker` (< num_workers).
  void SubmitPinned(size_t worker, std::function<void()> task);

  size_t num_workers() const { return threads_.size(); }

 private:
  void WorkerLoop(size_t index);

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::vector<std::deque<std::function<void()>>> pinned_;  // per worker
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace greta

#endif  // GRETA_COMMON_THREAD_POOL_H_
