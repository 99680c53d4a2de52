// Fixed-size worker pool with stable worker identities, fed by an unbounded
// FIFO queue. The query service keeps one evaluation context (engine +
// caches + scratch) per worker, so tasks are dispatched as
// (worker_id, task) pairs: any worker may claim any task, but a worker only
// ever touches its own context.
//
// The pool bounds nothing: the service decides admission before it queues
// anything and queues at most one claim-cursor runner per worker per batch
// (see QueryService), so the queue stays short by construction. Tasks are
// claimed FIFO; destruction drains the queue (every accepted task runs —
// cancelled queries unwind in microseconds, so a shutdown with a deep
// queue stays prompt) and then joins the workers.
#ifndef BINCHAIN_SERVICE_THREAD_POOL_H_
#define BINCHAIN_SERVICE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace binchain {

class ThreadPool {
 public:
  /// A unit of work; receives the executing worker's stable id in
  /// [0, size()).
  using Task = std::function<void(size_t worker_id)>;

  /// Spawns `num_threads` workers (clamped to >= 1). Workers idle on a
  /// condition variable between tasks.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues `task` behind every task already queued. Must not be called
  /// after destruction has begun.
  void Submit(Task task);

 private:
  void WorkerLoop(size_t worker_id);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for tasks
  std::deque<Task> queue_;           // guarded by mu_
  bool stop_ = false;                // guarded by mu_

  std::vector<std::thread> threads_;
};

}  // namespace binchain

#endif  // BINCHAIN_SERVICE_THREAD_POOL_H_
