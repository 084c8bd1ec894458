// Work-stealing thread pool for independent simulation tasks.
//
// Each worker owns a deque: it pushes and pops its own work LIFO (hot
// caches) and steals FIFO from the other end of a victim's deque when it
// runs dry (oldest tasks first, the classic Blumofe/Leiserson discipline).
// The pool is built for coarse tasks -- a full-system simulation run takes
// milliseconds to seconds -- so the deques are mutex-guarded rather than
// lock-free; contention is negligible at this granularity and the simple
// implementation is easy to prove race-free under TSan.
//
// Determinism contract: the pool schedules *which thread* runs a task, never
// what the task computes.  Tasks must not share mutable state; the runner
// layer (experiment.hpp) gives each task its own System and a seed derived
// from the task's identity, so results are independent of thread count and
// scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coolpim::runner {

class Pool {
 public:
  /// Upper bound on the worker count (one thread each), enforced on every
  /// path -- COOLPIM_JOBS, --jobs, an explicit Pool{jobs} -- so a typo never
  /// spawns thousands of threads.
  static constexpr unsigned kMaxJobs = 1024;

  /// `jobs` = 0 selects default_jobs(); more than kMaxJobs throws ConfigError.
  /// A pool of 1 runs every task on the caller's thread (no workers are
  /// spawned), which makes jobs=1 runs bit-for-bit comparable to never having
  /// had a pool at all.
  explicit Pool(unsigned jobs = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// COOLPIM_JOBS environment override (0 or unset = all cores), else
  /// std::thread::hardware_concurrency.  Throws ConfigError when COOLPIM_JOBS
  /// is not an integer in [0, kMaxJobs].
  [[nodiscard]] static unsigned default_jobs();

  [[nodiscard]] unsigned size() const { return jobs_; }

  /// Enqueue one task.  Must not be called concurrently with wait().
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished; the calling thread helps
  /// drain the queues.  Rethrows the first exception a task threw.
  void wait();

  /// Run fn(0..n-1) across the pool and wait.  Convenience for fixed-size
  /// sweeps (per-sink tables, per-scenario rows).  `grain` batches that many
  /// consecutive indices into one task -- the fleet tier's per-epoch node
  /// stepping submits thousands of sub-millisecond tasks per run, where
  /// per-task submission overhead would dominate at grain 1.  Each task runs
  /// its indices in order, so any grain is observationally identical for
  /// independent iterations.  grain 0 = auto (roughly 4 tasks per worker).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_run_one(std::size_t self);
  [[nodiscard]] bool pop_or_steal(std::size_t self, std::function<void()>& out);
  void run_task(std::function<void()>& task);

  unsigned jobs_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mu_;
  std::condition_variable work_cv_;   // workers: new work or shutdown
  std::condition_variable idle_cv_;   // wait(): everything drained
  std::size_t pending_{0};            // submitted but not yet finished
  std::size_t queued_{0};             // sitting in a deque, not yet claimed
  std::size_t next_queue_{0};         // round-robin submit target
  bool shutdown_{false};
  std::exception_ptr first_error_;
};

}  // namespace coolpim::runner
