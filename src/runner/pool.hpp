// Fork-join thread pool for independent simulation tasks.
//
// Every parallel job in the simulator has one shape -- a flat batch of
// independent iterations followed by a wait -- so the pool offers exactly
// that: parallel_for(n, fn, grain).  Persistent workers and the calling
// thread claim grain-sized index chunks from one atomic counter; the call
// returns once every chunk has run and every worker that joined the batch
// has left it.  Nothing nests, so one shared counter is the whole scheduler.
//
// Determinism contract: the pool schedules *which thread* runs an index,
// never what the index computes.  Iterations must not share mutable state;
// the runner layer (experiment.hpp) gives each task its own System and a
// seed derived from the task's identity, so results are independent of
// thread count, grain and claim order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
  /// The calling thread is one of the `jobs` participants, so jobs-1 workers
  /// are spawned: a pool of 1 runs every index on the caller's thread, which
  /// makes jobs=1 runs bit-for-bit comparable to never having had a pool.
  explicit Pool(unsigned jobs = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// COOLPIM_JOBS environment override (0 or unset = all cores), else
  /// std::thread::hardware_concurrency.  Throws ConfigError when COOLPIM_JOBS
  /// is not an integer in [0, kMaxJobs].
  [[nodiscard]] static unsigned default_jobs();

  [[nodiscard]] unsigned size() const { return jobs_; }

  /// Run fn(0..n-1) across the pool and wait.  `grain` consecutive indices
  /// form one claim -- the fleet tier steps its nodes in thousands of
  /// sub-millisecond batches per run, where a claim per index would
  /// dominate.  Each claim runs its indices in order, so any grain is
  /// observationally identical for independent iterations.  grain 0 = auto
  /// (roughly 4 claims per participant).  Every index runs even when some
  /// throw; the first exception caught is rethrown.  One batch at a time:
  /// fn must not call back into the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  struct Batch;

  void worker_loop();

  unsigned jobs_;

  std::mutex mu_;  // guards batch_, generation_, active_ and shutdown_
  std::condition_variable start_cv_;  // workers: a new batch or shutdown
  std::condition_variable done_cv_;   // caller: every joined worker has left
  Batch* batch_{nullptr};             // open for joining; null once retired
  std::uint64_t generation_{0};       // batches published so far
  unsigned active_{0};                // workers inside the current batch
  bool shutdown_{false};

  std::vector<std::thread> workers_;  // after everything worker_loop uses
};

}  // namespace coolpim::runner
