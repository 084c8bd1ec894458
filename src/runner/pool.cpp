#include "runner/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/parse.hpp"

namespace coolpim::runner {

unsigned Pool::default_jobs() {
  if (const char* env = std::getenv("COOLPIM_JOBS"); env != nullptr && *env != '\0') {
    const auto v = static_cast<unsigned>(parse_u64("COOLPIM_JOBS", env, kMaxJobs));
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, kMaxJobs);
}

Pool::Pool(unsigned jobs) : jobs_{jobs > 0 ? jobs : default_jobs()} {
  COOLPIM_REQUIRE(jobs_ <= kMaxJobs,
                  "pool jobs must be at most " + std::to_string(kMaxJobs));
  queues_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  // The calling thread is participant jobs_-1 (it drains queues in wait()),
  // so only jobs_-1 dedicated workers are spawned; jobs=1 spawns none and
  // runs everything on the caller.
  workers_.reserve(jobs_ - 1);
  for (unsigned i = 0; i + 1 < jobs_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk{state_mu_};
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Pool::submit(std::function<void()> task) {
  std::size_t target;
  {
    // Counters go up before the push: a worker that observes queued_ > 0 and
    // finds nothing yet simply retries; the reverse order could let a worker
    // claim the task before it is accounted for and underflow queued_.
    std::lock_guard<std::mutex> lk{state_mu_};
    target = next_queue_++ % jobs_;
    ++pending_;
    ++queued_;
  }
  {
    std::lock_guard<std::mutex> qlk{queues_[target]->mu};
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool Pool::pop_or_steal(std::size_t self, std::function<void()>& out) {
  // Own queue first, newest task (LIFO keeps caches warm) ...
  {
    auto& q = *queues_[self];
    std::lock_guard<std::mutex> qlk{q.mu};
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // ... then steal the oldest task from the first non-empty victim.
  for (std::size_t d = 1; d < jobs_; ++d) {
    auto& q = *queues_[(self + d) % jobs_];
    std::lock_guard<std::mutex> qlk{q.mu};
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void Pool::run_task(std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lk{state_mu_};
    if (!first_error_) first_error_ = std::current_exception();
  }
  bool drained = false;
  {
    std::lock_guard<std::mutex> lk{state_mu_};
    drained = --pending_ == 0;
  }
  if (drained) idle_cv_.notify_all();
}

bool Pool::try_run_one(std::size_t self) {
  std::function<void()> task;
  if (!pop_or_steal(self, task)) return false;
  {
    std::lock_guard<std::mutex> lk{state_mu_};
    --queued_;
  }
  run_task(task);
  return true;
}

void Pool::worker_loop(std::size_t self) {
  for (;;) {
    if (try_run_one(self)) continue;
    std::unique_lock<std::mutex> lk{state_mu_};
    work_cv_.wait(lk, [this] { return shutdown_ || queued_ > 0; });
    if (shutdown_ && queued_ == 0) return;
  }
}

void Pool::wait() {
  const std::size_t self = jobs_ - 1;
  for (;;) {
    while (try_run_one(self)) {
    }
    std::unique_lock<std::mutex> lk{state_mu_};
    if (queued_ > 0) continue;  // a task was submitted between drain and lock
    idle_cv_.wait(lk, [this] { return pending_ == 0 || queued_ > 0; });
    if (pending_ == 0) {
      std::exception_ptr err;
      std::swap(err, first_error_);
      lk.unlock();
      if (err) std::rethrow_exception(err);
      return;
    }
  }
}

void Pool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                        std::size_t grain) {
  if (grain == 0) grain = std::max<std::size_t>(1, n / (std::size_t{4} * jobs_));
  if (grain <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      submit([&fn, i] { fn(i); });
    }
  } else {
    for (std::size_t start = 0; start < n; start += grain) {
      const std::size_t stop = std::min(n, start + grain);
      submit([&fn, start, stop] {
        for (std::size_t i = start; i < stop; ++i) fn(i);
      });
    }
  }
  wait();
}

}  // namespace coolpim::runner
