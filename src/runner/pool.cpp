#include "runner/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/parse.hpp"

namespace coolpim::runner {

/// One parallel_for call, on the caller's stack.  Workers reach it only
/// between publication and retirement, both under the pool mutex.
struct Pool::Batch {
  Batch(const std::function<void(std::size_t)>& f, std::size_t count, std::size_t g)
      : fn{f}, n{count}, grain{g} {}

  const std::function<void(std::size_t)>& fn;
  std::size_t n;
  std::size_t grain;
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;

  /// Claim and run chunks until none is left.
  void run() {
    for (;;) {
      const std::size_t start = next.fetch_add(grain);
      if (start >= n) return;
      const std::size_t stop = std::min(n, start + grain);
      for (std::size_t i = start; i < stop; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk{error_mu};
          if (!error) error = std::current_exception();
        }
      }
    }
  }
};

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
  workers_.reserve(jobs_ - 1);
  for (unsigned i = 0; i + 1 < jobs_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk{mu_};
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Pool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk{mu_};
  for (;;) {
    start_cv_.wait(lk, [&] { return shutdown_ || (batch_ != nullptr && generation_ != seen); });
    if (shutdown_) return;
    seen = generation_;
    Batch& batch = *batch_;
    ++active_;
    lk.unlock();
    batch.run();
    lk.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void Pool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                        std::size_t grain) {
  if (grain == 0) grain = std::max<std::size_t>(1, n / (std::size_t{4} * jobs_));
  Batch batch{fn, n, grain};
  // A batch of one chunk, or a pool without workers, runs on the caller.
  const bool fan_out = !workers_.empty() && n > grain;
  if (fan_out) {
    {
      std::lock_guard<std::mutex> lk{mu_};
      batch_ = &batch;
      ++generation_;
    }
    start_cv_.notify_all();
  }
  batch.run();
  if (fan_out) {
    // Every chunk is claimed once the caller's run() returns; close the batch
    // to late joiners, then wait for the workers still running a claim.
    std::unique_lock<std::mutex> lk{mu_};
    batch_ = nullptr;
    done_cv_.wait(lk, [this] { return active_ == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace coolpim::runner
