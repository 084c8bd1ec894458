// Tests for the parallel experiment runner: pool mechanics, stable task
// identity, run-to-run repeatability, and the headline determinism
// property -- jobs=1 and jobs=8 sweeps are bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runner/experiment.hpp"
#include "runner/pool.hpp"

namespace coolpim::runner {
namespace {

TEST(PoolTest, RunsEveryIndexOnceAtAnyGrain) {
  Pool pool{4};
  constexpr std::size_t n = 100;
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7}, n}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << grain << " " << i;
  }
}

TEST(PoolTest, ParallelForCoversEveryIndexOnce) {
  Pool pool{8};
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PoolTest, ParallelForIsReusable) {
  Pool pool{3};
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](std::size_t) { count.fetch_add(1); });
  pool.parallel_for(7, [&](std::size_t) { count.fetch_add(1); });
  pool.parallel_for(0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 12);
}

TEST(PoolTest, SingleJobRunsOnTheCallingThread) {
  Pool pool{1};
  std::set<std::thread::id> ids;
  pool.parallel_for(8, [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(PoolTest, FirstExceptionPropagatesAfterEveryIndexRuns) {
  // One failure cancels nothing, at any grain, and the pool stays usable.
  Pool pool{4};
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}}) {
    std::atomic<int> survivors{0};
    EXPECT_THROW(pool.parallel_for(
                     11,
                     [&](std::size_t i) {
                       if (i == 0) throw ConfigError("boom");
                       survivors.fetch_add(1);
                     },
                     grain),
                 ConfigError);
    EXPECT_EQ(survivors.load(), 10) << grain;
  }
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PoolTest, ManySmallBatchesBackToBack) {
  // The fleet's shape: thousands of tiny per-epoch batches at auto grain,
  // one of which throws midway; every other batch completes in full.
  Pool pool{4};
  constexpr std::size_t kBatches = 4000;
  constexpr std::size_t kWidth = 8;
  constexpr std::size_t kThrowing = kBatches / 2;
  std::vector<std::uint64_t> sums(kWidth, 0);
  std::size_t thrown = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    try {
      pool.parallel_for(
          kWidth,
          [&](std::size_t i) {
            if (b == kThrowing && i == 3) throw ConfigError("mid-run failure");
            sums[i] += b;  // each index is owned by one participant per batch
          },
          0);
    } catch (const ConfigError&) {
      ++thrown;
      EXPECT_EQ(b, kThrowing);
    }
  }
  EXPECT_EQ(thrown, 1u);
  const std::uint64_t all = kBatches * (kBatches - 1) / 2;
  for (std::size_t i = 0; i < kWidth; ++i) {
    EXPECT_EQ(sums[i], i == 3 ? all - kThrowing : all) << i;
  }
}

TEST(PoolTest, DefaultJobsHonoursEnvironment) {
  ASSERT_EQ(setenv("COOLPIM_JOBS", "3", 1), 0);
  EXPECT_EQ(Pool::default_jobs(), 3u);
  ASSERT_EQ(setenv("COOLPIM_JOBS", "1024", 1), 0);
  EXPECT_EQ(Pool::default_jobs(), Pool::kMaxJobs);
  ASSERT_EQ(setenv("COOLPIM_JOBS", "0", 1), 0);  // 0 = all cores
  EXPECT_GE(Pool::default_jobs(), 1u);
  ASSERT_EQ(unsetenv("COOLPIM_JOBS"), 0);
  EXPECT_GE(Pool::default_jobs(), 1u);
  EXPECT_LE(Pool::default_jobs(), Pool::kMaxJobs);
}

TEST(PoolTest, DefaultJobsRejectsMalformedOrHugeEnvironment) {
  // Unchecked, "abc" meant all cores, "-1" wrapped and "5000" spawned 5000
  // threads; each must be a ConfigError naming the variable.
  for (const char* v : {"abc", "-1", "5000", "3x"}) {
    ASSERT_EQ(setenv("COOLPIM_JOBS", v, 1), 0);
    try {
      (void)Pool::default_jobs();
      ADD_FAILURE() << "COOLPIM_JOBS='" << v << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string{e.what()}.find("COOLPIM_JOBS"), std::string::npos) << e.what();
    }
    EXPECT_THROW(Pool{}, ConfigError) << v;
  }
  ASSERT_EQ(unsetenv("COOLPIM_JOBS"), 0);
}

TEST(PoolTest, ExplicitJobsAreBounded) {
  EXPECT_THROW(Pool{Pool::kMaxJobs + 1}, ConfigError);
}

TEST(ExperimentKeyTest, StableAndSensitiveToEveryAxis) {
  const sys::WorkloadSet set{12, 3};
  sys::SystemConfig cfg;
  const auto base = experiment_key(set, "dc", cfg);
  EXPECT_EQ(base, experiment_key(set, "dc", cfg));  // repeatable

  EXPECT_NE(base, experiment_key(set, "pagerank", cfg));
  sys::SystemConfig other = cfg;
  other.scenario = sys::Scenario::kNaiveOffloading;
  EXPECT_NE(base, experiment_key(set, "dc", other));
  other = cfg;
  other.hw_control_factor = 16;
  EXPECT_NE(base, experiment_key(set, "dc", other));
  other = cfg;
  other.cooling = power::CoolingType::kHighEndActive;
  EXPECT_NE(base, experiment_key(set, "dc", other));
  other = cfg;
  other.gpu.num_sms = 32;
  EXPECT_NE(base, experiment_key(set, "dc", other));

  // run_seed is derived *from* the key, so it must not feed back into it.
  other = cfg;
  other.run_seed = 12345;
  EXPECT_EQ(base, experiment_key(set, "dc", other));

  const sys::WorkloadSet other_seed{12, 4};
  EXPECT_NE(base, experiment_key(other_seed, "dc", cfg));
}

TEST(ExperimentKeyTest, DerivedSeedsDifferAcrossTasks) {
  const sys::WorkloadSet set{12, 3};
  sys::SystemConfig cfg;
  std::set<std::uint64_t> seeds;
  for (const auto s : sys::kAllScenarios) {
    cfg.scenario = s;
    seeds.insert(derive_seed(experiment_key(set, "dc", cfg)));
  }
  EXPECT_EQ(seeds.size(), std::size(sys::kAllScenarios));
}

class RunnerFixture : public ::testing::Test {
 protected:
  static const sys::WorkloadSet& set() {
    static const sys::WorkloadSet s{14, 1};
    return s;
  }
};

void expect_identical(const sys::RunResult& a, const sys::RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.exec_time, b.exec_time);
  // Doubles compared bit-for-bit: the determinism contract is *bit*-identical
  // results, not merely close ones.
  EXPECT_EQ(a.link_data_bytes, b.link_data_bytes);
  EXPECT_EQ(a.link_raw_bytes, b.link_raw_bytes);
  EXPECT_EQ(a.dram_internal_bytes, b.dram_internal_bytes);
  EXPECT_EQ(a.pim_ops, b.pim_ops);
  EXPECT_EQ(a.host_atomics, b.host_atomics);
  EXPECT_EQ(a.cube_energy_j, b.cube_energy_j);
  EXPECT_EQ(a.fan_energy_j, b.fan_energy_j);
  EXPECT_EQ(a.peak_dram_temp.value(), b.peak_dram_temp.value());
  EXPECT_EQ(a.start_dram_temp.value(), b.start_dram_temp.value());
  EXPECT_EQ(a.thermal_warnings, b.thermal_warnings);
  EXPECT_EQ(a.shut_down, b.shut_down);
  EXPECT_EQ(a.time_above_normal, b.time_above_normal);
}

TEST_F(RunnerFixture, MatrixIsBitIdenticalAcrossJobCounts) {
  // The headline property: the full scenario matrix for two workloads gives
  // field-for-field identical results at jobs=1 and jobs=8.
  const std::vector<std::string> workloads{"dc", "pagerank"};
  const std::vector<sys::Scenario> scenarios{std::begin(sys::kAllScenarios),
                                             std::end(sys::kAllScenarios)};
  RunOptions serial;
  serial.jobs = 1;
  RunOptions wide;
  wide.jobs = 8;

  const auto a = run_matrix(set(), workloads, scenarios, {}, serial);
  const auto b = run_matrix(set(), workloads, scenarios, {}, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload, b[i].workload);
    ASSERT_EQ(a[i].runs.size(), scenarios.size());
    for (const auto s : scenarios) {
      SCOPED_TRACE(std::string{to_string(s)} + " / " + a[i].workload);
      expect_identical(a[i].runs.at(s), b[i].runs.at(s));
    }
  }
}

TEST_F(RunnerFixture, SweepOrderIndependence) {
  // Reversing submission order must not change any result (seeds derive from
  // task identity, not from execution order).
  std::vector<Experiment> forward;
  for (const auto s : sys::kAllScenarios) {
    Experiment e;
    e.workload = "dc";
    e.config.scenario = s;
    forward.push_back(e);
  }
  std::vector<Experiment> backward{forward.rbegin(), forward.rend()};
  RunOptions opt;
  opt.jobs = 4;
  const auto fwd = run_sweep(set(), forward, opt);
  const auto bwd = run_sweep(set(), backward, opt);
  ASSERT_EQ(fwd.size(), bwd.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    expect_identical(fwd[i], bwd[fwd.size() - 1 - i]);
  }
}

TEST_F(RunnerFixture, RunOptionsAcceptOnlyTheirDefaults) {
  std::vector<Experiment> one(1);
  one[0].workload = "dc";
  for (const unsigned batch : {0u, 2u, 8u}) {
    RunOptions opt;
    opt.sweep_batch = batch;
    EXPECT_THROW((void)run_sweep(set(), one, opt), ConfigError) << batch;
  }
  RunOptions cached;
  cached.use_cache = true;
  EXPECT_THROW((void)run_sweep(set(), one, cached), ConfigError);
  EXPECT_THROW((void)run_one(set(), "dc", sys::Scenario::kCoolPimHw, {}, cached), ConfigError);
}

TEST_F(RunnerFixture, SweepErrorNamesLowestFailingExperimentAtAnyJobs) {
  // Two of four experiments cannot finish in 1 ns of simulated time.  The
  // sweep must report the lower-index one, named, as the ConfigError the
  // CLIs map to exit code 2, whichever worker fails first in wall time.
  std::vector<Experiment> exps(4);
  const char* workloads[] = {"dc", "kcore", "pagerank", "bfs-ta"};
  for (std::size_t i = 0; i < exps.size(); ++i) {
    exps[i].workload = workloads[i];
    exps[i].config.scenario = sys::Scenario::kCoolPimHw;
  }
  exps[1].config.max_time = Time::ns(1);
  exps[3].config.max_time = Time::ns(1);

  std::vector<std::string> messages;
  for (const unsigned jobs : {1u, 8u}) {
    RunOptions opt;
    opt.jobs = jobs;
    try {
      (void)run_sweep(set(), exps, opt);
      ADD_FAILURE() << "sweep with failing experiments returned at jobs " << jobs;
    } catch (const ConfigError& e) {
      messages.emplace_back(e.what());
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], messages[1]);
  const std::string want_prefix =
      "config: experiment kcore under " + std::string{sys::to_string(sys::Scenario::kCoolPimHw)} +
      ": ";
  EXPECT_EQ(messages[0].rfind(want_prefix, 0), 0u) << messages[0];
  EXPECT_NE(messages[0].find("run exceeded max_time"), std::string::npos) << messages[0];
}

TEST_F(RunnerFixture, RunOneErrorNamesItsExperiment) {
  // run_one is a one-experiment sweep, so its failures carry the same
  // "experiment <workload> under <scenario>: " prefix as run_sweep's.
  sys::SystemConfig cfg;
  cfg.max_time = Time::ns(1);
  try {
    (void)run_one(set(), "kcore", sys::Scenario::kCoolPimHw, cfg);
    ADD_FAILURE() << "run_one past max_time returned";
  } catch (const ConfigError& e) {
    const std::string want =
        "config: experiment kcore under " +
        std::string{sys::to_string(sys::Scenario::kCoolPimHw)} + ": ";
    EXPECT_EQ(std::string{e.what()}.rfind(want, 0), 0u) << e.what();
  }
}

TEST_F(RunnerFixture, RepeatRunsAreBitIdenticalAndConfigSensitive) {
  // Nothing is memoized: each call runs its experiment, and two runs of the
  // same experiment agree bit for bit while a tweaked config differs.  The
  // warning threshold sits below dc's peak so the HW controller acts and its
  // control factor matters.
  sys::SystemConfig hot;
  hot.policy.warning_threshold = Celsius{60.0};
  const auto first = run_one(set(), "dc", sys::Scenario::kCoolPimHw, hot);
  const auto second = run_one(set(), "dc", sys::Scenario::kCoolPimHw, hot);
  expect_identical(first, second);
  ASSERT_GT(first.thermal_warnings, 0u);

  sys::SystemConfig tweaked = hot;
  tweaked.hw_control_factor = 16;
  const auto other = run_one(set(), "dc", sys::Scenario::kCoolPimHw, tweaked);
  EXPECT_NE(other.exec_time, first.exec_time);
  EXPECT_NE(other.avg_pim_rate_op_per_ns(), first.avg_pim_rate_op_per_ns());
}

}  // namespace
}  // namespace coolpim::runner
