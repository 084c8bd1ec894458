// Tests for multi-cube runs: SystemConfig::cubes / atomic_skew through the
// one epoch loop (System::run).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/names.hpp"
#include "obs/observer.hpp"
#include "runner/experiment.hpp"
#include "sys/report.hpp"
#include "sys/system.hpp"

namespace coolpim::sys {
namespace {

const WorkloadSet& workloads() {
  static const WorkloadSet set{16, 1};
  return set;
}

SystemConfig cube_config(std::size_t cubes, double skew, Scenario scenario) {
  SystemConfig cfg;
  cfg.cubes = cubes;
  cfg.atomic_skew = skew;
  cfg.scenario = scenario;
  return cfg;
}

RunResult run(std::size_t cubes, double skew, Scenario scenario,
              const std::string& workload = "dc") {
  return System{cube_config(cubes, skew, scenario)}.run(workloads().profile(workload));
}

TEST(MultiCube, MoreCubesMoreBandwidth) {
  // Balanced striping: doubling cubes roughly halves the memory-bound time.
  const auto one = run(1, 1.0, Scenario::kIdealThermal);
  const auto two = run(2, 0.5, Scenario::kIdealThermal);
  const auto four = run(4, 0.25, Scenario::kIdealThermal);
  EXPECT_LT(two.exec_time, one.exec_time);
  // Beyond two cubes the GPU side (issue/latency) may already bound the run.
  EXPECT_LE(four.exec_time, two.exec_time);
}

TEST(MultiCube, SkewConcentratesPimOnCubeZero) {
  const auto r = run(4, 0.7, Scenario::kNaiveOffloading);
  ASSERT_EQ(r.cubes.size(), 4u);
  EXPECT_NEAR(r.cubes[0].pim_share, 0.7, 0.02);
  EXPECT_NEAR(r.cubes[1].pim_share, 0.1, 0.02);
  // The hub cube runs hotter than the others.
  EXPECT_GT(r.cubes[0].peak_dram_temp.value(), r.cubes[1].peak_dram_temp.value());
}

TEST(MultiCube, SkewedNaiveHotterThanBalanced) {
  const auto balanced = run(4, 0.25, Scenario::kNaiveOffloading);
  const auto skewed = run(4, 0.85, Scenario::kNaiveOffloading);
  EXPECT_GT(skewed.peak_dram_temp.value(), balanced.peak_dram_temp.value());
}

TEST(MultiCube, CoolPimCoolsTheHottestCube) {
  // A hub cube hot enough to raise warnings under naive offloading: the
  // throttled run must END cooler on it.
  const auto naive = run(2, 1.0, Scenario::kNaiveOffloading, "pagerank");
  const auto coolpim = run(2, 1.0, Scenario::kCoolPimHw, "pagerank");
  ASSERT_GT(naive.thermal_warnings, 0u);
  ASSERT_EQ(coolpim.cubes.size(), 2u);
  EXPECT_LT(coolpim.cubes[0].final_dram_temp.value(), naive.cubes[0].final_dram_temp.value());
  EXPECT_LT(coolpim.avg_pim_rate_op_per_ns(), naive.avg_pim_rate_op_per_ns());
}

TEST(MultiCube, CoolPimIdlesWhileTheHottestCubeIsNormal) {
  // dc on two cubes keeps the hub below the warning threshold, so the
  // reactive throttle never engages and both scenarios run identically.
  const auto naive = run(2, 0.8, Scenario::kNaiveOffloading);
  const auto coolpim = run(2, 0.8, Scenario::kCoolPimHw);
  EXPECT_EQ(naive.thermal_warnings, 0u);
  EXPECT_EQ(coolpim.exec_time, naive.exec_time);
  EXPECT_EQ(coolpim.cubes[0].final_dram_temp.value(), naive.cubes[0].final_dram_temp.value());
}

TEST(MultiCube, SingleCubeDegeneratesToBalanced) {
  const auto r = run(1, 1.0, Scenario::kNaiveOffloading);
  ASSERT_EQ(r.cubes.size(), 1u);
  EXPECT_NEAR(r.cubes[0].pim_share, 1.0, 1e-9);
}

TEST(MultiCube, SharesAddUp) {
  for (const std::size_t n : {1u, 3u}) {
    const auto r = run(n, 0.6, Scenario::kCoolPimHw);
    ASSERT_EQ(r.cubes.size(), n);
    ASSERT_GT(r.pim_ops, 0u);
    double share = 0.0;
    for (const auto& c : r.cubes) share += c.pim_share;
    EXPECT_NEAR(share, 1.0, 1e-12) << n << " cubes";
  }
}

TEST(MultiCube, BalancedCubesAreBitIdentical) {
  const auto r = run(2, 0.5, Scenario::kCoolPimHw);
  ASSERT_EQ(r.cubes.size(), 2u);
  EXPECT_EQ(r.cubes[0].peak_dram_temp.value(), r.cubes[1].peak_dram_temp.value());
  EXPECT_EQ(r.cubes[0].final_dram_temp.value(), r.cubes[1].final_dram_temp.value());
}

TEST(MultiCube, SweepIsJobsInvariant) {
  std::vector<runner::Experiment> exps;
  for (const auto scenario : {Scenario::kNaiveOffloading, Scenario::kCoolPimSw,
                              Scenario::kCoolPimHw, Scenario::kIdealThermal}) {
    for (const char* w : {"dc", "pagerank"}) exps.push_back({w, cube_config(2, 0.7, scenario)});
  }
  auto sweep = [&](unsigned jobs) {
    runner::RunOptions opt;
    opt.jobs = jobs;
    const auto runs = runner::run_sweep(workloads(), exps, opt);
    std::ostringstream os;
    write_summary_csv(os, runs);
    os.precision(17);
    for (const auto& r : runs) {
      for (const auto& c : r.cubes) {
        os << c.peak_dram_temp.value() << ',' << c.final_dram_temp.value() << ','
           << c.pim_share << '\n';
      }
    }
    return os.str();
  };
  EXPECT_EQ(sweep(1), sweep(8));
}

TEST(MultiCube, ConfigHashKeepsSingleCubeKeys) {
  const SystemConfig base;
  // The default config's key, as computed before cube slots existed.
  EXPECT_EQ(runner::config_hash(base), 0x0ae53b923cb20b3cULL);
  SystemConfig skewed = base;
  skewed.atomic_skew = 0.9;  // no effect at one cube, so no new key
  EXPECT_EQ(runner::config_hash(skewed), runner::config_hash(base));
  SystemConfig two = base;
  two.cubes = 2;
  EXPECT_NE(runner::config_hash(two), runner::config_hash(base));
  SystemConfig two_skewed = two;
  two_skewed.atomic_skew = 0.9;
  EXPECT_NE(runner::config_hash(two_skewed), runner::config_hash(two));
}

TEST(MultiCube, RunsOnThePimVaultBackend) {
  SystemConfig cfg = cube_config(2, 0.7, Scenario::kCoolPimHw);
  cfg.backend = hmc::BackendKind::kPimVault;
  const auto r = System{cfg}.run(workloads().profile("dc"));
  ASSERT_EQ(r.cubes.size(), 2u);
  EXPECT_GT(r.exec_time, Time::zero());
  EXPECT_GT(r.pim_ops, 0u);
}

TEST(MultiCube, BackendCountersObserveCubeZeroOnly) {
  // Backend-internal counters observe cube 0 only; the served-op counter
  // comes from the committed total over every cube.
  auto pim_vault_counters = [](double skew) {
    SystemConfig cfg = cube_config(2, skew, Scenario::kNaiveOffloading);
    cfg.backend = hmc::BackendKind::kPimVault;
    obs::RunObserver observer;
    cfg.observer = &observer;
    (void)System{cfg}.run(workloads().profile("dc"));
    return std::pair{observer.counters.counter_value(obs::names::kPimProgramExecutions),
                     observer.counters.counter_value(obs::names::kHmcServedPimOps)};
  };
  const auto [hub_execs, hub_served] = pim_vault_counters(1.0);
  const auto [spread_execs, spread_served] = pim_vault_counters(0.0);
  EXPECT_GT(hub_execs, 0u);
  EXPECT_GT(hub_served, 0u);
  // Every PIM op goes to cube 1: none reach cube 0's vaults.
  EXPECT_EQ(spread_execs, 0u);
  EXPECT_GT(spread_served, 0u);
}

TEST(MultiCube, Validation) {
  const auto& profile = workloads().profile("dc");
  EXPECT_THROW((void)System{cube_config(0, 0.5, Scenario::kCoolPimHw)}.run(profile), ConfigError);
  EXPECT_THROW((void)System{cube_config(9, 0.5, Scenario::kCoolPimHw)}.run(profile), ConfigError);
  EXPECT_THROW((void)System{cube_config(2, 1.5, Scenario::kCoolPimHw)}.run(profile), ConfigError);
}

}  // namespace
}  // namespace coolpim::sys
