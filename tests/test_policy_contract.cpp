// Conformance suite for the controller zoo (DESIGN.md section 11).
//
// Parameterized over control::kRegisteredPolicies, so registering a new
// policy in control/registry.hpp enrolls it here automatically.  The pinned
// invariants are the Policy contract:
//   * throttle_level() stays in [0, max_throttle_level()] at all times;
//   * consecutive fresh warnings never decrease the level;
//   * a stale delayed duplicate (same raise time) never applies a second
//     reduction step;
//   * on_watchdog_engage() removes at least half the remaining allowance,
//     or reaches the policy's saturation level, whichever binds first;
//   * runner results are bit-identical at jobs=1 and jobs=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "control/registry.hpp"
#include "runner/experiment.hpp"
#include "sys/system.hpp"

namespace coolpim::control {
namespace {

PolicyBuild make_build(sys::Scenario scenario) {
  PolicyBuild b;
  b.scenario = scenario;
  // A clean 64-token pool for SW-DynT: skip Eq. 1 static initialization so
  // the level axis is simply tokens removed from 64.
  b.sw.use_static_init = false;
  b.sw.eq1.max_blocks = 64;
  return b;
}

/// SW-DynT's pool shrink clamps to the issued-token count, so a policy must
/// be under load for throttling to bite; for the other policies block
/// acquisition is a no-op that always succeeds, hence the iteration cap.
void saturate_acquires(Policy& p, Time now) {
  for (std::uint32_t i = 0; i < 2048 && p.acquire_block(now); ++i) {
  }
}

/// Make any deferred reduction visible: advance past the policy's throttle
/// delay and poke the launch path (SW-DynT applies pending shrinks there).
Time settle(Policy& p, Time now) {
  const Time later = now + p.throttle_delay() + Time::us(1.0);
  if (p.acquire_block(later)) p.release_block(later);
  return later;
}

class PolicyContract : public ::testing::TestWithParam<PolicyInfo> {
 protected:
  std::unique_ptr<Policy> make() { return make_policy(make_build(GetParam().scenario)); }
};

TEST_P(PolicyContract, StartsUnthrottledAndInRange) {
  auto p = make();
  EXPECT_EQ(p->throttle_level(), 0u);
  EXPECT_GT(p->max_throttle_level(), 0u);
  EXPECT_LE(p->saturation_level(), p->max_throttle_level());
  EXPECT_GT(p->saturation_level(), 0u);
}

TEST_P(PolicyContract, FreshWarningsDegradeMonotonically) {
  auto p = make();
  Time t = Time::ms(1.0);
  saturate_acquires(*p, t);
  std::uint32_t prev = p->throttle_level();
  bool stepped = false;
  for (int i = 0; i < 6; ++i) {
    // 3 ms spacing clears every policy's coalescing window (2.5 ms).
    t += Time::ms(3.0);
    p->on_thermal_warning(t);
    t = settle(*p, t);
    const std::uint32_t level = p->throttle_level();
    EXPECT_LE(level, p->max_throttle_level());
    EXPECT_GE(level, prev) << "warning " << i << " decreased the level";
    if (level > prev) stepped = true;
    prev = level;
  }
  EXPECT_TRUE(stepped) << "six fresh warnings never throttled at all";
}

TEST_P(PolicyContract, StaleDuplicateNeverDoubleThrottles) {
  auto p = make();
  Time t = Time::ms(1.0);
  saturate_acquires(*p, t);
  const Time raised = t + Time::ms(3.0);
  p->on_thermal_warning(raised, raised);
  const Time settled = settle(*p, raised);
  const std::uint32_t after_first = p->throttle_level();
  EXPECT_GT(after_first, 0u);
  // The same excursion's warning redelivered late (retry / delay): the raise
  // time is inside the coalescing window, so no second step may apply.
  p->on_thermal_warning(settled + Time::ms(1.0), raised);
  settle(*p, settled + Time::ms(1.0));
  EXPECT_EQ(p->throttle_level(), after_first);
}

TEST_P(PolicyContract, WatchdogRemovesHalfTheRemainingAllowance) {
  auto p = make();
  Time t = Time::ms(1.0);
  saturate_acquires(*p, t);
  const std::uint32_t max = p->max_throttle_level();
  // Repeated engagements must converge: each one either halves what is left
  // or runs into the policy's saturation floor.
  for (int i = 0; i < 12; ++i) {
    const std::uint32_t remaining_before = max - p->throttle_level();
    t += Time::ms(3.0);
    p->on_watchdog_engage(t);
    t = settle(*p, t);
    const std::uint32_t remaining_after = max - p->throttle_level();
    EXPECT_LE(p->throttle_level(), max);
    EXPECT_LE(remaining_after,
              std::max((remaining_before + 1) / 2, max - p->saturation_level()))
        << "engagement " << i << " removed less than half the remaining levels";
  }
  // Converged at (or past) the saturation level.
  EXPECT_GE(p->throttle_level(), p->saturation_level());
}

std::string policy_test_name(const ::testing::TestParamInfo<PolicyInfo>& info) {
  std::string name{info.param.cli_name};
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PolicyContract, ::testing::ValuesIn(kRegisteredPolicies),
                         policy_test_name);

void expect_identical(const sys::RunResult& a, const sys::RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.pim_ops, b.pim_ops);
  EXPECT_EQ(a.host_atomics, b.host_atomics);
  EXPECT_EQ(a.peak_dram_temp.value(), b.peak_dram_temp.value());
  EXPECT_EQ(a.thermal_warnings, b.thermal_warnings);
  EXPECT_EQ(a.cube_energy_j, b.cube_energy_j);
}

TEST(PolicyContractSweep, EveryPolicyIsBitIdenticalAcrossJobCounts) {
  // The determinism leg of the contract: policies draw no RNG, so the full
  // policy matrix is field-for-field identical at jobs=1 and jobs=8.
  const sys::WorkloadSet set{14, 1};
  std::vector<sys::Scenario> scenarios;
  for (const PolicyInfo& info : kRegisteredPolicies) scenarios.push_back(info.scenario);
  runner::RunOptions serial;
  serial.jobs = 1;
  runner::RunOptions wide;
  wide.jobs = 8;
  const auto a = runner::run_matrix(set, {"dc"}, scenarios, {}, serial);
  const auto b = runner::run_matrix(set, {"dc"}, scenarios, {}, wide);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  for (const auto s : scenarios) {
    SCOPED_TRACE(std::string{sys::to_string(s)});
    expect_identical(a[0].runs.at(s), b[0].runs.at(s));
  }
}

}  // namespace
}  // namespace coolpim::control
