// Tests for the deterministic fault-injection layer: FaultPlan fate rolls,
// retry/backoff behaviour, watchdog arm/engage/disengage, experiment-key
// gating (fault-free configs keep their pre-fault keys), and bit-identical
// fault patterns across runner jobs counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "hmc/link_model.hpp"
#include "runner/experiment.hpp"
#include "sys/system.hpp"

namespace coolpim {
namespace {

constexpr std::uint64_t kSeed = 0x1234'5678'9abc'def0ULL;

// ---- FaultPlan --------------------------------------------------------------

TEST(FaultConfigTest, DefaultIsDisabled) {
  fault::FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.validate();  // defaults must validate
  cfg.force_enable = true;
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultConfigTest, AnyNonzeroRateEnables) {
  fault::FaultConfig cfg;
  cfg.warning_drop_rate = 0.1;
  EXPECT_TRUE(cfg.enabled());
  cfg = {};
  cfg.sensor_noise_sigma_c = 0.5;
  EXPECT_TRUE(cfg.enabled());
  cfg = {};
  cfg.warning_delay_max = Time::us(10);
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultConfigTest, ValidateRejectsOutOfRange) {
  fault::FaultConfig cfg;
  cfg.warning_drop_rate = 1.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.sensor_noise_sigma_c = -0.1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.watchdog.window = Time::zero();
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.watchdog.smoothing = Time::ps(-1);
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(FaultPlanTest, ZeroRatesPassWarningsThroughUndisturbed) {
  fault::FaultConfig cfg;
  cfg.force_enable = true;  // zero rates, layer instantiated
  fault::FaultPlan plan{cfg, kSeed};
  const Time t = Time::us(100);
  plan.begin_epoch(t);
  EXPECT_DOUBLE_EQ(plan.condition_reading(t, Celsius{84.0}).value(), 84.0);
  plan.offer_warning(t);
  plan.maybe_spurious(t);
  const auto due = plan.collect_due(t);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].at, t);
  EXPECT_EQ(due[0].raised_at, t);  // undisturbed channel: raise == delivery
  EXPECT_FALSE(due[0].spurious);
  EXPECT_EQ(plan.stats().warnings_offered, 1u);
  EXPECT_EQ(plan.stats().warnings_delivered, 1u);
  EXPECT_EQ(plan.stats().warnings_dropped, 0u);
}

TEST(FaultPlanTest, FullDropLosesEveryWarning) {
  fault::FaultConfig cfg;
  cfg.warning_drop_rate = 1.0;
  fault::FaultPlan plan{cfg, kSeed};
  for (int i = 1; i <= 50; ++i) {
    const Time t = Time::us(10.0 * i);
    plan.begin_epoch(t);
    plan.offer_warning(t);
    EXPECT_TRUE(plan.collect_due(t).empty());
  }
  EXPECT_EQ(plan.stats().warnings_offered, 50u);
  EXPECT_EQ(plan.stats().warnings_dropped, 50u);
  EXPECT_EQ(plan.stats().warnings_delivered, 0u);
}

TEST(FaultPlanTest, AlwaysCorruptExhaustsRetriesAndGivesUp) {
  fault::FaultConfig cfg;
  cfg.errstat_corrupt_rate = 1.0;  // every transmission attempt corrupted
  cfg.retry.max_retries = 3;
  fault::FaultPlan plan{cfg, kSeed};
  const Time t = Time::us(10);
  plan.begin_epoch(t);
  plan.offer_warning(t);
  EXPECT_TRUE(plan.collect_due(t + Time::ms(10)).empty());
  EXPECT_EQ(plan.stats().retries, 3u);  // the replay budget, then give up
  EXPECT_EQ(plan.stats().retry_giveups, 1u);
  EXPECT_EQ(plan.stats().warnings_delivered, 0u);
}

TEST(FaultPlanTest, BoundedDelayPreservesRaiseTime) {
  fault::FaultConfig cfg;
  cfg.warning_delay_max = Time::us(50);
  fault::FaultPlan plan{cfg, kSeed};
  const Time raise = Time::us(100);
  plan.begin_epoch(raise);
  plan.offer_warning(raise);
  const auto due = plan.collect_due(raise + cfg.warning_delay_max);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].raised_at, raise);
  EXPECT_GE(due[0].at, raise);
  EXPECT_LE(due[0].at, raise + cfg.warning_delay_max);
}

TEST(FaultPlanTest, OutageLosesWarningsForItsDuration) {
  fault::FaultConfig cfg;
  cfg.link_outage_rate = 1.0;  // outage starts on the first epoch
  cfg.link_outage_duration = Time::us(100);
  fault::FaultPlan plan{cfg, kSeed};
  plan.begin_epoch(Time::us(10));
  EXPECT_TRUE(plan.in_outage());
  plan.offer_warning(Time::us(10));
  EXPECT_TRUE(plan.collect_due(Time::us(10)).empty());
  EXPECT_EQ(plan.stats().warnings_lost_outage, 1u);
}

TEST(FaultPlanTest, SameSeedSameFatesDifferentSeedDiverges) {
  fault::FaultConfig cfg;
  cfg.warning_drop_rate = 0.5;
  cfg.sensor_noise_sigma_c = 0.3;
  auto fates = [&](std::uint64_t seed) {
    fault::FaultPlan plan{cfg, seed};
    std::vector<double> readings;
    std::uint64_t delivered = 0;
    for (int i = 1; i <= 200; ++i) {
      const Time t = Time::us(10.0 * i);
      plan.begin_epoch(t);
      readings.push_back(plan.condition_reading(t, Celsius{85.0}).value());
      plan.offer_warning(t);
      delivered += plan.collect_due(t).size();
    }
    readings.push_back(static_cast<double>(delivered));
    return readings;
  };
  EXPECT_EQ(fates(kSeed), fates(kSeed));  // bit-identical replay
  EXPECT_NE(fates(kSeed), fates(kSeed + 1));
}

TEST(LinkRetryPolicyTest, CappedExponentialBackoff) {
  hmc::LinkRetryPolicy p;
  p.backoff_base = Time::us(1.0);
  p.backoff_factor = 2.0;
  p.backoff_cap = Time::us(16.0);
  EXPECT_EQ(p.retry_delay(1), Time::us(1));
  EXPECT_EQ(p.retry_delay(2), Time::us(2));
  EXPECT_EQ(p.retry_delay(4), Time::us(8));
  EXPECT_EQ(p.retry_delay(5), Time::us(16));
  EXPECT_EQ(p.retry_delay(9), Time::us(16));  // capped
  EXPECT_EQ(p.total_delay(3), Time::us(1 + 2 + 4));
}

// ---- Watchdog ---------------------------------------------------------------

fault::WatchdogConfig wd_config() {
  fault::WatchdogConfig cfg;
  cfg.window = Time::ms(3.0);
  cfg.min_interval = Time::ms(1.5);
  cfg.arm_margin_c = 2.5;
  cfg.smoothing = Time::zero();  // raw readings: tests drive exact levels
  return cfg;
}

TEST(WatchdogTest, EngagesAfterSilenceWindowWhileHot) {
  fault::Watchdog wd{wd_config(), Celsius{84.5}};
  // Hot and not falling, no deliveries: engages once the window elapses.
  EXPECT_FALSE(wd.tick(Time::ms(1), Celsius{84.0}));  // arms here
  EXPECT_FALSE(wd.tick(Time::ms(3.9), Celsius{84.0}));
  EXPECT_TRUE(wd.tick(Time::ms(4.0), Celsius{84.0}));
  EXPECT_TRUE(wd.engaged());
  // Engaged: repeats every min_interval, not every tick.
  EXPECT_FALSE(wd.tick(Time::ms(5.0), Celsius{84.0}));
  EXPECT_TRUE(wd.tick(Time::ms(5.5), Celsius{84.0}));
  EXPECT_EQ(wd.engagements(), 2u);
}

TEST(WatchdogTest, DeliveryResetsSilenceAndDisengages) {
  fault::Watchdog wd{wd_config(), Celsius{84.5}};
  EXPECT_FALSE(wd.tick(Time::ms(1), Celsius{84.0}));
  ASSERT_TRUE(wd.tick(Time::ms(4), Celsius{84.0}));
  wd.on_delivery(Time::ms(4.2));  // feedback restored
  EXPECT_FALSE(wd.engaged());
  EXPECT_EQ(wd.disengagements(), 1u);
  // Silence clock restarts at the delivery, full window again.
  EXPECT_FALSE(wd.tick(Time::ms(7.1), Celsius{84.0}));
  EXPECT_TRUE(wd.tick(Time::ms(7.3), Celsius{84.0}));
}

TEST(WatchdogTest, CoolReadingDisarmsAndDisengages) {
  fault::Watchdog wd{wd_config(), Celsius{84.5}};
  EXPECT_FALSE(wd.tick(Time::ms(1), Celsius{84.0}));
  ASSERT_TRUE(wd.tick(Time::ms(4), Celsius{84.0}));
  // Below threshold - margin: the stack cooled on its own.
  EXPECT_FALSE(wd.tick(Time::ms(5), Celsius{80.0}));
  EXPECT_FALSE(wd.engaged());
  EXPECT_EQ(wd.disengagements(), 1u);
  // Re-arming starts a fresh window (a cold start is not silence).
  EXPECT_FALSE(wd.tick(Time::ms(6), Celsius{84.0}));
  EXPECT_FALSE(wd.tick(Time::ms(8.9), Celsius{84.0}));
  EXPECT_TRUE(wd.tick(Time::ms(9), Celsius{84.0}));
}

TEST(WatchdogTest, FallingBelowThresholdDoesNotEngage) {
  fault::Watchdog wd{wd_config(), Celsius{84.5}};
  EXPECT_FALSE(wd.tick(Time::ms(1), Celsius{84.0}));
  // Falling but still above the arm level: cooling is under way, hold off.
  EXPECT_FALSE(wd.tick(Time::ms(4), Celsius{83.8}));
  EXPECT_FALSE(wd.tick(Time::ms(5), Celsius{83.5}));
  EXPECT_EQ(wd.engagements(), 0u);
}

TEST(WatchdogTest, SmoothingRidesThroughOscillatingReadings) {
  // The per-epoch sensed temperature swings with the engine's serve bursts;
  // a raw cool sample must not disarm the watchdog (regression: un-smoothed,
  // the silence window never completed and the watchdog never fired).
  fault::WatchdogConfig cfg = wd_config();
  cfg.smoothing = Time::us(500);
  fault::Watchdog wd{cfg, Celsius{84.5}};
  bool engaged = false;
  for (int i = 0; i < 200; ++i) {
    const Time t = Time::us(50.0 * (i + 1));
    const Celsius seen{i % 2 == 0 ? 87.0 : 80.5};  // mean 83.75, swings +-3.25
    engaged = wd.tick(t, seen) || engaged;
  }
  EXPECT_TRUE(engaged) << "watchdog must hold its arm through reading swings";
  // Raw (no smoothing): the same sequence never engages -- every cool sample
  // disarms and the window restarts.
  fault::Watchdog raw{wd_config(), Celsius{84.5}};
  bool raw_engaged = false;
  for (int i = 0; i < 200; ++i) {
    const Time t = Time::us(50.0 * (i + 1));
    const Celsius seen{i % 2 == 0 ? 87.0 : 80.5};
    raw_engaged = raw.tick(t, seen) || raw_engaged;
  }
  EXPECT_FALSE(raw_engaged);
}

TEST(WatchdogTest, DisabledNeverEngages) {
  fault::WatchdogConfig cfg = wd_config();
  cfg.enabled = false;
  fault::Watchdog wd{cfg, Celsius{84.5}};
  for (int i = 1; i <= 100; ++i) {
    EXPECT_FALSE(wd.tick(Time::ms(0.1 * i), Celsius{84.0}));
  }
  EXPECT_EQ(wd.engagements(), 0u);
}

// ---- Experiment-key gating and jobs-independence ----------------------------

TEST(FaultKeyTest, FaultFreeConfigKeepsPreFaultHash) {
  // The fault config is hashed only when enabled, so pre-existing experiment
  // keys (and their derived seeds and golden results) are unchanged by the
  // fault layer's existence -- including watchdog-tuning edits at zero rates.
  sys::SystemConfig plain;
  sys::SystemConfig tuned;
  tuned.fault.watchdog.window = Time::ms(7);
  tuned.fault.retry.max_retries = 9;
  ASSERT_FALSE(tuned.fault.enabled());
  EXPECT_EQ(runner::config_hash(plain), runner::config_hash(tuned));

  sys::SystemConfig faulty;
  faulty.fault.warning_drop_rate = 0.5;
  EXPECT_NE(runner::config_hash(plain), runner::config_hash(faulty));
  // Distinct fault environments are distinct experiments.
  sys::SystemConfig faulty2 = faulty;
  faulty2.fault.warning_drop_rate = 0.25;
  EXPECT_NE(runner::config_hash(faulty), runner::config_hash(faulty2));
}

class FaultSweepTest : public ::testing::Test {
 protected:
  // Scale-8 set: small enough for a unit test, hot enough under naive
  // offloading to raise warnings.
  static const sys::WorkloadSet& set() {
    static const sys::WorkloadSet s{8, 1};
    return s;
  }
};

TEST_F(FaultSweepTest, FaultPatternsBitIdenticalAcrossJobsCounts) {
  std::vector<runner::Experiment> experiments;
  for (const auto scenario : {sys::Scenario::kCoolPimSw, sys::Scenario::kCoolPimHw,
                              sys::Scenario::kNaiveOffloading}) {
    runner::Experiment e;
    e.workload = "pagerank";
    e.config.scenario = scenario;
    e.config.fault.warning_drop_rate = 0.5;
    e.config.fault.sensor_noise_sigma_c = 0.25;
    experiments.push_back(e);
  }
  runner::RunOptions serial;
  serial.jobs = 1;
  runner::RunOptions parallel;
  parallel.jobs = 8;
  const auto a = runner::run_sweep(set(), experiments, serial);
  const auto b = runner::run_sweep(set(), experiments, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peak_dram_temp.value(), b[i].peak_dram_temp.value());
    EXPECT_EQ(a[i].exec_time, b[i].exec_time);
    EXPECT_EQ(a[i].thermal_warnings, b[i].thermal_warnings);
    EXPECT_EQ(a[i].faults.warnings_offered, b[i].faults.warnings_offered);
    EXPECT_EQ(a[i].faults.warnings_dropped, b[i].faults.warnings_dropped);
    EXPECT_EQ(a[i].faults.watchdog_engagements, b[i].faults.watchdog_engagements);
  }
}

TEST_F(FaultSweepTest, ZeroRateConfigBitIdenticalToFaultFreeRun) {
  // A config that merely touched (but did not enable) the fault layer takes
  // the exact pre-fault code path: same key, same seed, same result.
  sys::SystemConfig plain;
  plain.scenario = sys::Scenario::kCoolPimHw;
  sys::SystemConfig touched = plain;
  touched.fault.watchdog.min_interval = Time::ms(9);
  ASSERT_FALSE(touched.fault.enabled());
  runner::RunOptions opt;
  opt.jobs = 1;
  const auto a = runner::run_one(set(), "pagerank", sys::Scenario::kCoolPimHw, plain, opt);
  const auto b = runner::run_one(set(), "pagerank", sys::Scenario::kCoolPimHw, touched, opt);
  EXPECT_EQ(a.peak_dram_temp.value(), b.peak_dram_temp.value());
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.thermal_warnings, b.thermal_warnings);
  EXPECT_FALSE(a.faults.active);
  EXPECT_FALSE(b.faults.active);
}

TEST_F(FaultSweepTest, WatchdogBoundsTemperatureAtFullDrop) {
  // Naive offloading at scale 8 runs the stack hot; with every warning
  // dropped, HW-DynT is blind and only the watchdog throttles.  It must not
  // end hotter than the warning threshold's phase boundary by more than the
  // naive (uncontrolled) profile -- i.e. the watchdog actually degrades.
  runner::RunOptions opt;
  opt.jobs = 1;
  sys::SystemConfig blind;
  blind.scenario = sys::Scenario::kCoolPimHw;
  blind.fault.warning_drop_rate = 1.0;
  const auto guarded =
      runner::run_one(set(), "pagerank", sys::Scenario::kCoolPimHw, blind, opt);
  sys::SystemConfig off = blind;
  off.fault.watchdog.enabled = false;
  const auto open_loop =
      runner::run_one(set(), "pagerank", sys::Scenario::kCoolPimHw, off, opt);
  EXPECT_LE(guarded.peak_dram_temp.value(), open_loop.peak_dram_temp.value());
  if (guarded.faults.watchdog_engagements > 0) {
    EXPECT_LT(guarded.peak_dram_temp.value(), open_loop.peak_dram_temp.value());
  }
}

}  // namespace
}  // namespace coolpim
