// Calibration tests: the HMC thermal model must reproduce the paper's anchor
// points (DESIGN.md section 6).  These are the load-bearing checks behind
// Figs. 1, 2, 4 and 5.
#include <gtest/gtest.h>

#include <iterator>

#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "power/energy_model.hpp"
#include "thermal/hmc_thermal.hpp"

namespace coolpim::thermal {
namespace {

using hmc::LinkModel;
using hmc::TransactionMix;
using power::CoolingType;
using power::EnergyParams;
using power::OperatingPoint;

OperatingPoint read_traffic(const LinkModel& link, double data_gbps) {
  TransactionMix mix;
  mix.reads_per_sec = data_gbps * 1e9 / 64.0;
  OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  return op;
}

OperatingPoint pim_traffic(const LinkModel& link, double op_per_ns) {
  TransactionMix mix;
  mix.pim_per_sec = op_per_ns * 1e9;
  mix.reads_per_sec = link.regular_bandwidth_with_pim(mix.pim_per_sec).as_bytes_per_sec() / 64.0;
  OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  op.pim_ops_per_sec = mix.pim_per_sec;
  return op;
}

double steady_peak(HmcThermalModel& model, const OperatingPoint& op) {
  model.apply_power(power::compute_power(EnergyParams{}, op));
  model.solve_steady();
  return model.peak_dram().value();
}

class Hmc20Anchors : public ::testing::Test {
 protected:
  LinkModel link_{hmc::hmc20_config()};
  HmcThermalModel model_{hmc20_thermal_config(CoolingType::kCommodityServer)};
};

TEST_F(Hmc20Anchors, IdleAbout33C) {
  EXPECT_NEAR(steady_peak(model_, read_traffic(link_, 0.0)), 33.0, 3.0);
}

TEST_F(Hmc20Anchors, FullBandwidthAbout81C) {
  // Paper Fig. 4: 320 GB/s with a commodity-server sink -> 81 C peak DRAM.
  EXPECT_NEAR(steady_peak(model_, read_traffic(link_, 320.0)), 81.0, 3.0);
}

TEST_F(Hmc20Anchors, PimBudgetCrossesAt1Point3OpPerNs) {
  // Paper Fig. 5: holding DRAM below 85 C requires a PIM rate <= 1.3 op/ns.
  EXPECT_NEAR(steady_peak(model_, pim_traffic(link_, 1.3)), 85.0, 3.0);
  EXPECT_LT(steady_peak(model_, pim_traffic(link_, 1.0)),
            steady_peak(model_, pim_traffic(link_, 1.3)));
}

TEST_F(Hmc20Anchors, MaxPimRateNearShutdownLimit) {
  // Paper Fig. 5: the 105 C thermal limit caps PIM offloading at 6.5 op/ns.
  EXPECT_NEAR(steady_peak(model_, pim_traffic(link_, 6.5)), 105.0, 4.0);
}

TEST_F(Hmc20Anchors, TemperatureMonotoneInPimRate) {
  double prev = 0.0;
  for (double r = 0.0; r <= 6.5; r += 0.5) {
    const double t = steady_peak(model_, pim_traffic(link_, r));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Hmc20Cooling, OrderingAcrossSinks) {
  const LinkModel link{hmc::hmc20_config()};
  double prev = 1e9;
  for (const auto type : {CoolingType::kPassive, CoolingType::kLowEndActive,
                          CoolingType::kCommodityServer, CoolingType::kHighEndActive}) {
    HmcThermalModel model{hmc20_thermal_config(type)};
    const double t = steady_peak(model, read_traffic(link, 320.0));
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(Hmc20Cooling, PassiveCannotSustainFullBandwidth) {
  // Paper Fig. 4: the passive-sink curve exceeds the 105 C operating limit
  // long before 320 GB/s.
  const LinkModel link{hmc::hmc20_config()};
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kPassive)};
  EXPECT_GT(steady_peak(model, read_traffic(link, 320.0)), 105.0);
}

TEST(Hmc20Cooling, HighEndKeepsFullBandwidthNormal) {
  const LinkModel link{hmc::hmc20_config()};
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kHighEndActive)};
  EXPECT_LT(steady_peak(model, read_traffic(link, 320.0)), 85.0);
}

TEST(Hmc20Heatmap, HotspotsAtVaultCenters) {
  // Paper Fig. 3: hot spots appear at the vault centers of the logic layer.
  const LinkModel link{hmc::hmc20_config()};
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kCommodityServer)};
  model.apply_power(power::compute_power(EnergyParams{}, read_traffic(link, 320.0)));
  model.solve_steady();
  const auto field = model.logic_heatmap();
  const auto& fp = model.config().floorplan;
  const std::size_t center = fp.vault_center_cell(fp.vaults_x / 2, fp.vaults_y / 2);
  const std::size_t corner = fp.grid.index(0, 0);
  EXPECT_GT(field[center], field[corner]);
  // The logic layer runs hotter than the upper DRAM dies.
  EXPECT_GE(model.peak_logic().value(), model.peak_dram().value() - 0.1);
}

TEST(Hmc11Prototype, SurfaceTemperaturesMatchFig1) {
  // Paper Fig. 1 thermal-camera readings, within a few degrees.
  struct Case {
    CoolingType type;
    double bw_gbps;
    double fpga_watts;
    double expected_surface;
  };
  const Case cases[] = {
      {CoolingType::kPassive, 0.0, 20.0, 71.1},
      {CoolingType::kPassive, 60.0, 30.0, 85.4},
      {CoolingType::kLowEndActive, 0.0, 20.0, 45.3},
      {CoolingType::kLowEndActive, 60.0, 30.0, 60.5},
      {CoolingType::kHighEndActive, 0.0, 20.0, 40.5},
      {CoolingType::kHighEndActive, 60.0, 30.0, 47.3},
  };
  const LinkModel link{hmc::hmc11_config()};
  for (const auto& c : cases) {
    HmcThermalModel model{hmc11_thermal_config(c.type, c.fpga_watts)};
    model.apply_power(power::compute_power(EnergyParams{}, read_traffic(link, c.bw_gbps)));
    model.solve_steady();
    EXPECT_NEAR(model.surface().value(), c.expected_surface, 6.0)
        << power::prototype_cooling(c.type).name << " @ " << c.bw_gbps << " GB/s";
  }
}

TEST(Hmc11Prototype, PassiveBusyDieNearShutdown) {
  // Paper Section III-A.2: the prototype shuts down around 85 C surface /
  // ~95 C die under load with the passive sink.
  const LinkModel link{hmc::hmc11_config()};
  HmcThermalModel model{hmc11_thermal_config(CoolingType::kPassive, 30.0)};
  model.apply_power(power::compute_power(EnergyParams{}, read_traffic(link, 60.0)));
  model.solve_steady();
  EXPECT_GT(model.peak_dram().value(), 90.0);
}

TEST(SurfaceEstimate, DieEstimateRule) {
  // ~5-10 C above surface given ~20 W (paper Section III-A).
  const auto die = HmcThermalModel::estimate_die_from_surface(Celsius{60.0}, Watts{20.0});
  EXPECT_NEAR(die.value(), 67.5, 0.01);
}

TEST(TransientBehaviour, RespondsWithinMilliseconds) {
  // The calibrated transient reaches most of a power step within a few
  // milliseconds, consistent with the paper's T_thermal ~ 1 ms feedback.
  const LinkModel link{hmc::hmc20_config()};
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kCommodityServer)};
  const auto op = read_traffic(link, 320.0);
  model.apply_power(power::compute_power(EnergyParams{}, op));
  model.solve_steady();
  const double steady = model.peak_dram().value();
  model.reset();
  model.apply_power(power::compute_power(EnergyParams{}, op));
  model.step(Time::ms(5.0));
  const double after_5ms = model.peak_dram().value();
  EXPECT_GT(after_5ms - 25.0, 0.5 * (steady - 25.0));
}

// Physical invariant: a steady stack never cools when more power is applied
// or when the sink gets worse.  Checked per power component (each of the
// patterns apply_power spreads) and for all of them at once, cold-started so
// every point is an independent solve.
class SteadyMonotonicity : public ::testing::TestWithParam<CoolingType> {
 protected:
  static double peak(HmcThermalConfig cfg, const power::PowerBreakdown& pb) {
    HmcThermalModel model{std::move(cfg)};
    model.apply_power(pb);
    model.solve_steady(SteadyStart::kCold);
    return model.peak_dram().value();
  }

  LinkModel link_{hmc::hmc20_config()};
  power::PowerBreakdown base_{
      power::compute_power(EnergyParams{}, pim_traffic(link_, 2.0))};
};

TEST_P(SteadyMonotonicity, NonDecreasingInAppliedPower) {
  const auto cfg = hmc20_thermal_config(GetParam());
  using Component = Watts power::PowerBreakdown::*;
  const Component components[] = {
      &power::PowerBreakdown::logic_dynamic, &power::PowerBreakdown::logic_background,
      &power::PowerBreakdown::fu, &power::PowerBreakdown::dram_dynamic,
      &power::PowerBreakdown::dram_background};
  for (std::size_t i = 0; i < std::size(components); ++i) {
    double prev = -1.0;
    for (const double extra_w : {0.0, 0.5, 2.0, 8.0}) {
      power::PowerBreakdown pb = base_;
      pb.*components[i] += Watts{extra_w};
      const double t = peak(cfg, pb);
      EXPECT_GE(t, prev) << "component " << i << " +" << extra_w << " W";
      prev = t;
    }
  }
  double prev = -1.0;
  for (const double k : {0.0, 0.25, 0.5, 1.0, 1.5, 2.0}) {
    power::PowerBreakdown pb;
    for (const Component c : components) pb.*c = Watts{(base_.*c).value() * k};
    const double t = peak(cfg, pb);
    EXPECT_GE(t, prev) << "power x" << k;
    prev = t;
  }
}

TEST_P(SteadyMonotonicity, NonDecreasingInSinkResistance) {
  double prev = -1.0;
  for (const double k : {0.25, 0.5, 1.0, 1.5, 2.0, 4.0}) {
    auto cfg = hmc20_thermal_config(GetParam());
    cfg.cooling.resistance = ThermalResistance{cfg.cooling.resistance.value() * k};
    const double t = peak(cfg, base_);
    EXPECT_GE(t, prev) << "sink resistance x" << k;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(CommodityAndPassive, SteadyMonotonicity,
                         ::testing::Values(CoolingType::kCommodityServer,
                                           CoolingType::kPassive));

}  // namespace
}  // namespace coolpim::thermal
