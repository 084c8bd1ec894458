// Ablations on the policy knobs DESIGN.md calls out: Eq. 1 initialization
// margin, warning-threshold placement, target PIM rate, and the epoch-length
// sensitivity of the full-system model.
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_margin_sweep(const sys::RunResult& base) {
  Table t{"Ablation -- Eq. 1 PTP initialization margin (dc, CoolPIM SW)"};
  t.header({"Margin (blocks)", "Speedup vs baseline", "Avg PIM rate (op/ns)", "Peak DRAM (C)"});
  for (const std::uint32_t margin : {0u, 2u, 4u, 8u, 16u, 64u}) {
    sys::SystemConfig cfg;
    cfg.eq1_margin_blocks = margin;
    const auto r = run_one("dc", sys::Scenario::kCoolPimSw, cfg);
    t.row({std::to_string(margin), Table::num(base.exec_time / r.exec_time, 2),
           Table::num(r.avg_pim_rate_op_per_ns(), 2), Table::num(r.peak_dram_temp.value(), 1)});
  }
  t.print(std::cout);
  std::cout << "The paper adds a margin of 4 blocks so the down-only feedback never starts\n"
               "over-throttled; a huge margin relies entirely on feedback.\n";
}

void print_target_sweep(const sys::RunResult& base, const sys::RunResult& hw_default) {
  Table t{"Ablation -- target PIM rate / warning placement (dc, CoolPIM HW)"};
  t.header({"Warning threshold (C)", "Speedup vs baseline", "Avg PIM rate", "Peak DRAM (C)",
            "Time derated (%)"});
  for (const double threshold : {80.0, 82.5, 84.5, 85.0}) {
    sys::SystemConfig cfg;
    cfg.policy.warning_threshold = Celsius{threshold};
    const bool is_default =
        cfg.policy.warning_threshold == sys::SystemConfig{}.policy.warning_threshold;
    const auto r = is_default ? hw_default : run_one("dc", sys::Scenario::kCoolPimHw, cfg);
    const double derated = r.exec_time > Time::zero()
                               ? 100.0 * (r.time_above_normal / r.exec_time)
                               : 0.0;
    t.row({Table::num(threshold, 1), Table::num(base.exec_time / r.exec_time, 2),
           Table::num(r.avg_pim_rate_op_per_ns(), 2), Table::num(r.peak_dram_temp.value(), 1),
           Table::num(derated, 0)});
  }
  t.print(std::cout);
  std::cout << "Warning too early wastes PIM headroom; too late lets the device derate\n"
               "before throttling bites -- the threshold sits just below 85 C.\n";
}

void print_epoch_sweep(const sys::RunResult& base, const sys::RunResult& hw_default) {
  Table t{"Ablation -- epoch-length sensitivity of the full-system model (dc, HW)"};
  t.header({"Epoch (us)", "Speedup vs baseline", "Peak DRAM (C)"});
  for (const double epoch_us : {5.0, 10.0, 20.0, 50.0}) {
    sys::SystemConfig cfg;
    cfg.epoch = Time::us(epoch_us);
    const bool is_default = cfg.epoch == sys::SystemConfig{}.epoch;
    const auto r = is_default ? hw_default : run_one("dc", sys::Scenario::kCoolPimHw, cfg);
    t.row({Table::num(epoch_us, 0), Table::num(base.exec_time / r.exec_time, 2),
           Table::num(r.peak_dram_temp.value(), 1)});
  }
  t.print(std::cout);
  std::cout << "Results are stable across epoch lengths, validating the 10 us default.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    // The sweeps share two experiments: the baseline, and CoolPIM HW at the
    // default warning threshold and epoch.  Each runs once.
    const auto base = run_one("dc", sys::Scenario::kNonOffloading);
    const auto hw_default = run_one("dc", sys::Scenario::kCoolPimHw);
    print_margin_sweep(base);
    print_target_sweep(base, hw_default);
    print_epoch_sweep(base, hw_default);
    return 0;
  });
}
