// Fig. 14: PIM rate variation over time for bfs-ta under naive offloading and
// the software/hardware CoolPIM controls.  The run starts just below the
// thermal-warning threshold (sustained prior offloading activity), so the
// warning arrives early in the window, as in the paper.
#include <cmath>
#include <iostream>

#include "common/main.hpp"
#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

sys::RunResult transient_run(sys::Scenario scenario) {
  sys::SystemConfig cfg;
  cfg.warm_start = false;          // transient experiment: fresh controller
  cfg.start_temp_override = 84.0;  // just below the warning threshold
  return run_one("bfs-ta", scenario, cfg);
}

void print_fig14() {
  std::cout << "Running the Fig. 14 transient (bfs-ta, start ~84 C, fresh controllers)...\n";
  const auto naive = transient_run(sys::Scenario::kNaiveOffloading);
  const auto sw = transient_run(sys::Scenario::kCoolPimSw);
  const auto hw = transient_run(sys::Scenario::kCoolPimHw);

  // Resample the three traces onto a common grid covering the longest run.
  const Time span = std::max({naive.exec_time, sw.exec_time, hw.exec_time});
  const std::size_t points = 24;
  const Time step = span / static_cast<std::int64_t>(points);
  const Time start = naive.pim_rate.time_at(0);

  Table t{"Fig. 14 -- PIM rate over time, bfs-ta (op/ns)"};
  t.header({"t (ms)", "Naive-Offloading", "CoolPIM (SW)", "CoolPIM (HW)"});
  auto cell = [&](const sys::RunResult& r, std::size_t i) {
    const Time when = start + step * static_cast<std::int64_t>(i);
    if (when > r.pim_rate.times().back()) return std::string{"(done)"};
    return Table::num(r.pim_rate.sample_at(when), 2);
  };
  for (std::size_t i = 0; i < points; ++i) {
    t.row({Table::num((step * static_cast<std::int64_t>(i)).as_ms(), 2), cell(naive, i),
           cell(sw, i), cell(hw, i)});
  }
  t.print(std::cout);

  auto first_warning_ms = [&](const sys::RunResult& r) {
    // The temperature trace crosses the warning threshold where throttling starts.
    for (std::size_t i = 0; i < r.dram_temp.size(); ++i) {
      if (r.dram_temp.value_at(i) > 84.5) {
        return (r.dram_temp.time_at(i) - start).as_ms();
      }
    }
    return -1.0;
  };
  std::cout << "First thermal warning: naive t=" << Table::num(first_warning_ms(naive), 2)
            << " ms (ignored); CoolPIM reacts and steps the PIM rate down, the software\n"
               "method trailing the hardware one by well under the thermal response time\n"
               "(paper Section V-B.4: sub-millisecond difference in overall control delay).\n";
  std::cout << "Exec time: naive " << Table::num(naive.exec_time.as_ms(), 2) << " ms, SW "
            << Table::num(sw.exec_time.as_ms(), 2) << " ms, HW "
            << Table::num(hw.exec_time.as_ms(), 2) << " ms.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] {
    coolpim::bench::parse_args(argc, argv);
    print_fig14();
    return 0;
  });
}
