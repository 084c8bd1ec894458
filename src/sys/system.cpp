#include "sys/system.hpp"

#include "sys/system_run.hpp"

namespace coolpim::sys {

System::System(SystemConfig cfg) : cfg_{std::move(cfg)} {
  cfg_.gpu.validate();
  cfg_.hmc.validate();
}

RunResult System::run(const graph::WorkloadProfile& workload) {
  // The driver of the resumable run (sys/system_run.hpp): every yield is
  // answered with an immediate thermal step of every cube, which at one cube
  // executes the exact statement sequence of the pre-split monolithic loop.
  SystemRun run{cfg_, workload};
  while (run.advance()) {
    for (std::size_t c = 0; c < run.cube_count(); ++c) run.thermal(c).step(run.pending_dt());
  }
  return run.take_result();
}

}  // namespace coolpim::sys
