#include "sys/system.hpp"

#include "sys/system_run.hpp"

namespace coolpim::sys {

System::System(SystemConfig cfg) : cfg_{std::move(cfg)} {
  cfg_.gpu.validate();
  cfg_.hmc.validate();
}

RunResult System::run(const graph::WorkloadProfile& workload) {
  // The driver of the resumable run (sys/system_run.hpp): every yield is
  // answered with an immediate thermal step, which executes the exact
  // statement sequence of the pre-split monolithic epoch loop.
  SystemRun run{cfg_, workload};
  while (run.advance()) run.thermal().step(run.pending_dt());
  return run.take_result();
}

}  // namespace coolpim::sys
