#include "pim/vault_backend.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/names.hpp"

namespace coolpim::pim {

PimVaultBackend::PimVaultBackend(hmc::HmcConfig cfg, hmc::ThermalPolicy policy,
                                 std::uint64_t seed, std::string_view kernel)
    : analytic_{std::move(cfg), policy},
      program_{micro_kernel(kernel.empty() ? kDefaultKernel : kernel)},
      seed_{seed} {
  COOLPIM_REQUIRE(analytic_.config().pim_capable,
                  "the pim-vault backend requires a PIM-capable cube ('" +
                      analytic_.config().name + "' is not)");
}

hmc::EpochService PimVaultBackend::probe(const hmc::EpochDemand& demand, Time epoch,
                                         Celsius dram_temp) const {
  Carry scratch = carry_;  // what-if: residuals and stream position stay put
  return run_vaults(demand, epoch, dram_temp, scratch, nullptr);
}

hmc::EpochService PimVaultBackend::serve(const hmc::EpochDemand& demand, Time epoch,
                                         Celsius dram_temp) {
  last_crf_trace_.clear();
  return run_vaults(demand, epoch, dram_temp, carry_, &last_crf_trace_);
}

hmc::EpochService PimVaultBackend::run_vaults(const hmc::EpochDemand& demand, Time epoch,
                                              Celsius dram_temp, Carry& carry,
                                              std::vector<CrfTraceEntry>* crf_trace) const {
  // The analytic tier supplies the shutdown check, the link/DRAM caps (reads
  // and writes execute no CRF instructions) and the bandwidth arithmetic.
  hmc::EpochService out = analytic_.serve(demand, epoch, dram_temp);
  if (out.shut_down) return out;

  carry.pim_ops += demand.pim_ops;
  const auto n_pim = static_cast<std::uint64_t>(carry.pim_ops);
  carry.pim_ops -= static_cast<double>(n_pim);
  const std::uint64_t stream = carry.epoch_index++;
  if (n_pim == 0) return out;

  const std::uint64_t ops_per_exec = program_.pim_ops_per_execution();
  const std::uint64_t wanted = (n_pim + ops_per_exec - 1) / ops_per_exec;
  const std::uint64_t cap = std::max<std::uint64_t>(1, kMaxSampledOps / ops_per_exec);
  const std::uint64_t executions = std::min(wanted, cap);

  const double derate = analytic_.policy().service_scale(out.phase);
  const hmc::HmcConfig& cfg = analytic_.config();

  // Fresh vault state per epoch (banks drain between epochs at these time
  // scales); operand streams decorrelate per epoch through the stream index
  // so the same banks are not re-walked every epoch.
  std::vector<hmc::Vault> vaults;
  vaults.reserve(cfg.vaults);
  for (std::size_t v = 0; v < cfg.vaults; ++v) vaults.emplace_back(cfg);
  const std::uint64_t stream_seed = seed_ ^ (stream * 0x9e3779b97f4a7c15ULL);
  std::vector<PimUnit> units;
  units.reserve(cfg.vaults);
  for (std::size_t v = 0; v < cfg.vaults; ++v) {
    units.emplace_back(static_cast<std::uint32_t>(v), program_, vaults[v], stream_seed);
  }

  // Round-robin executions across the vaults (the host triggers spread work
  // cube-wide); each unit chains executions back to back, so the makespan
  // measures the cube's steady instruction-level PIM rate.
  ExecStats totals;
  Time makespan = Time::zero();
  for (std::uint64_t e = 0; e < executions; ++e) {
    PimUnit& unit = units[e % units.size()];
    const ExecStats s = unit.execute(Time::zero(), derate);
    totals.pim_ops += s.pim_ops;
    totals.instructions += s.instructions;
    totals.bank_conflicts += s.bank_conflicts;
    makespan = std::max(makespan, s.done);
  }
  COOLPIM_ASSERT(makespan > Time::zero() && totals.pim_ops > 0);

  if (crf_trace != nullptr) {
    for (const PimUnit& unit : units) {
      crf_trace->insert(crf_trace->end(), unit.trace().begin(), unit.trace().end());
    }
  }
  if (counters_ != nullptr) {
    counters_->counter(obs::names::kPimProgramExecutions).add(executions);
    counters_->counter(obs::names::kPimCrfInstructions).add(totals.instructions);
    counters_->counter(obs::names::kPimBankConflicts).add(totals.bank_conflicts);
  }

  // The replayed sample's achieved op rate bounds PIM admission exactly as
  // the analytic internal-bandwidth cap does; the tighter of the two wins
  // and the uniform scale is re-applied to the whole mix.
  const double secs = epoch.as_sec();
  const double pim_rate = static_cast<double>(totals.pim_ops) / makespan.as_sec();
  const double offered_pim_rate = demand.pim_ops / secs;
  const double pim_scale = std::min(1.0, pim_rate / offered_pim_rate);
  const double scale = std::min(out.served_fraction, pim_scale);

  out.served_fraction = scale;
  out.reads = demand.reads * scale;
  out.writes = demand.writes * scale;
  out.pim_ops = demand.pim_ops * scale;
  const hmc::TransactionMix served{demand.reads / secs * scale, demand.writes / secs * scale,
                                   demand.pim_ops / secs * scale,
                                   demand.pim_return_fraction};
  out.link_data = link().data_bandwidth(served);
  out.link_raw = link().raw_link_bandwidth(served);
  out.dram_internal = link().internal_dram_bandwidth(served);
  out.pim_ops_per_sec = served.pim_per_sec;
  return out;
}

}  // namespace coolpim::pim
