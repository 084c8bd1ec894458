#include "hmc/backend.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "hmc/device.hpp"
#include "hmc/packet.hpp"
#include "sim/simulation.hpp"

namespace coolpim::hmc {

bool backend_from_name(std::string_view name, BackendKind& out) {
  for (const BackendInfo& b : kRegisteredBackends) {
    if (b.cli_name == name) {
      out = b.kind;
      return true;
    }
  }
  return false;
}

std::string backend_names() {
  std::string names;
  for (const BackendInfo& b : kRegisteredBackends) {
    if (!names.empty()) names += ", ";
    names += b.cli_name;
  }
  return names;
}

EpochService EventDetailedBackend::serve(const EpochDemand& demand, Time epoch,
                                         Celsius dram_temp) {
  return run_detailed(demand, epoch, dram_temp, carry_);
}

EpochService EventDetailedBackend::probe(const EpochDemand& demand, Time epoch,
                                         Celsius dram_temp) const {
  Carry scratch = carry_;  // what-if: the persistent stream position stays put
  return run_detailed(demand, epoch, dram_temp, scratch);
}

EpochService EventDetailedBackend::run_detailed(const EpochDemand& demand, Time epoch,
                                                Celsius dram_temp, Carry& carry) const {
  COOLPIM_REQUIRE(epoch > Time::zero(), "epoch must be positive");
  COOLPIM_ASSERT(demand.reads >= 0 && demand.writes >= 0 && demand.pim_ops >= 0);

  EpochService out{};
  out.phase = policy_.phase(dram_temp);
  if (out.phase == ThermalPhase::kShutdown) {
    out.served_fraction = 0.0;
    out.shut_down = true;
    return out;
  }

  // Integerize the epoch's demand with residual carries so fractional
  // per-epoch rates still issue requests at the right long-run frequency.
  carry.reads += demand.reads;
  carry.writes += demand.writes;
  carry.pim_ops += demand.pim_ops;
  auto take = [](double& c) {
    const auto n = static_cast<std::uint64_t>(c);
    c -= static_cast<double>(n);
    return n;
  };
  std::uint64_t n_reads = take(carry.reads);
  std::uint64_t n_writes = take(carry.writes);
  std::uint64_t n_pims = take(carry.pim_ops);
  const std::uint64_t total = n_reads + n_writes + n_pims;

  const double secs = epoch.as_sec();
  const TransactionMix offered{demand.reads / secs, demand.writes / secs,
                               demand.pim_ops / secs, demand.pim_return_fraction};

  if (total == 0) {
    // Sub-request demand this epoch: nothing to time; report it fully served
    // at the offered mix (the carried residual issues in a later epoch).
    out.reads = demand.reads;
    out.writes = demand.writes;
    out.pim_ops = demand.pim_ops;
    out.link_data = link_.data_bandwidth(offered);
    out.link_raw = link_.raw_link_bandwidth(offered);
    out.dram_internal = link_.internal_dram_bandwidth(offered);
    out.pim_ops_per_sec = offered.pim_per_sec;
    return out;
  }

  // Cap the sample, preserving class proportions.  The achieved *rate* is
  // what bounds the served fraction, so a proportional sample times the same
  // steady state as the full population.
  auto sampled = [&](std::uint64_t n) {
    if (total <= kMaxSampledRequests) return n;
    const auto s = static_cast<std::uint64_t>(
        static_cast<double>(n) * static_cast<double>(kMaxSampledRequests) /
        static_cast<double>(total));
    return n > 0 ? std::max<std::uint64_t>(s, 1) : std::uint64_t{0};
  };
  const std::uint64_t s_reads = sampled(n_reads);
  const std::uint64_t s_writes = sampled(n_writes);
  const std::uint64_t s_pims = sampled(n_pims);
  const std::uint64_t s_total = s_reads + s_writes + s_pims;

  sim::Simulation sim;
  Device dev{sim, link_.config(), policy_};
  dev.set_dram_temperature(dram_temp);

  // Issue the sample interleaved (Bresenham-style) so the link sees the mix,
  // not class-sorted bursts; addresses stride the cursor so consecutive
  // requests spread across vaults first, then banks (hmc::AddressMap).
  double acc_r = 0.0, acc_w = 0.0, acc_p = 0.0, acc_ret = 0.0;
  const double tot_d = static_cast<double>(s_total);
  for (std::uint64_t i = 0; i < s_total; ++i) {
    Request req;
    acc_r += static_cast<double>(s_reads);
    acc_w += static_cast<double>(s_writes);
    acc_p += static_cast<double>(s_pims);
    if (acc_r >= acc_w && acc_r >= acc_p) {
      acc_r -= tot_d;
      req.type = TransactionType::kRead64;
    } else if (acc_w >= acc_p) {
      acc_w -= tot_d;
      req.type = TransactionType::kWrite64;
    } else {
      acc_p -= tot_d;
      acc_ret += demand.pim_return_fraction;
      if (acc_ret >= 1.0) {
        acc_ret -= 1.0;
        req.type = TransactionType::kPimWithReturn;
      } else {
        req.type = TransactionType::kPimNoReturn;
      }
    }
    req.address = carry.addr_cursor * 64;
    req.tag = static_cast<std::uint32_t>(i);
    ++carry.addr_cursor;
    dev.submit(req, [](const Response&) {});
  }
  const Time done = sim.run_to_completion();
  COOLPIM_ASSERT(done > Time::zero());

  // Achieved request rate (sample population over its completion span) vs
  // the offered rate bounds the uniform admission scale, exactly as the
  // analytic tier's link/DRAM caps do.
  const double achieved_rate = static_cast<double>(s_total) / done.as_sec();
  const double offered_rate =
      (demand.reads + demand.writes + demand.pim_ops) / secs;
  const double scale =
      offered_rate > 0.0 ? std::min(1.0, achieved_rate / offered_rate) : 1.0;

  out.served_fraction = scale;
  out.reads = demand.reads * scale;
  out.writes = demand.writes * scale;
  out.pim_ops = demand.pim_ops * scale;
  const TransactionMix served{offered.reads_per_sec * scale, offered.writes_per_sec * scale,
                              offered.pim_per_sec * scale, offered.pim_return_fraction};
  out.link_data = link_.data_bandwidth(served);
  out.link_raw = link_.raw_link_bandwidth(served);
  out.dram_internal = link_.internal_dram_bandwidth(served);
  out.pim_ops_per_sec = served.pim_per_sec;
  return out;
}

}  // namespace coolpim::hmc
