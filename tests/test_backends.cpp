// Tests for the hmc::Backend fidelity contract (DESIGN.md section 15): the
// named registry behind --hmc-backend, the OpTally drain semantics,
// byte-identity of the default tier against the bare ThroughputModel, CRF
// trace determinism of the instruction-level pim-vault tier, experiment-key
// stability, cross-validation within the documented tolerance, and the
// docs-sync pin on the exported fidelity vocabulary.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet.hpp"
#include "hmc/backend.hpp"
#include "pim/programs.hpp"
#include "pim/vault_backend.hpp"
#include "pim/xval.hpp"
#include "runner/experiment.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

namespace coolpim {
namespace {

constexpr Time kEpoch = Time::us(10.0);
constexpr Celsius kCool{60.0};

/// A saturating mixed epoch: enough of everything that every tier scales.
hmc::EpochDemand mixed_demand() {
  hmc::EpochDemand d;
  d.reads = 4e9 * kEpoch.as_sec();
  d.writes = 2e9 * kEpoch.as_sec();
  d.pim_ops = 6e9 * kEpoch.as_sec();
  d.pim_return_fraction = 0.25;
  return d;
}

hmc::BackendBuild build_for(hmc::BackendKind kind) {
  hmc::BackendBuild b;
  b.kind = kind;
  b.seed = 11;
  return b;
}

TEST(BackendRegistryTest, EveryRegisteredBackendRoundTrips) {
  for (const auto& info : hmc::kRegisteredBackends) {
    SCOPED_TRACE(std::string{info.cli_name});
    hmc::BackendKind kind{};
    ASSERT_TRUE(hmc::backend_from_name(info.cli_name, kind));
    EXPECT_EQ(kind, info.kind);

    const auto backend = hmc::make_backend(build_for(info.kind));
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), info.kind);
    EXPECT_EQ(backend->name(), info.cli_name);

    // One served epoch.
    const hmc::EpochService s = backend->serve(mixed_demand(), kEpoch, kCool);
    EXPECT_GT(s.pim_ops, 0.0);
    EXPECT_GT(s.reads, 0.0);
    EXPECT_FALSE(s.shut_down);
  }
}

TEST(BackendRegistryTest, UnknownNameIsRejectedAndNamesListEveryTier) {
  hmc::BackendKind kind{};
  EXPECT_FALSE(hmc::backend_from_name("warp-speed", kind));
  EXPECT_FALSE(hmc::backend_from_name("", kind));
  const std::string names = hmc::backend_names();
  for (const auto& info : hmc::kRegisteredBackends) {
    EXPECT_NE(names.find(std::string{info.cli_name}), std::string::npos)
        << info.cli_name << " missing from backend_names()";
  }
}

TEST(BackendRegistryTest, UnknownRunConfigBackendFailsLoudly) {
  sys::RunConfig rc;
  rc.hmc_backend = "warp-speed";
  try {
    rc.validate();
    FAIL() << "validate() accepted an unregistered backend";
  } catch (const ConfigError& e) {
    // The error must teach the vocabulary: every registered name listed.
    const std::string what = e.what();
    for (const auto& info : hmc::kRegisteredBackends) {
      EXPECT_NE(what.find(std::string{info.cli_name}), std::string::npos)
          << info.cli_name << " missing from: " << what;
    }
  }
}

TEST(BackendContractTest, EpochThroughputTierIsTheBareModelVerbatim) {
  // The default tier must be byte-identical to the pre-contract simulator:
  // same config, same arithmetic, bitwise-equal service on a demand sweep.
  hmc::EpochThroughputBackend backend{hmc::hmc20_config()};
  const hmc::ThroughputModel model{hmc::hmc20_config()};
  for (const double temp : {40.0, 60.0, 87.0, 96.0, 104.0}) {
    for (double pim_rate = 0.0; pim_rate <= 12e9; pim_rate += 3e9) {
      hmc::EpochDemand d = mixed_demand();
      d.pim_ops = pim_rate * kEpoch.as_sec();
      const auto got = backend.serve(d, kEpoch, Celsius{temp});
      const auto want = model.serve(d, kEpoch, Celsius{temp});
      EXPECT_EQ(got.served_fraction, want.served_fraction);
      EXPECT_EQ(got.reads, want.reads);
      EXPECT_EQ(got.writes, want.writes);
      EXPECT_EQ(got.pim_ops, want.pim_ops);
      EXPECT_EQ(got.link_raw.as_bytes_per_sec(), want.link_raw.as_bytes_per_sec());
      EXPECT_EQ(got.dram_internal.as_bytes_per_sec(), want.dram_internal.as_bytes_per_sec());
      EXPECT_EQ(got.phase, want.phase);
    }
  }
}

TEST(BackendContractTest, ProbeIsSideEffectFree) {
  for (const auto& info : hmc::kRegisteredBackends) {
    SCOPED_TRACE(std::string{info.cli_name});
    const auto backend = hmc::make_backend(build_for(info.kind));
    const auto probed = backend->probe(mixed_demand(), kEpoch, kCool);
    EXPECT_GT(probed.pim_ops, 0.0);
    // A serve after the probe sees the same state a fresh backend would.
    const auto fresh = hmc::make_backend(build_for(info.kind));
    const auto after_probe = backend->serve(mixed_demand(), kEpoch, kCool);
    const auto no_probe = fresh->serve(mixed_demand(), kEpoch, kCool);
    EXPECT_EQ(after_probe.pim_ops, no_probe.pim_ops);
    EXPECT_EQ(after_probe.reads, no_probe.reads);
  }
}

TEST(OpTallyTest, DrainEmitsSingleRoundedTotals) {
  // Fractional per-epoch ops must never drift: the sum of all integer
  // drains equals the single rounding of the exact total.
  hmc::OpTally tally;
  hmc::EpochService s;
  s.reads = 1000.3;
  s.writes = 0.4;
  s.pim_ops = 10.7;
  std::uint64_t reads = 0, writes = 0, pim = 0;
  for (int i = 0; i < 1000; ++i) {
    tally.add(s);
    const hmc::OpDelta delta = tally.drain();
    reads += delta.reads;
    writes += delta.writes;
    pim += delta.pim_ops;
  }
  EXPECT_EQ(reads, static_cast<std::uint64_t>(tally.totals().reads + 0.5));
  EXPECT_EQ(writes, static_cast<std::uint64_t>(tally.totals().writes + 0.5));
  EXPECT_EQ(pim, static_cast<std::uint64_t>(tally.totals().pim_ops + 0.5));
  // Zero service drains zero.
  tally.add(hmc::EpochService{});
  const hmc::OpDelta delta = tally.drain();
  EXPECT_EQ(delta.reads + delta.writes + delta.pim_ops, 0u);
}

TEST(PimVaultBackendTest, SameSeedGivesBitIdenticalCrfTraces) {
  const auto run = [](std::uint64_t seed) {
    pim::PimVaultBackend backend{hmc::hmc20_config(), {}, seed, pim::kKernelBfs};
    std::vector<pim::CrfTraceEntry> trace;
    for (int i = 0; i < 3; ++i) {
      (void)backend.serve(mixed_demand(), kEpoch, kCool);
      trace.insert(trace.end(), backend.last_crf_trace().begin(),
                   backend.last_crf_trace().end());
    }
    return trace;
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A different seed lands operands on different banks.
  const auto c = run(43);
  EXPECT_NE(a, c);
}

TEST(PimVaultBackendTest, ServesEveryRegisteredMicroKernel) {
  for (const auto kernel : pim::kMicroKernels) {
    SCOPED_TRACE(std::string{kernel});
    pim::PimVaultBackend backend{hmc::hmc20_config(), {}, 7, kernel};
    EXPECT_EQ(backend.program().name, kernel);
    const auto s = backend.serve(mixed_demand(), kEpoch, kCool);
    EXPECT_GT(s.pim_ops, 0.0);
    EXPECT_FALSE(backend.last_crf_trace().empty());
  }
  EXPECT_THROW(pim::micro_kernel("not-a-kernel"), ConfigError);
}

TEST(PimVaultBackendTest, CrossValidatesAgainstAnalyticTierWithinTolerance) {
  // The xval_backends CI gate, mirrored in-suite at reduced epoch count.
  for (const auto kernel : pim::kMicroKernels) {
    for (const double temp : {60.0, 90.0}) {
      SCOPED_TRACE(std::string{kernel} + " @ " + std::to_string(temp));
      const pim::XvalPoint p = pim::cross_validate(kernel, Celsius{temp}, 10);
      EXPECT_GT(p.epoch_op_per_ns, 0.0);
      EXPECT_GT(p.pim_op_per_ns, 0.0);
      EXPECT_LE(std::abs(p.ratio - 1.0), pim::kXvalTolerance)
          << "epoch " << p.epoch_op_per_ns << " vs pim " << p.pim_op_per_ns;
    }
  }
}

TEST(BackendKeyStabilityTest, DefaultBackendLeavesExperimentKeysUntouched) {
  // config_hash mixes the backend only when it differs from the default, so
  // pre-contract experiment keys, seeds, caches and goldens are unchanged.
  const sys::SystemConfig base;
  sys::SystemConfig explicit_default;
  explicit_default.backend = hmc::BackendKind::kEpochThroughput;
  EXPECT_EQ(runner::config_hash(base), runner::config_hash(explicit_default));

  sys::SystemConfig event = base;
  event.backend = hmc::BackendKind::kEventDetailed;
  sys::SystemConfig vault = base;
  vault.backend = hmc::BackendKind::kPimVault;
  EXPECT_NE(runner::config_hash(base), runner::config_hash(event));
  EXPECT_NE(runner::config_hash(base), runner::config_hash(vault));
  EXPECT_NE(runner::config_hash(event), runner::config_hash(vault));
}

TEST(BackendSystemTest, FullRunsCompleteOnEveryTierWithComparableOpTotals) {
  const sys::WorkloadSet set{14, 1};
  std::vector<std::uint64_t> pim_totals;
  for (const auto& info : hmc::kRegisteredBackends) {
    SCOPED_TRACE(std::string{info.cli_name});
    sys::SystemConfig cfg;
    cfg.scenario = sys::Scenario::kCoolPimSw;
    cfg.backend = info.kind;
    sys::System system{cfg};
    const sys::RunResult r = system.run(set.profile("dc"));
    EXPECT_GT(r.exec_time, Time::zero());
    EXPECT_GT(r.pim_ops, 0u);
    pim_totals.push_back(r.pim_ops);
  }
  // SystemRun's OpTally makes per-run pim_ops totals backend-comparable by
  // construction: same workload, same single-rounded counting.
  for (const std::uint64_t total : pim_totals) {
    const double ratio = static_cast<double>(total) / static_cast<double>(pim_totals[0]);
    EXPECT_NEAR(ratio, 1.0, pim::kXvalTolerance);
  }
}

void expect_identical_run(const sys::RunResult& a, const sys::RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.exec_time, b.exec_time);
  // Doubles compared bit-for-bit: the determinism contract is *bit*-identical
  // results at any job count, for every fidelity tier.
  EXPECT_EQ(a.link_data_bytes, b.link_data_bytes);
  EXPECT_EQ(a.link_raw_bytes, b.link_raw_bytes);
  EXPECT_EQ(a.dram_internal_bytes, b.dram_internal_bytes);
  EXPECT_EQ(a.pim_ops, b.pim_ops);
  EXPECT_EQ(a.host_atomics, b.host_atomics);
  EXPECT_EQ(a.cube_energy_j, b.cube_energy_j);
  EXPECT_EQ(a.fan_energy_j, b.fan_energy_j);
  EXPECT_EQ(a.peak_dram_temp.value(), b.peak_dram_temp.value());
  EXPECT_EQ(a.start_dram_temp.value(), b.start_dram_temp.value());
  EXPECT_EQ(a.thermal_warnings, b.thermal_warnings);
  EXPECT_EQ(a.shut_down, b.shut_down);
  EXPECT_EQ(a.time_above_normal, b.time_above_normal);
}

TEST(BackendSystemTest, SweepsAreBitIdenticalAcrossJobCountsOnEveryTier) {
  // The jobs=1-vs-jobs=8 determinism property the default tier has always
  // had (test_runner) must survive the Backend refit on the non-default
  // tiers too: the refitted event-detailed member and the new pim-vault
  // tier give field-for-field identical sweep results at any job count.
  const sys::WorkloadSet set{14, 1};
  std::vector<runner::Experiment> tasks;
  for (const auto& info : hmc::kRegisteredBackends) {
    for (const auto s : {sys::Scenario::kCoolPimSw, sys::Scenario::kNaiveOffloading}) {
      runner::Experiment e;
      e.workload = "dc";
      e.config.scenario = s;
      e.config.backend = info.kind;
      tasks.push_back(e);
    }
  }
  runner::RunOptions serial;
  serial.jobs = 1;
  runner::RunOptions wide;
  wide.jobs = 8;

  const auto a = runner::run_sweep(set, tasks, serial);
  const auto b = runner::run_sweep(set, tasks, wide);
  ASSERT_EQ(a.size(), tasks.size());
  ASSERT_EQ(b.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    SCOPED_TRACE(std::string{
        hmc::to_string(tasks[i].config.backend)} +
        " / " + std::string{sys::to_string(tasks[i].config.scenario)});
    expect_identical_run(a[i], b[i]);
  }
}

std::string read_doc(const std::string& path) {
  std::ifstream doc{path};
  EXPECT_TRUE(doc.is_open()) << path << " missing";
  std::ostringstream ss;
  ss << doc.rdbuf();
  return ss.str();
}

TEST(BackendDocsSyncTest, FidelityVocabularyIsPinnedToTheDocs) {
  // fidelity_names.hpp is the single spelling of every tier; the docs must
  // quote it verbatim (backticked) wherever the contract is described.
  const std::string design = read_doc(std::string{COOLPIM_REPO_DIR} + "/DESIGN.md");
  const std::string arch = read_doc(std::string{COOLPIM_DOCS_DIR} + "/ARCHITECTURE.md");
  const std::string experiments =
      read_doc(std::string{COOLPIM_REPO_DIR} + "/EXPERIMENTS.md");

  for (const auto name : hmc::fidelity::kAllBackends) {
    const std::string quoted = "`" + std::string{name} + "`";
    EXPECT_NE(design.find(quoted), std::string::npos)
        << quoted << " not documented in DESIGN.md section 15";
    EXPECT_NE(experiments.find(quoted), std::string::npos)
        << quoted << " not documented in EXPERIMENTS.md";
  }
  for (const char* needle : {"## 15.", "--hmc-backend", "OpTally",
                             "pim-vault", "cross-validation"}) {
    EXPECT_NE(design.find(needle), std::string::npos)
        << needle << " not documented in DESIGN.md";
  }
  // The fleet fidelity levels share the header (fleet::to_string).
  for (const auto name : {hmc::fidelity::kFleetRc, hmc::fidelity::kFleetGrid}) {
    EXPECT_NE(design.find("`" + std::string{name} + "`"), std::string::npos)
        << name << " not documented in DESIGN.md section 15";
  }
  EXPECT_EQ(fleet::to_string(fleet::ThermalFidelity::kRc), hmc::fidelity::kFleetRc);
  EXPECT_EQ(fleet::to_string(fleet::ThermalFidelity::kGrid), hmc::fidelity::kFleetGrid);

  // ARCHITECTURE.md carries the pim/ layer row and contract paragraph.
  for (const char* needle : {"pim/", "PimUnit", "xval_backends"}) {
    EXPECT_NE(arch.find(needle), std::string::npos)
        << needle << " not documented in docs/ARCHITECTURE.md";
  }

  // EXPERIMENTS.md documents the tolerance the CI gate enforces, the gate
  // binary, and every micro-kernel row of the measured table.
  std::ostringstream tol;
  tol << pim::kXvalTolerance;
  EXPECT_NE(experiments.find("|ratio − 1| ≤ " + tol.str()), std::string::npos)
      << "cross-validation tolerance " << tol.str()
      << " not documented in EXPERIMENTS.md";
  EXPECT_NE(experiments.find("xval_backends"), std::string::npos);
  for (const auto kernel : pim::kMicroKernels) {
    EXPECT_NE(experiments.find("`" + std::string{kernel} + "`"), std::string::npos)
        << kernel << " missing from the EXPERIMENTS.md cross-validation table";
  }
}

}  // namespace
}  // namespace coolpim
