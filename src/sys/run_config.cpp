#include "sys/run_config.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "control/registry.hpp"
#include "hmc/backend.hpp"
#include "runner/pool.hpp"
#include "sys/system.hpp"

namespace coolpim::sys {

namespace {

unsigned parse_unsigned(std::string_view name, const char* text) {
  return static_cast<unsigned>(parse_u64(name, text, std::numeric_limits<unsigned>::max()));
}

bool parse_bool(std::string_view name, const char* text) {
  const std::string_view t{text};
  if (t == "1" || t == "true" || t == "on") return true;
  if (t == "0" || t == "false" || t == "off") return false;
  throw ConfigError(std::string{name} + ": expected 0/1, got '" + text + "'");
}

/// One overlay routine serves both sources: every knob is (name, setter), the
/// env path looks the name up as COOLPIM_<NAME>, the CLI path as --<name>.
struct Knob {
  const char* env;   // e.g. "COOLPIM_SCALE"
  const char* flag;  // e.g. "--scale"
  void (*set)(RunConfig&, std::string_view source, const char* value);
};

const Knob kKnobs[] = {
    {"COOLPIM_JOBS", "--jobs",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.jobs = parse_unsigned(n, v);
     }},
    {"COOLPIM_SCALE", "--scale",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.scale = parse_unsigned(n, v);
     }},
    {"COOLPIM_GRAPH_SEED", "--graph-seed",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.graph_seed = parse_u64(n, v);
     }},
    {"COOLPIM_TRACE", "--trace",
     [](RunConfig& rc, std::string_view, const char* v) { rc.trace_path = v; }},
    {"COOLPIM_COUNTERS", "--counters",
     [](RunConfig& rc, std::string_view, const char* v) { rc.counters_path = v; }},
    {"COOLPIM_PROFILE_CACHE", "--profile-cache",
     [](RunConfig& rc, std::string_view, const char* v) { rc.profile_cache_dir = v; }},
    {"COOLPIM_POLICY", "--policy",
     [](RunConfig& rc, std::string_view, const char* v) { rc.policy = v; }},
    {"COOLPIM_POLICY_TABLE", "--policy-table",
     [](RunConfig& rc, std::string_view, const char* v) { rc.policy_table_path = v; }},
    {"COOLPIM_HMC_BACKEND", "--hmc-backend",
     [](RunConfig& rc, std::string_view, const char* v) { rc.hmc_backend = v; }},
    {"COOLPIM_FLEET_NODES", "--fleet-nodes",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fleet_nodes = parse_unsigned(n, v);
     }},
    {"COOLPIM_ARRIVAL_RATE", "--arrival-rate",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.arrival_rate = parse_double(n, v);
     }},
    {"COOLPIM_BALANCER", "--balancer",
     [](RunConfig& rc, std::string_view, const char* v) { rc.balancer = v; }},
    {"COOLPIM_STACK_LAYERS", "--stack-layers",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.stack_layers = parse_unsigned(n, v);
     }},
    {"COOLPIM_FAULT_DROP", "--fault-drop",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.warning_drop_rate = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_CORRUPT", "--fault-corrupt",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.errstat_corrupt_rate = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_SPURIOUS", "--fault-spurious",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.spurious_warning_rate = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_DELAY_US", "--fault-delay-us",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.warning_delay_max = Time::us(parse_double(n, v));
     }},
    {"COOLPIM_FAULT_NOISE_C", "--fault-noise-c",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.sensor_noise_sigma_c = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_QUANT_C", "--fault-quant-c",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.sensor_quantization_c = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_STUCK", "--fault-stuck",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.sensor_stuck_rate = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_OUTAGE", "--fault-outage",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.link_outage_rate = parse_double(n, v);
     }},
    {"COOLPIM_FAULT_WATCHDOG", "--fault-watchdog",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.watchdog.enabled = parse_bool(n, v);
     }},
    {"COOLPIM_FAULT_ENABLE", "--fault-enable",
     [](RunConfig& rc, std::string_view n, const char* v) {
       rc.fault.force_enable = parse_bool(n, v);
     }},
};

}  // namespace

void RunConfig::validate() const {
  COOLPIM_REQUIRE(jobs <= runner::Pool::kMaxJobs,
                  "jobs must be in [0, " + std::to_string(runner::Pool::kMaxJobs) + "]");
  COOLPIM_REQUIRE(scale >= 8 && scale <= 24, "scale must be in [8, 24]");
  COOLPIM_REQUIRE(fleet_nodes >= 1 && fleet_nodes <= 4096,
                  "fleet-nodes must be in [1, 4096]");
  COOLPIM_REQUIRE(arrival_rate > 0.0, "arrival-rate must be positive");
  COOLPIM_REQUIRE(!balancer.empty(), "balancer must not be empty");
  COOLPIM_REQUIRE(stack_layers <= 64, "stack-layers must be in [0, 64]");
  if (!policy.empty()) {
    Scenario unused;
    COOLPIM_REQUIRE(control::policy_from_name(policy, unused),
                    "unknown policy '" + policy + "' (registered: " +
                        control::policy_names() + ")");
  }
  if (!hmc_backend.empty()) {
    hmc::BackendKind unused;
    COOLPIM_REQUIRE(hmc::backend_from_name(hmc_backend, unused),
                    "unknown hmc backend '" + hmc_backend + "' (registered: " +
                        hmc::backend_names() + ")");
  }
  fault.validate();
}

RunConfig RunConfig::from_env() { return from_env(RunConfig{}); }

RunConfig RunConfig::from_args(int* argc, char** argv) {
  return from_args(argc, argv, RunConfig{});
}

RunConfig RunConfig::from_env(RunConfig base) {
  for (const Knob& k : kKnobs) {
    if (const char* v = std::getenv(k.env); v != nullptr && *v != '\0') {
      k.set(base, k.env, v);
    }
  }
  base.validate();
  return base;
}

RunConfig RunConfig::from_args(int* argc, char** argv, RunConfig base) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const Knob* hit = nullptr;
    const char* inline_value = nullptr;
    for (const Knob& k : kKnobs) {
      const std::size_t flen = std::strlen(k.flag);
      if (std::strcmp(argv[i], k.flag) == 0) {
        hit = &k;
        break;
      }
      // --flag=value form.
      if (std::strncmp(argv[i], k.flag, flen) == 0 && argv[i][flen] == '=') {
        hit = &k;
        inline_value = argv[i] + flen + 1;
        break;
      }
    }
    if (hit == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    const char* value = inline_value;
    if (value == nullptr) {
      COOLPIM_REQUIRE(i + 1 < *argc, std::string{hit->flag} + ": missing value");
      value = argv[++i];
    }
    hit->set(base, hit->flag, value);
  }
  *argc = out;
  argv[*argc] = nullptr;
  base.validate();
  return base;
}

void RunConfig::apply_to(SystemConfig& cfg) const {
  cfg.fault = fault;
  if (!policy.empty()) {
    Scenario s;
    COOLPIM_REQUIRE(control::policy_from_name(policy, s),
                    "unknown policy '" + policy + "'");
    cfg.scenario = s;
  }
  if (!policy_table_path.empty()) {
    cfg.policy_table.table = control::load_policy_table(policy_table_path);
  }
  if (!hmc_backend.empty()) {
    COOLPIM_REQUIRE(hmc::backend_from_name(hmc_backend, cfg.backend),
                    "unknown hmc backend '" + hmc_backend + "'");
  }
}

WorkloadSet::BuildOptions RunConfig::build_options() const {
  WorkloadSet::BuildOptions opt;
  opt.jobs = jobs;
  opt.cache_dir = profile_cache_dir;
  return opt;
}

std::string RunConfig::flags_help() {
  return "  --jobs N             runner parallelism (0 = all cores, at most " +
         std::to_string(runner::Pool::kMaxJobs) +
         ")\n"
         "  --scale N            graph scale, 2^N vertices (8..24)\n"
         "  --graph-seed N       graph-generation seed\n"
         "  --trace FILE         write a Chrome trace of the run(s)\n"
         "  --counters FILE      write a counter CSV of the run(s)\n"
         "  --profile-cache DIR  persistent workload-profile cache\n"
         "  --policy NAME        throttling policy (" +
         control::policy_names() +
         ")\n"
         "  --policy-table FILE  fitted policy-table CSV (policy-table only)\n"
         "  --hmc-backend NAME   HMC service fidelity tier (" +
         hmc::backend_names() +
         ")\n"
         "  --fleet-nodes N      fleet tier: GPU+HMC node count (1..4096)\n"
         "  --arrival-rate R     fleet tier: open-loop arrivals per second\n"
         "  --balancer NAME      fleet tier: round-robin, join-shortest-queue,\n"
         "                       thermal-aware\n"
         "  --stack-layers N     DRAM dies in the stack geometry (0 = entry\n"
         "                       point default, up to 64; 16 = HBM-class tall)\n"
         "  --fault-drop R       warning drop probability [0,1]\n"
         "  --fault-corrupt R    ERRSTAT corruption probability [0,1]\n"
         "  --fault-spurious R   per-epoch spurious-warning probability [0,1]\n"
         "  --fault-delay-us X   max extra warning delivery delay (us)\n"
         "  --fault-noise-c X    sensor Gaussian noise sigma (C)\n"
         "  --fault-quant-c X    sensor quantization step (C)\n"
         "  --fault-stuck R      per-epoch stuck-sensor probability [0,1]\n"
         "  --fault-outage R     per-epoch link-outage probability [0,1]\n"
         "  --fault-watchdog B   fail-safe watchdog on/off (default on)\n"
         "  --fault-enable B     force the fault layer on at zero rates\n";
}

}  // namespace coolpim::sys
