// krakperf: the measurement process of the krakmodel benchmark
// (perfbench/METRICS.md). perfbench/run.py starts one krakperf process
// per repetition, so every repetition pays its own set-up and first
// touch, and its peak RSS is its own. The process drives each layer
// from outside, through the layer's public functions, and prints one
// JSON object of raw measurements and outputs as its last stdout line;
// run.py checks the outputs and aggregates the repetitions.
//
// Usage:
//   krakperf --workload W --seed N [--mode M] [--store DIR]
//            [--trace-out FILE]
//
//   W  validate_cold  Table 5 + Table 6 + strong_scaling campaigns,
//                     partition caches cleared after calibration
//      validate_warm  the same 15 scenarios served from a partition
//                     store that set-up filled (--store DIR)
//      replay_100k    the large_100k sharded SimKrak replay
//   N  workload seed: partition seed N, SimKrak noise seed N + 41, so
//      N = 1 reproduces BENCH_PR10.json (seeds 1 and 42)
//   M  timed   (default) set up, then the timed section with no spans:
//              one sweep or replay (validate_warm: three sweeps)
//      traced  one timed section with spans on, then a serial pass that
//              calls each layer once per scenario inside its own span;
//              the spans go to --trace-out as Chrome trace-event JSON
//      oracle  replay_100k only: the single-thread oracle's outputs,
//              for the bit-identity check of other seeds
//
// Every pool width handed to the program is min(nproc, hardware
// concurrency); the DES shard count stays 8, because it fixes results.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bench_report.hpp"
#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/model.hpp"
#include "core/partition_cache.hpp"
#include "core/partition_store.hpp"
#include "mesh/deck.hpp"
#include "mesh/synthetic.hpp"
#include "network/machine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/simkrak.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace krak;

constexpr std::int32_t kShards = 8;
constexpr std::int32_t kReplayRanks = 102400;
constexpr int kWarmSweeps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "timed";
  std::string store;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "krakperf: " << message
            << "\nusage: krakperf --workload validate_cold|validate_warm|"
               "replay_100k --seed N [--mode timed|traced|oracle]"
               " [--store DIR] [--trace-out FILE]\n";
  // krak-lint: allow(no-abort usage exit before any work or RAII state exists)
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("'" + arg + "' needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      std::size_t used = 0;
      try {
        args.seed = std::stoull(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != value.size() || value[0] == '-') {
        usage_error("--seed expects a non-negative integer");
      }
      have_seed = true;
    } else if (arg == "--mode") {
      args.mode = value;
    } else if (arg == "--store") {
      args.store = value;
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (args.workload != "validate_cold" && args.workload != "validate_warm" &&
      args.workload != "replay_100k") {
    usage_error("unknown workload '" + args.workload + "'");
  }
  if (!have_seed) usage_error("--seed is required");
  if (args.mode != "timed" && args.mode != "traced" && args.mode != "oracle") {
    usage_error("unknown mode '" + args.mode + "'");
  }
  if (args.mode == "oracle" && args.workload != "replay_100k") {
    usage_error("--mode oracle is for replay_100k only");
  }
  if (args.workload == "validate_warm" && args.store.empty()) {
    usage_error("validate_warm needs --store DIR");
  }
  if (args.mode == "traced" && args.trace_out.empty()) {
    usage_error("--mode traced needs --trace-out FILE");
  }
  return args;
}

std::int32_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Width of every pool the benchmark hands to the program.
std::int32_t pool_width() {
  const auto hw = static_cast<std::int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  return std::min(online_cpus(), hw);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans -----------------------------------------------------------

/// In-memory span log, written out once as Chrome trace-event JSON.
/// Spans nest strictly: every layer call the benchmark times runs on
/// the main thread, so the innermost open span is the parent.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string category;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  std::int64_t open(std::string name, std::string category) {
    Span span;
    span.name = std::move(name);
    span.category = std::move(category);
    span.id = static_cast<std::int64_t>(spans_.size()) + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    util::check(!open_.empty() && open_.back() == id,
                "span closed out of order");
    spans_[static_cast<std::size_t>(id - 1)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] obs::Json to_chrome(obs::Json metadata) const {
    obs::Json events = obs::Json::array();
    for (const Span& span : spans_) {
      obs::Json event = obs::Json::object();
      event["name"] = span.name;
      event["cat"] = span.category;
      event["ph"] = "X";
      event["pid"] = 1;
      event["tid"] = 1;
      event["ts"] = static_cast<double>(span.start_ns) / 1000.0;
      event["dur"] = static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
      obs::Json args = obs::Json::object();
      args["id"] = span.id;
      args["parent"] = span.parent;
      args["dur_ns"] = span.end_ns - span.start_ns;
      event["args"] = std::move(args);
      events.push_back(std::move(event));
    }
    obs::Json trace = obs::Json::object();
    trace["traceEvents"] = std::move(events);
    trace["displayTimeUnit"] = "ms";
    trace["otherData"] = std::move(metadata);
    return trace;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return static_cast<std::int64_t>(origin_.seconds() * 1e9);
  }

  util::Stopwatch origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a null log (the untimed-spans mode) makes it a no-op.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, std::string category = "layer")
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), std::move(category))
                           : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

// --- registry deltas --------------------------------------------------

/// Counter deltas between two registry snapshots (timers contribute
/// their call counts).
obs::Json counter_deltas(const obs::Snapshot& before,
                         const obs::Snapshot& after) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, value] : after) {
    if (value.kind == obs::MetricValue::Kind::kGauge) continue;
    const auto it = before.find(name);
    const std::int64_t base = it != before.end() ? it->second.count : 0;
    out[name] = value.count - base;
  }
  return out;
}

// --- outputs ----------------------------------------------------------

/// FNV-1a over the IEEE bit patterns of every rank's finish time: one
/// string that changes when any rank's breakdown changes by one ulp.
std::string rank_digest(const simapp::SimKrakResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    const auto bits = std::bit_cast<std::uint64_t>(rank.total_seconds());
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

obs::Json replay_outputs(const simapp::SimKrakResult& result) {
  obs::Json out = obs::Json::object();
  out["makespan_s"] = result.total_time;
  out["compute_s"] = result.totals.compute;
  out["events"] = static_cast<std::int64_t>(result.events_processed);
  out["p2p_messages"] = result.traffic.point_to_point_messages;
  out["p2p_bytes"] = result.traffic.point_to_point_bytes;
  out["failures"] = static_cast<std::int64_t>(result.failures.size());
  out["rank_digest"] = rank_digest(result);
  return out;
}

/// Bit identity of the simulated outcome (engine-mechanics fields such
/// as event counts legitimately differ between the engines).
bool same_outcome(const simapp::SimKrakResult& a,
                  const simapp::SimKrakResult& b) {
  return a.total_time == b.total_time && a.totals.compute == b.totals.compute &&
         a.traffic.point_to_point_messages ==
             b.traffic.point_to_point_messages &&
         a.traffic.point_to_point_bytes == b.traffic.point_to_point_bytes &&
         a.failures.size() == b.failures.size() &&
         rank_digest(a) == rank_digest(b);
}

obs::Json host_json() {
  const core::BenchEnvironment env = core::detect_bench_environment();
  obs::Json host = obs::Json::object();
  host["nproc"] = online_cpus();
  host["hardware_concurrency"] = env.hardware_concurrency;
  host["pool_width"] = pool_width();
  host["shards"] = kShards;
  host["compiler"] = env.compiler;
  host["build_type"] = env.build_type;
  return host;
}

/// DES accounting the traced pass sums over its SimKrak::run calls.
/// Registry deltas are taken around each call, so oracle reruns made
/// for the bit-identity check are never counted.
struct SimTally {
  std::int64_t events = 0;
  std::int64_t p2p_messages = 0;
  std::int64_t max_queue_depth = 0;
  double coordinator_s = 0.0;
  double sort_s = 0.0;
  double inject_s = 0.0;
  double barrier_wait_s = 0.0;
  double sharded_s = 0.0;  // wall of the sharded SimKrak::run calls
  double oracle_s = 0.0;   // wall of their single-thread oracle reruns
  bool oracle_identical = true;
  std::map<std::string, std::int64_t> counters;

  /// Run `app` once, account for it, and return its result.
  simapp::SimKrakResult run(const simapp::SimKrak& app, bool sharded) {
    const obs::Snapshot before = obs::global_registry().snapshot();
    const util::Stopwatch watch;
    simapp::SimKrakResult result = app.run();
    const double seconds = watch.seconds();
    const obs::Json deltas =
        counter_deltas(before, obs::global_registry().snapshot());
    for (const auto& [name, value] : deltas.as_object()) {
      counters[name] += static_cast<std::int64_t>(value.as_double());
    }
    events += static_cast<std::int64_t>(result.events_processed);
    p2p_messages += result.traffic.point_to_point_messages;
    max_queue_depth = std::max(
        max_queue_depth, static_cast<std::int64_t>(result.max_queue_depth));
    coordinator_s += result.coordinator_seconds;
    sort_s += result.sort_seconds;
    inject_s += result.inject_seconds;
    if (sharded) {
      sharded_s += seconds;
      // A last-write gauge: it holds this run's value only until the
      // next sharded run, so it is read here, right after the run.
      barrier_wait_s +=
          obs::global_registry().gauge("sim.parallel.barrier_wait_s").value();
    }
    return result;
  }

  /// Rerun `oracle` (the same configuration on one thread) and require
  /// the sharded `result` to match it bit for bit.
  void check_oracle(const simapp::SimKrak& oracle,
                    const simapp::SimKrakResult& result) {
    const util::Stopwatch watch;
    const simapp::SimKrakResult reference = oracle.run();
    oracle_s += watch.seconds();
    oracle_identical = oracle_identical && same_outcome(result, reference);
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json out = obs::Json::object();
    out["events"] = events;
    out["p2p_messages"] = p2p_messages;
    out["max_queue_depth"] = max_queue_depth;
    out["coordinator_s"] = coordinator_s;
    out["sort_s"] = sort_s;
    out["inject_s"] = inject_s;
    out["barrier_wait_s"] = barrier_wait_s;
    out["sharded_s"] = sharded_s;
    out["oracle_s"] = oracle_s;
    out["oracle_identical"] = oracle_identical;
    obs::Json deltas = obs::Json::object();
    for (const auto& [name, value] : counters) deltas[name] = value;
    out["counters"] = std::move(deltas);
    return out;
  }
};

// --- validate_* -------------------------------------------------------

struct Campaign {
  std::string label;
  std::vector<core::CampaignRun> runs;
  bool scaled = false;  // strong_scaling: widened machine, 8 DES shards
};

std::vector<Campaign> validation_campaigns() {
  std::vector<core::CampaignRun> scaling;
  for (std::int32_t pes : {1024, 2048, 4096}) {
    scaling.push_back({mesh::DeckSize::kLarge, pes,
                       core::CampaignRun::Flavor::kGeneralHomogeneous});
  }
  return {{"table5_meshspecific", core::table5_runs(), false},
          {"table6_general", core::table6_runs(), false},
          {"strong_scaling", std::move(scaling), true}};
}

network::MachineConfig widened(network::MachineConfig machine,
                               std::int32_t pes) {
  if (machine.total_pes() < pes) {
    machine.nodes = (pes + machine.pes_per_node - 1) / machine.pes_per_node;
  }
  return machine;
}

/// Everything the validation sweeps need, built in the timed set-up:
/// the Method-2 calibration on the medium deck, exactly as krak_bench
/// builds it, and the strong-scaling machine and model around it.
struct ValidateSetup {
  simapp::ComputationCostEngine engine;
  network::MachineConfig machine = network::make_es45_qsnet();
  core::KrakModel model;
  network::MachineConfig scaled_machine;
  core::KrakModel scaled_model;
  core::ValidationConfig config;
  core::ValidationConfig scaling_config;

  ValidateSetup(std::uint64_t seed, SpanLog* spans)
      : model(calibrate(engine, spans), machine),
        scaled_machine(widened(machine, 4096)),
        scaled_model(model.cost_table(), scaled_machine) {
    config.partition_seed = seed;
    config.noise_seed = seed + 41;
    config.partition_threads = pool_width();
    scaling_config = config;
    scaling_config.sim_threads = kShards;
  }

  [[nodiscard]] const core::KrakModel& model_for(const Campaign& c) const {
    return c.scaled ? scaled_model : model;
  }
  [[nodiscard]] const core::ValidationConfig& config_for(
      const Campaign& c) const {
    return c.scaled ? scaling_config : config;
  }

 private:
  static core::CostTable calibrate(const simapp::ComputationCostEngine& engine,
                                   SpanLog* spans) {
    const Scope span(spans, "core.calibration");
    return core::calibrate_from_input(
        engine, mesh::make_standard_deck(mesh::DeckSize::kMedium),
        {8, 64, 512, 4096});
  }
};

void clear_partition_caches() {
  core::PartitionCache::global().clear();
  partition::clear_multilevel_ladder_cache();
}

/// validate_warm's set-up: compute every configuration the sweep needs
/// once, in parallel over the scenarios as a campaign would, and persist
/// it; then drop the in-memory caches so the timed sweep reads the store.
void fill_store(const ValidateSetup& setup,
                const std::vector<Campaign>& campaigns,
                const std::filesystem::path& directory, SpanLog* spans) {
  const Scope span(spans, "core.store_fill");
  std::filesystem::remove_all(directory);
  core::PartitionCache::global().set_store(
      std::make_shared<core::PartitionStore>(directory));
  std::vector<core::CampaignRun> runs;
  for (const Campaign& campaign : campaigns) {
    runs.insert(runs.end(), campaign.runs.begin(), campaign.runs.end());
  }
  util::ThreadPool pool(static_cast<std::size_t>(pool_width()));
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    const mesh::InputDeck deck = mesh::make_standard_deck(runs[i].deck);
    (void)core::PartitionCache::global().get(
        deck, runs[i].pes, partition::PartitionMethod::kMultilevel,
        setup.config.partition_seed, setup.config.partition_threads);
  });
  clear_partition_caches();
}

struct SweepResult {
  std::vector<core::CampaignSummary> summaries;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  obs::Json counters;
};

SweepResult run_sweep(const ValidateSetup& setup,
                      const std::vector<Campaign>& campaigns, SpanLog* spans) {
  SweepResult sweep;
  const obs::Snapshot before = obs::global_registry().snapshot();
  const double cpu_before = cpu_seconds();
  const util::Stopwatch watch;
  {
    const Scope span(spans, "sweep", "phase");
    for (const Campaign& campaign : campaigns) {
      const Scope campaign_span(spans, "campaign:" + campaign.label,
                                "campaign");
      sweep.summaries.push_back(core::run_validation_campaign(
          setup.model_for(campaign), setup.engine, campaign.runs,
          setup.config_for(campaign),
          static_cast<std::size_t>(pool_width())));
    }
  }
  sweep.wall_s = watch.seconds();
  sweep.cpu_s = cpu_seconds() - cpu_before;
  sweep.counters = counter_deltas(before, obs::global_registry().snapshot());
  return sweep;
}

obs::Json scenario_json(const std::string& name,
                        const core::ValidationPoint& point,
                        const std::string& error) {
  obs::Json out = obs::Json::object();
  out["name"] = name;
  out["measured_s"] = point.measured;
  out["predicted_s"] = point.predicted;
  out["failed"] = !error.empty();
  out["error"] = error;
  return out;
}

obs::Json sweep_scenarios(const std::vector<Campaign>& campaigns,
                          const SweepResult& sweep) {
  obs::Json out = obs::Json::array();
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const core::CampaignSummary& summary = sweep.summaries[c];
    const Campaign& campaign = campaigns[c];
    for (std::size_t i = 0; i < campaign.runs.size(); ++i) {
      std::string error;
      for (const core::CampaignFailure& failure : summary.failures) {
        if (failure.run_index == i) error = failure.error;
      }
      const std::string name =
          campaign.label + "/" + core::campaign_run_name(campaign.runs[i]);
      out.push_back(scenario_json(name, summary.points[i], error));
    }
  }
  return out;
}

obs::Json campaign_json(const SweepResult& sweep) {
  obs::Json out = obs::Json::array();
  for (const core::CampaignSummary& summary : sweep.summaries) {
    obs::Json campaign = obs::Json::object();
    campaign["wall_s"] = summary.wall_seconds;
    campaign["threads"] = static_cast<std::int64_t>(summary.threads_used);
    obs::Json walls = obs::Json::array();
    for (const double wall : summary.run_wall_seconds) walls.push_back(wall);
    campaign["run_wall_s"] = std::move(walls);
    out.push_back(std::move(campaign));
  }
  return out;
}

simapp::SimKrakOptions sim_options(const core::ValidationConfig& config) {
  simapp::SimKrakOptions options;
  options.iterations = config.iterations;
  options.noise_seed = config.noise_seed;
  options.sim_threads = config.sim_threads;
  return options;
}

/// The traced serial pass: every scenario of the sweep again, one at a
/// time, with each layer called directly inside its own span. A
/// configuration the sweep served from its partition cache (medium at
/// 128 PEs is in Tables 5 and 6) is partitioned once here too. Sharded
/// scenarios are then rerun on the oracle, outside their scenario span.
/// Returns the scenarios' outputs, which must equal the sweep's.
obs::Json serial_pass(const ValidateSetup& setup,
                      const std::vector<Campaign>& campaigns, bool warm,
                      SimTally& tally, SpanLog& spans) {
  const Scope pass(&spans, "serial_pass", "phase");
  clear_partition_caches();
  const std::shared_ptr<core::PartitionStore> store =
      core::PartitionCache::global().store();
  struct Partitioned {
    std::shared_ptr<const partition::Partition> partition;
    std::shared_ptr<const partition::PartitionStats> stats;
  };
  std::map<std::pair<int, std::int32_t>, Partitioned> memo;
  obs::Json out = obs::Json::array();
  for (const Campaign& campaign : campaigns) {
    const core::KrakModel& model = setup.model_for(campaign);
    const core::ValidationConfig& config = setup.config_for(campaign);
    for (const core::CampaignRun& run : campaign.runs) {
      const std::string name =
          campaign.label + "/" + core::campaign_run_name(run);
      std::optional<mesh::InputDeck> deck;
      std::optional<simapp::SimKrakResult> result;
      core::ValidationPoint point;
      Partitioned* entry = nullptr;
      {
        const Scope scenario(&spans, name, "scenario");
        {
          const Scope span(&spans, "mesh.deck");
          deck.emplace(mesh::make_standard_deck(run.deck));
        }
        entry = &memo[{static_cast<int>(run.deck), run.pes}];
        if (entry->partition == nullptr) {
          if (warm) {
            const Scope span(&spans, "core.store_load");
            std::optional<partition::Partition> loaded =
                store->load({core::deck_fingerprint(*deck), run.pes,
                             partition::PartitionMethod::kMultilevel,
                             config.partition_seed});
            util::check(loaded.has_value(), "partition store lost " + name);
            entry->partition = std::make_shared<const partition::Partition>(
                std::move(*loaded));
          } else {
            const Scope span(&spans, "partition.multilevel");
            entry->partition = std::make_shared<const partition::Partition>(
                partition::partition_deck(
                    *deck, run.pes, partition::PartitionMethod::kMultilevel,
                    config.partition_seed, config.partition_threads));
          }
          const Scope span(&spans, "partition.stats");
          entry->stats = std::make_shared<const partition::PartitionStats>(
              *deck, *entry->partition);
        }
        {
          const Scope span(&spans, "simapp.run");
          const simapp::SimKrak app(*deck, *entry->partition, model.machine(),
                                    setup.engine, entry->stats,
                                    sim_options(config));
          result.emplace(tally.run(app, config.sim_threads > 1));
        }
        point.measured = result->time_per_iteration;
        {
          const Scope span(&spans, "core.model.predict");
          point.predicted =
              run.flavor == core::CampaignRun::Flavor::kMeshSpecific
                  ? model.predict_mesh_specific(*entry->stats).total()
                  : model
                        .predict_general(deck->grid().num_cells(), run.pes,
                                         core::GeneralModelMode::kHomogeneous)
                        .total();
        }
      }
      out.push_back(scenario_json(
          name, point, result->failed() ? "simulation failed" : ""));
      if (config.sim_threads > 1) {
        const Scope span(&spans, "sim.oracle", "check");
        simapp::SimKrakOptions options = sim_options(config);
        options.sim_threads = 1;
        const simapp::SimKrak oracle(*deck, *entry->partition, model.machine(),
                                     setup.engine, entry->stats, options);
        tally.check_oracle(oracle, *result);
      }
    }
  }
  return out;
}

obs::Json run_validate(const Args& args, SpanLog* spans) {
  const bool warm = args.workload == "validate_warm";
  const std::vector<Campaign> campaigns = validation_campaigns();
  obs::Json out = obs::Json::object();

  std::optional<ValidateSetup> setup;
  {
    const util::Stopwatch watch;
    const Scope span(spans, "setup", "phase");
    setup.emplace(args.seed, spans);
    // Calibration partitions the medium deck through the global cache;
    // left there, its medium@64 entry would turn a Table 5 scenario
    // into a hit.
    clear_partition_caches();
    if (warm) fill_store(*setup, campaigns, args.store, spans);
    out["setup_s"] = watch.seconds();
  }

  // A warm sweep is short next to its set-up, so an untraced warm
  // process times several, each served from the store again; the peak
  // RSS is read after the first, so the extra sweeps never move it.
  const int sweeps = warm && spans == nullptr ? kWarmSweeps : 1;
  obs::Json timed = obs::Json::array();
  for (int i = 0; i < sweeps; ++i) {
    if (i > 0) clear_partition_caches();
    const SweepResult sweep = run_sweep(*setup, campaigns, spans);
    if (i == 0) {
      out["peak_rss_mib"] = peak_rss_mib();
      out["campaigns"] = campaign_json(sweep);
    }
    obs::Json section = obs::Json::object();
    section["wall_s"] = sweep.wall_s;
    section["cpu_s"] = sweep.cpu_s;
    section["scenarios"] = sweep_scenarios(campaigns, sweep);
    section["counters"] = sweep.counters;
    timed.push_back(std::move(section));
  }
  out["timed"] = std::move(timed);

  if (spans != nullptr) {
    SimTally tally;
    out["serial"] = serial_pass(*setup, campaigns, warm, tally, *spans);
    out["sim"] = tally.to_json();
  }
  if (warm) {
    core::PartitionCache::global().set_store(nullptr);
    std::filesystem::remove_all(args.store);
  }
  return out;
}

// --- replay_100k ------------------------------------------------------

/// The large_100k scenario of krak_bench: a 2048x256 paper-shaped
/// synthetic deck, RCB over 102,400 ranks, hierarchical network plus
/// shared-NIC contention, one iteration.
struct ReplayInputs {
  simapp::ComputationCostEngine engine;
  network::MachineConfig machine =
      widened(network::make_es45_qsnet(), kReplayRanks);
  mesh::InputDeck deck;
  partition::Partition partition;
  std::shared_ptr<const partition::PartitionStats> stats;
  std::uint64_t noise_seed;

  ReplayInputs(std::uint64_t seed, SpanLog* spans)
      : deck(make_deck(spans)),
        partition(make_partition(deck, seed, spans)),
        stats(make_stats(deck, partition, spans)),
        noise_seed(seed + 41) {}

  [[nodiscard]] simapp::SimKrak app(std::int32_t sim_threads) const {
    simapp::SimKrakOptions options;
    options.noise_seed = noise_seed;
    options.hierarchical_network = true;
    options.nic_contention = true;
    options.sim_threads = sim_threads;
    return simapp::SimKrak(deck, partition, machine, engine, stats, options);
  }

 private:
  static mesh::InputDeck make_deck(SpanLog* spans) {
    const Scope span(spans, "mesh.deck");
    return mesh::make_synthetic_deck(mesh::paper_synthetic_spec(2048, 256));
  }
  static partition::Partition make_partition(const mesh::InputDeck& deck,
                                             std::uint64_t seed,
                                             SpanLog* spans) {
    const Scope span(spans, "partition.rcb");
    return partition::partition_deck(deck, kReplayRanks,
                                     partition::PartitionMethod::kRcb, seed);
  }
  static std::shared_ptr<const partition::PartitionStats> make_stats(
      const mesh::InputDeck& deck, const partition::Partition& partition,
      SpanLog* spans) {
    const Scope span(spans, "partition.stats");
    return std::make_shared<const partition::PartitionStats>(deck, partition);
  }
};

obs::Json run_replay(const Args& args, SpanLog* spans) {
  obs::Json out = obs::Json::object();
  std::optional<ReplayInputs> inputs;
  {
    const util::Stopwatch watch;
    const Scope span(spans, "setup", "phase");
    inputs.emplace(args.seed, spans);
    out["setup_s"] = watch.seconds();
  }

  if (args.mode == "oracle") {
    const simapp::SimKrakResult oracle = inputs->app(1).run();
    out["replay"] = replay_outputs(oracle);
    return out;
  }

  // The timed replay is the first SimKrak::run of the process, so it
  // pays the first touch of its ~1.5 GiB, as a user's single run does.
  SimTally tally;
  std::optional<simapp::SimKrakResult> result;
  const double cpu_before = cpu_seconds();
  const util::Stopwatch watch;
  {
    const Scope scenario(spans, "large_100k", "scenario");
    const Scope span(spans, "simapp.run");
    result.emplace(tally.run(inputs->app(kShards), /*sharded=*/true));
  }
  obs::Json section = obs::Json::object();
  section["wall_s"] = watch.seconds();
  section["cpu_s"] = cpu_seconds() - cpu_before;
  out["peak_rss_mib"] = peak_rss_mib();
  section["replay"] = replay_outputs(*result);
  out["timed"] = obs::Json::array();
  out["timed"].push_back(std::move(section));
  if (spans != nullptr) {
    {
      const Scope span(spans, "sim.oracle", "check");
      tally.check_oracle(inputs->app(1), *result);
    }
    out["sim"] = tally.to_json();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::optional<SpanLog> spans;
    if (args.mode == "traced") spans.emplace();
    SpanLog* log = spans.has_value() ? &*spans : nullptr;

    obs::Json out = args.workload == "replay_100k" ? run_replay(args, log)
                                                   : run_validate(args, log);
    out["workload"] = args.workload;
    out["seed"] = static_cast<std::int64_t>(args.seed);
    out["mode"] = args.mode;
    out["host"] = host_json();
    if (spans.has_value()) {
      obs::Json metadata = obs::Json::object();
      metadata["workload"] = args.workload;
      metadata["seed"] = static_cast<std::int64_t>(args.seed);
      metadata["host"] = host_json();
      std::ofstream file(args.trace_out);
      file << spans->to_chrome(std::move(metadata)).dump(0) << "\n";
      file.close();
      util::check(static_cast<bool>(file),
                  "cannot write trace file " + args.trace_out);
    }
    std::cout << out.dump(0) << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "krakperf: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
