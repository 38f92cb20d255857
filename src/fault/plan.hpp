#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/diagnostic.hpp"

namespace krak::fault {

namespace rules {

/// Rule ids of the `krakfaults 1` parser and of check_fault_plan;
/// docs/ANALYSIS.md documents them and analyze/rules.hpp re-exports them.
///
/// Structural validity of a fault-spec file: header, known directives
/// and fields, no duplicate fields, numbers that parse into their field's
/// type (a rank past int32 or a negative seed is an error, not a wrap),
/// terminating `end` with nothing after it.
inline constexpr const char* kFaultSpecFormat = "fault-spec-format";
/// Value ranges: slowdown factor >= 1, drop probability in [0, 1),
/// bandwidth factor in (0, 1], non-negative durations, costs, retries,
/// checkpoint intervals and watchdog bounds; every number finite.
inline constexpr const char* kFaultSpecRange = "fault-spec-range";
/// Injection targets must exist: rank within the run, phase within the
/// iteration, no wildcard rank where a single rank is required.
inline constexpr const char* kFaultSpecTarget = "fault-spec-target";

}  // namespace rules

/// Wildcard rank: the injection applies to every rank.
inline constexpr std::int32_t kAllRanks = -1;

/// Persistent per-rank compute slowdown: every compute op on the rank
/// takes `factor` times as long; the excess is charged to fault_delay.
/// Models a thermally throttled or oversubscribed processor.
struct ComputeSlowdown {
  std::int32_t rank = kAllRanks;
  double factor = 1.0;  ///< >= 1; 1.25 means 25% slower
};

/// Periodic OS-noise bursts: every `period_s` of accumulated compute on
/// the rank, one burst of `duration_s` is injected (charged to
/// fault_delay). The plan seed jitters each rank's burst phase so ranks
/// do not beat in lockstep — the fine-grained-noise regime of Afzal,
/// Hager & Wellein (PAPERS.md).
struct NoiseBurst {
  std::int32_t rank = kAllRanks;
  double period_s = 1e-3;
  double duration_s = 25e-6;
};

/// One-off injected delay at an exact (rank, phase, iteration) — the
/// idle-wave experiment of "Propagation and Decay of Injected One-Off
/// Delays on Clusters". Charged to fault_delay before the phase's
/// compute finishes, so it propagates through the reduction fence.
struct OneOffDelay {
  std::int32_t rank = 0;
  std::int32_t phase = 1;      ///< 1-based Table 1 phase number
  std::int32_t iteration = 0;  ///< 0-based
  double seconds = 0.0;
};

/// Message-loss model with a bounded retransmit timeout: each
/// point-to-point payload sent by `rank` is dropped with
/// `drop_probability` per attempt; each retransmission costs
/// `retransmit_timeout_s` of extra wire delay. A payload dropped more
/// than `max_retries` times is lost for good — the watchdog turns the
/// starved receiver into a structured SimFailure. `extra_delay_s` is a
/// deterministic per-message link delay applied on top.
struct MessageFaultModel {
  std::int32_t rank = kAllRanks;  ///< sender rank
  double drop_probability = 0.0;
  double extra_delay_s = 0.0;
  double retransmit_timeout_s = 1e-4;
  std::int32_t max_retries = 3;
};

/// NIC/link bandwidth degradation on a sender: wire transfer times of
/// its messages are divided by `bandwidth_factor` (0.5 = half the
/// healthy bandwidth).
struct NicDegrade {
  std::int32_t rank = kAllRanks;
  double bandwidth_factor = 1.0;  ///< in (0, 1]
};

/// Rank crash at an exact (rank, phase, iteration) with an analytic
/// checkpoint/restart cost charged to `recovery`: restart_s plus the
/// expected rework. With a checkpoint interval I the expected rework is
/// I/2 (Daly's first-order model); without one (interval 0) the rank
/// recomputes everything since t = 0. A negative interval is an error.
struct RankCrash {
  std::int32_t rank = 0;
  std::int32_t phase = 1;
  std::int32_t iteration = 0;
  double restart_s = 0.0;
  double checkpoint_interval_s = 0.0;  ///< 0: no checkpointing; >= 0
};

/// A deterministic, seedable fault-injection plan (docs/RESILIENCE.md).
/// An empty plan is the contract for "no perturbation": SimKrak skips
/// the injector entirely and reproduces pre-fault behavior bit for bit.
struct FaultPlan {
  /// Seeds every stochastic choice (noise phase offsets, message drop
  /// draws); the same seed and plan give bit-identical runs.
  std::uint64_t seed = 0;
  std::vector<ComputeSlowdown> slowdowns;
  std::vector<NoiseBurst> noise;
  std::vector<OneOffDelay> delays;
  std::vector<MessageFaultModel> message_faults;
  std::vector<NicDegrade> degrades;
  std::vector<RankCrash> crashes;
  /// Watchdog bound on simulated time; 0 disables it, negative is an
  /// error (see sim::WatchdogConfig::max_sim_seconds).
  double max_sim_seconds = 0.0;

  [[nodiscard]] bool empty() const {
    return slowdowns.empty() && noise.empty() && delays.empty() &&
           message_faults.empty() && degrades.empty() && crashes.empty();
  }
  /// Total number of injection directives.
  [[nodiscard]] std::size_t size() const {
    return slowdowns.size() + noise.size() + delays.size() +
           message_faults.size() + degrades.size() + crashes.size();
  }
};

/// Plain-text fault-spec format, versioned like the deck and cost-table
/// formats:
///
///   krakfaults 1
///   seed 7
///   slowdown rank=2 factor=1.5
///   noise rank=* period=1e-3 duration=25e-6
///   delay rank=0 phase=4 iter=1 seconds=2e-3
///   messages rank=* drop=0.05 delay=0 rto=1e-4 retries=3
///   degrade rank=3 bandwidth=0.25
///   crash rank=1 phase=9 iter=0 restart=0.05 interval=0.4
///   watchdog max_seconds=10
///   end
///
/// `rank=*` targets every rank. Unknown directives and keys are errors
/// (no silent skipping: a typo must not quietly weaken an experiment).
/// Blank lines and `#` comments may appear anywhere; nothing else may
/// follow `end`.

/// The one range and target check of a plan, shared by InjectionEngine
/// (which throws on the first error) and the `krak_analyze --faults`
/// linter: every violation lands in `report` as a rules::kFaultSpecRange
/// or rules::kFaultSpecTarget error. Every number must be finite. `ranks`
/// bounds the rank targets and `phases_per_iteration` the phase targets;
/// 0 skips that bound (a spec linted without a run context).
void check_fault_plan(const FaultPlan& plan, std::int32_t ranks,
                      std::int32_t phases_per_iteration,
                      util::DiagnosticReport& report);

/// Serialize a plan with every double at full precision, so it reads
/// back bit for bit. Throws KrakError on stream failure.
void write_fault_plan(std::ostream& out, const FaultPlan& plan);
void save_fault_plan(const std::string& path, const FaultPlan& plan);

/// The one `krakfaults 1` parser: every structural violation lands in
/// `report` as a rules::kFaultSpecFormat error with its line, and a
/// directive with one is left out of the plan. A missing or wrong header
/// stops the parse. Value ranges are check_fault_plan's job.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view text,
                                         util::DiagnosticReport& report);

/// Parse a plan; throws KrakError("malformed fault spec: ...") naming
/// the first error parse_fault_plan reports. load_fault_plan prefixes
/// the path.
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path);

/// Daly's first-order optimal checkpoint interval sqrt(2 * C * M) for
/// checkpoint cost C and mean time between failures M (both > 0).
[[nodiscard]] double daly_optimal_interval(double checkpoint_cost_s,
                                           double mtbf_s);

/// Expected cost of recovering from one crash under a checkpoint
/// interval I: restart plus I/2 of rework; with I = 0 the rework is
/// `elapsed_s` (recompute everything).
[[nodiscard]] double expected_recovery_cost(double restart_s,
                                            double checkpoint_interval_s,
                                            double elapsed_s);

}  // namespace krak::fault
