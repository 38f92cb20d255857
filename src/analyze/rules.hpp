#pragma once

#include "core/campaign_journal.hpp"
#include "core/partition_store.hpp"
#include "fault/plan.hpp"
#include "mesh/synthetic.hpp"

namespace krak::analyze::rules {

/// Stable rule identifiers emitted by the model linter. Each id names
/// one invariant of the paper's model inputs; docs/ANALYSIS.md documents
/// them in detail. Tests and CI grep for these strings — treat them as
/// API.

// --- piecewise cost curves (Section 3, Equation 2) -----------------------

/// Total subgrid cost n * T(phase, material, n) must be non-decreasing
/// in n: more cells can never be cheaper in total.
inline constexpr const char* kCurveTotalMonotone = "curve-total-monotone";
/// A per-cell cost curve should have at most one knee (one significant
/// local maximum); several knees mean noisy or mis-merged calibration.
inline constexpr const char* kCurveKnee = "curve-knee-consistency";
/// Per-cell costs must be positive and finite.
inline constexpr const char* kCurvePositive = "curve-positive";
/// Every (phase, material) pair the model can be asked about needs
/// samples; fewer than two means no interpolation, only a constant.
inline constexpr const char* kCurveCoverage = "curve-sample-coverage";

// --- partition / subdomain statistics (Sections 4.1-4.2) -----------------

/// Sum of per-PE cell counts must equal the deck's cell count.
inline constexpr const char* kCellConservation = "cell-conservation";
/// Per-material cell counts summed over PEs must equal the deck's
/// per-material counts.
inline constexpr const char* kMaterialConservation = "material-conservation";
/// A PE with zero cells wastes a processor and breaks per-PE averages.
inline constexpr const char* kEmptySubdomain = "empty-subdomain";
/// Ghost nodes on a boundary obey the faces+1 rule: a boundary of f
/// shared faces has between f+1 (one contiguous segment) and 2f
/// (f disjoint segments) ghost nodes.
inline constexpr const char* kGhostFace = "ghost-face-consistency";
/// The per-group face counts of a boundary must sum to its total faces.
inline constexpr const char* kFaceGroupSum = "face-group-sum";
/// Boundaries must be symmetric: if pe a lists neighbor b, b must list
/// a with the same face count and mirrored ghost-node ownership.
inline constexpr const char* kBoundarySymmetry = "boundary-symmetry";

// --- machine description / collectives (Section 4.3) ---------------------

/// Node count, PEs per node, and compute speedup must be positive, and
/// the run must fit on the machine.
inline constexpr const char* kMachineShape = "machine-shape";
/// The binary collective tree must cover all PEs: depth d with
/// 2^(d-1) < P <= 2^d; non-power-of-two P is only approximated by the
/// paper's ceil(log2 P) trees.
inline constexpr const char* kTreeCoverage = "tree-coverage";
/// Unit/dimension checks on Tmsg(S) = L(S) + S*TB(S): non-negative
/// terms, Tmsg non-decreasing in S, latency in a physically plausible
/// range, and TB not confused with a total time.
inline constexpr const char* kMessageUnits = "message-cost-units";

// --- input deck (Section 2.1) --------------------------------------------

/// Detonator must lie inside the grid and on a high-explosive cell;
/// a deck with a detonator but no HE gas cannot detonate.
inline constexpr const char* kDeckDetonator = "deck-detonator";
/// Deck shape sanity: materials present, aspect ratio, cell counts.
inline constexpr const char* kDeckShape = "deck-shape";

// --- run options ----------------------------------------------------------

/// SimKrak option ranges (iterations >= 1, etc.).
inline constexpr const char* kOptionsRange = "options-range";

// --- event-trace files (kraktrace 1, lint_trace.hpp) ----------------------

/// Structural validity of a trace file: magic/version header, `ranks`
/// line, well-formed `op` records, terminating `end`.
inline constexpr const char* kTraceFormat = "trace-format";
/// Per-rank timestamps must be non-decreasing: a rank's events are its
/// local history and simulated clocks never run backwards.
inline constexpr const char* kTraceMonotoneTime = "trace-monotone-time";
/// Every rank and peer must lie in [0, ranks) declared by the header.
inline constexpr const char* kTraceRankBounds = "trace-rank-bounds";
/// Op kinds are a closed set (compute/isend/recv/waitall/allreduce/
/// broadcast/gather/record).
inline constexpr const char* kTraceOpKind = "trace-op-kind";
/// Every directed (from, to, tag) send count must equal the matching
/// receive count, or the replayed run would deadlock or drop payloads.
inline constexpr const char* kTraceSendRecvMatch = "trace-send-recv-match";

// --- krakpart, krakjournal and kraksynth files ---------------------------

// Each of these formats has one parser, in the module that owns the
// format, and its rule ids live there (the comments there say what each
// checks); they are re-exported here so the linters and their tests
// name every rule through this header.
using core::rules::kPartitionStoreBounds;
using core::rules::kPartitionStoreChecksum;
using core::rules::kPartitionStoreFormat;
using core::rules::kPartitionStoreOffsets;

using core::rules::kJournalChecksum;
using core::rules::kJournalFormat;
using core::rules::kJournalTornTail;
/// Per-scenario record order must follow the writer's state machine:
/// attempt numbers strictly increase, `done`/`failed` close the attempt
/// the latest `running` record opened, and no record may follow a
/// terminal `done` or `quarantined` state. Linter-only: recovery
/// replays records without judging their order.
inline constexpr const char* kJournalStateMachine = "journal-state-machine";

using mesh::rules::kSyntheticFormat;
using mesh::rules::kSyntheticMix;
using mesh::rules::kSyntheticShape;

// --- fault-spec files (krakfaults 1, fault/plan.hpp) ----------------------

// One parser (fault::parse_fault_plan) and one range/target check
// (fault::check_fault_plan), both in fault/; the ids live there.
using fault::rules::kFaultSpecFormat;
using fault::rules::kFaultSpecRange;
using fault::rules::kFaultSpecTarget;

}  // namespace krak::analyze::rules
