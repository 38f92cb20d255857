#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/findings.hpp"

namespace krak::analyze {

/// One event of a `kraktrace 1` file.
struct TraceEvent {
  std::int32_t rank = 0;
  double time_s = 0.0;
  std::string kind;
  std::int32_t peer = -1;  ///< isend destination / recv source, else -1
  std::int32_t tag = 0;
  double bytes = 0.0;
};

/// A parsed trace file: the declared rank count plus its events in file
/// order. Returned by parse_trace so drivers can inspect what the
/// linter saw.
struct TraceFile {
  std::int32_t ranks = 0;
  std::vector<TraceEvent> events;
};

/// The `kraktrace 1` event-trace file format (docs/RESILIENCE.md):
///
///   kraktrace 1
///   ranks N
///   op <rank> <t_seconds> <kind> [peer=P] [tag=T] [bytes=B]
///   ...
///   end
///
/// Kinds mirror sim::OpKind: compute, isend, recv, waitall, allreduce,
/// broadcast, gather, record. Blank lines and `#` comments may appear
/// anywhere; nothing after `end` is read.
///
/// Lint the trace in `text`, accumulating findings into `report`:
/// structural problems (rules::kTraceFormat), per-rank timestamp
/// monotonicity (rules::kTraceMonotoneTime), rank/peer bounds
/// (rules::kTraceRankBounds), op-kind validity (rules::kTraceOpKind)
/// and matched directed send/recv counts per (from, to, tag)
/// (rules::kTraceSendRecvMatch). Returns the parsed file (events that
/// failed to parse are skipped).
TraceFile lint_trace(std::string_view text, DiagnosticReport& report);

/// Open `path` and lint it; a file that cannot be opened is a
/// rules::kTraceFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_trace_file(const std::string& path);

/// A deliberately corrupted trace exercising every trace rule at least
/// once (the analyze fixture idiom; see make_corrupted_fixture).
[[nodiscard]] std::string corrupted_trace_text();

}  // namespace krak::analyze
