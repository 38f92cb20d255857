#include "analyze/lint_trace.hpp"

#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "analyze/rules.hpp"
#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::analyze {

namespace {

constexpr const char* kMagic = "kraktrace";
constexpr int kVersion = 1;

const std::set<std::string>& known_kinds() {
  static const std::set<std::string> kinds = {
      "compute", "isend",     "recv",   "waitall",
      "allreduce", "broadcast", "gather", "record"};
  return kinds;
}

std::string line_component(std::size_t line) {
  return "trace/line " + std::to_string(line);
}

}  // namespace

TraceFile lint_trace(std::string_view text, DiagnosticReport& report) {
  TraceFile trace;
  bool saw_header = false;
  bool saw_ranks = false;
  bool saw_end = false;
  // Last timestamp seen per rank, for the monotonicity rule.
  std::map<std::int32_t, double> last_time;
  // Directed (from, to, tag) -> (sends, recvs) for the matching rule.
  std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>,
           std::pair<std::int64_t, std::int64_t>>
      messages;

  util::LineReader reader(text);
  util::TextLine line;
  while (!saw_end && reader.next(line)) {
    if (util::is_blank_or_comment(line.text)) continue;
    const auto error = [&](const char* rule, const std::string& message) {
      report.error(rule, line_component(line.number), message);
    };
    if (!saw_header) {
      const std::string problem =
          util::header_error(line.text, kMagic, kVersion);
      if (!problem.empty()) {
        error(rules::kTraceFormat, problem);
        return trace;
      }
      saw_header = true;
      continue;
    }
    util::Tokens tokens(line.text);
    std::string_view directive;
    (void)tokens.next(directive);  // a content line has a first token
    if (directive == "end") {
      saw_end = true;
      continue;
    }
    if (directive == "ranks") {
      std::int32_t ranks = 0;
      if (!tokens.next_number(ranks) || ranks < 1) {
        error(rules::kTraceFormat, "'ranks' needs a positive rank count");
      } else if (saw_ranks) {
        error(rules::kTraceFormat, "duplicate 'ranks' line");
      } else {
        trace.ranks = ranks;
        saw_ranks = true;
      }
      continue;
    }
    if (directive != "op") {
      error(rules::kTraceFormat,
            "unknown directive '" + std::string(directive) + "'");
      continue;
    }
    if (!saw_ranks) {
      error(rules::kTraceFormat, "'op' before the 'ranks' line");
      continue;
    }

    TraceEvent event;
    std::string_view kind;
    if (!tokens.next_number(event.rank) || !tokens.next_number(event.time_s) ||
        !tokens.next(kind)) {
      error(rules::kTraceFormat, "expected 'op <rank> <t_seconds> <kind>'");
      continue;
    }
    event.kind = kind;
    const std::string problem = util::read_key_values(
        tokens, {{"peer", &event.peer, false},
                 {"tag", &event.tag, false},
                 {"bytes", &event.bytes, false}});
    if (!problem.empty()) {
      error(rules::kTraceFormat, problem);
      continue;
    }

    // Op-kind validity.
    const bool kind_known = known_kinds().count(event.kind) != 0;
    if (!kind_known) {
      error(rules::kTraceOpKind, "unknown op kind '" + event.kind + "'");
    }

    // Rank / peer bounds.
    bool rank_ok = event.rank >= 0 && event.rank < trace.ranks;
    if (!rank_ok) {
      error(rules::kTraceRankBounds, "rank " + std::to_string(event.rank) +
                                         " outside [0, " +
                                         std::to_string(trace.ranks) + ")");
    }
    const bool point_to_point = event.kind == "isend" || event.kind == "recv";
    if (point_to_point) {
      if (event.peer < 0) {
        error(rules::kTraceFormat, "'" + event.kind + "' needs a peer=P field");
        rank_ok = false;
      } else if (event.peer >= trace.ranks) {
        error(rules::kTraceRankBounds,
              "peer " + std::to_string(event.peer) + " outside [0, " +
                  std::to_string(trace.ranks) + ")");
        rank_ok = false;
      }
    }

    // Per-rank timestamp monotonicity (only meaningful in-bounds).
    if (event.rank >= 0 && event.rank < trace.ranks) {
      const auto it = last_time.find(event.rank);
      if (it != last_time.end() && event.time_s < it->second) {
        std::ostringstream os;
        os << "rank " << event.rank << " time went backwards: " << event.time_s
           << " after " << it->second;
        error(rules::kTraceMonotoneTime, os.str());
      }
      last_time[event.rank] =
          std::max(event.time_s,
                   it != last_time.end() ? it->second : event.time_s);
    }

    if (point_to_point && rank_ok) {
      if (event.kind == "isend") {
        ++messages[{event.rank, event.peer, event.tag}].first;
      } else {
        ++messages[{event.peer, event.rank, event.tag}].second;
      }
    }
    trace.events.push_back(std::move(event));
  }

  if (!saw_header) {
    report.error(rules::kTraceFormat, "trace", "empty input, missing header");
    return trace;
  }
  if (!saw_end) {
    report.error(rules::kTraceFormat, "trace",
                 "missing 'end' (file truncated?)");
  }
  if (!saw_ranks && saw_end) {
    report.error(rules::kTraceFormat, "trace", "missing 'ranks' line");
  }

  for (const auto& [key, counts] : messages) {
    if (counts.first == counts.second) continue;
    const auto [from, to, tag] = key;
    std::ostringstream os;
    os << counts.first << " send(s) vs " << counts.second
       << " recv(s) for rank " << from << " -> rank " << to << ", tag " << tag;
    report.error(rules::kTraceSendRecvMatch,
                 "trace/" + std::to_string(from) + "->" + std::to_string(to),
                 os.str());
  }
  return trace;
}

DiagnosticReport lint_trace_file(const std::string& path) {
  return lint_text_file(path, rules::kTraceFormat, "trace",
                        [](std::string_view text) {
                          DiagnosticReport report;
                          (void)lint_trace(text, report);
                          return report;
                        });
}

std::string corrupted_trace_text() {
  // One violation per rule: an op before fixing... see the inline notes.
  return "kraktrace 1\n"
         "ranks 2\n"
         "# rank 1's clock runs backwards        -> trace-monotone-time\n"
         "op 1 2.0 compute\n"
         "op 1 1.0 compute\n"
         "# rank 7 does not exist in a 2-rank run -> trace-rank-bounds\n"
         "op 7 0.0 compute\n"
         "# 'teleport' is not an op kind          -> trace-op-kind\n"
         "op 0 0.5 teleport\n"
         "# send with no matching recv            -> trace-send-recv-match\n"
         "op 0 1.0 isend peer=1 tag=42 bytes=64\n"
         "# malformed op record                   -> trace-format\n"
         "op 0 oops compute\n"
         "end\n";
}

}  // namespace krak::analyze
