#include "analyze/lint_trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "analyze/rules.hpp"

namespace krak::analyze {
namespace {

DiagnosticReport lint_text(const std::string& text, TraceFile* parsed = nullptr) {
  DiagnosticReport report;
  TraceFile file = lint_trace(text, report);
  if (parsed != nullptr) *parsed = std::move(file);
  return report;
}

TEST(LintTrace, CleanTraceHasNoFindings) {
  TraceFile parsed;
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 2\n"
      "# a matched exchange followed by a reduction\n"
      "op 0 0.0 compute\n"
      "op 0 1.0 isend peer=1 tag=3 bytes=4096\n"
      "op 1 1.5 recv peer=0 tag=3 bytes=4096\n"
      "op 0 2.0 allreduce bytes=8\n"
      "op 1 2.0 allreduce bytes=8\n"
      "end\n",
      &parsed);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(parsed.ranks, 2);
  EXPECT_EQ(parsed.events.size(), 5u);
  EXPECT_EQ(parsed.events[1].peer, 1);
  EXPECT_DOUBLE_EQ(parsed.events[1].bytes, 4096.0);
}

TEST(LintTrace, BackwardsTimestampIsMonotoneViolation) {
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 1\n"
      "op 0 2.0 compute\n"
      "op 0 1.0 compute\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kTraceMonotoneTime)) << report.to_text();
}

TEST(LintTrace, RankOutOfDeclaredBoundsIsFlagged) {
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 2\n"
      "op 5 0.0 compute\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kTraceRankBounds)) << report.to_text();
}

TEST(LintTrace, UnknownOpKindIsFlagged) {
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 1\n"
      "op 0 0.0 teleport\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kTraceOpKind)) << report.to_text();
}

TEST(LintTrace, UnmatchedSendIsFlagged) {
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 2\n"
      "op 0 0.0 isend peer=1 tag=4 bytes=64\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kTraceSendRecvMatch)) << report.to_text();
}

TEST(LintTrace, TruncatedFileIsFormatError) {
  const DiagnosticReport report = lint_text(
      "kraktrace 1\n"
      "ranks 1\n"
      "op 0 0.0 compute\n");  // no `end`
  EXPECT_TRUE(report.has_rule(rules::kTraceFormat)) << report.to_text();
}

TEST(LintTrace, CorruptedFixtureTriggersEveryTraceRule) {
  const DiagnosticReport report = lint_text(corrupted_trace_text());
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kTraceFormat)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kTraceMonotoneTime)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kTraceRankBounds)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kTraceOpKind)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kTraceSendRecvMatch)) << report.to_text();
}

TEST(LintTrace, MissingFileNamesPathAndCause) {
  const std::string path = "/nonexistent/trace.kraktrace";
  const DiagnosticReport report = lint_trace_file(path);
  ASSERT_TRUE(report.has_rule(rules::kTraceFormat));
  bool named = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find(path) != std::string::npos ||
        diagnostic.component.find(path) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << report.to_text();
}

}  // namespace
}  // namespace krak::analyze
