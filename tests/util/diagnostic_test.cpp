#include "util/diagnostic.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace krak::util {
namespace {

DiagnosticReport make_mixed_report() {
  DiagnosticReport report;
  report.info("rule-c", "comp", "an info note");
  report.error("rule-a", "comp", "first error");
  report.warning("rule-b", "comp", "a warning");
  report.error("rule-a", "other", "second error");
  return report;
}

TEST(DiagnosticReport, CountsBySeverity) {
  const DiagnosticReport report = make_mixed_report();
  EXPECT_EQ(report.size(), 4u);
  EXPECT_EQ(report.error_count(), 2u);
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_EQ(report.count(Severity::kInfo), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(report.empty());
}

TEST(DiagnosticReport, EmptyReportHasNoErrors) {
  const DiagnosticReport report;
  EXPECT_TRUE(report.empty());
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.distinct_rule_count(), 0u);
}

TEST(DiagnosticReport, SortedRanksErrorsFirstAndIsStable) {
  const auto sorted = make_mixed_report().sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].severity, Severity::kError);
  EXPECT_EQ(sorted[0].message, "first error");  // insertion order kept
  EXPECT_EQ(sorted[1].severity, Severity::kError);
  EXPECT_EQ(sorted[1].message, "second error");
  EXPECT_EQ(sorted[2].severity, Severity::kWarning);
  EXPECT_EQ(sorted[3].severity, Severity::kInfo);
}

TEST(DiagnosticReport, DistinctRuleCountFiltersBySeverity) {
  const DiagnosticReport report = make_mixed_report();
  EXPECT_EQ(report.distinct_rule_count(), 3u);
  EXPECT_EQ(report.distinct_rule_count(Severity::kWarning), 2u);
  EXPECT_EQ(report.distinct_rule_count(Severity::kError), 1u);
}

TEST(DiagnosticReport, HasRule) {
  const DiagnosticReport report = make_mixed_report();
  EXPECT_TRUE(report.has_rule("rule-a"));
  EXPECT_TRUE(report.has_rule("rule-c"));
  EXPECT_FALSE(report.has_rule("rule-z"));
}

TEST(DiagnosticReport, MergeAppendsEverything) {
  DiagnosticReport target = make_mixed_report();
  DiagnosticReport extra;
  extra.error("rule-d", "comp", "merged");
  target.merge(extra);
  EXPECT_EQ(target.size(), 5u);
  EXPECT_TRUE(target.has_rule("rule-d"));
}

TEST(DiagnosticReport, ToTextEndsWithSummaryLine) {
  const std::string text = make_mixed_report().to_text();
  EXPECT_NE(text.find("model lint: 2 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);
  // Severity-ranked: the first line is an error.
  EXPECT_EQ(text.rfind("error", 0), 0u);
}

TEST(DiagnosticReport, ToCsvHasHeaderAndEscapesCommas) {
  DiagnosticReport report;
  report.error("rule", "comp,with,commas", "msg \"quoted\"");
  const std::string csv = report.to_csv();
  EXPECT_EQ(csv.rfind("severity,rule,component,message\n", 0), 0u);
  EXPECT_NE(csv.find("\"comp,with,commas\""), std::string::npos);
  EXPECT_NE(csv.find("\"msg \"\"quoted\"\"\""), std::string::npos);
}

TEST(DiagnosticReport, StreamOperatorMatchesToText) {
  const DiagnosticReport report = make_mixed_report();
  std::ostringstream os;
  os << report;
  EXPECT_EQ(os.str(), report.to_text());
}

TEST(Severity, Names) {
  EXPECT_EQ(severity_name(Severity::kError), "error");
  EXPECT_EQ(severity_name(Severity::kWarning), "warning");
  EXPECT_EQ(severity_name(Severity::kInfo), "info");
}

}  // namespace
}  // namespace krak::util
