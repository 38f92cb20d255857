#include "analyze/lint_faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/rules.hpp"
#include "fault/plan.hpp"

namespace krak::analyze {
namespace {

TEST(LintFaults, EmptyPlanIsInformationalOnly) {
  const DiagnosticReport report = lint_faults(fault::FaultPlan{});
  EXPECT_FALSE(report.has_errors()) << report.to_text();
}

TEST(LintFaults, ValidPlanPassesWithRunContext) {
  fault::FaultPlan plan;
  plan.slowdowns.push_back({2, 1.5});
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.01;
  plan.delays.push_back(delay);
  const DiagnosticReport report =
      lint_faults(plan, /*ranks=*/8, /*phases_per_iteration=*/15);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
}

TEST(LintFaults, RangeViolationsAreReported) {
  fault::FaultPlan plan;
  plan.slowdowns.push_back({0, 0.5});               // factor < 1
  fault::MessageFaultModel model;
  model.drop_probability = 1.5;                     // outside [0, 1)
  plan.message_faults.push_back(model);
  plan.degrades.push_back({0, 2.0});                // bandwidth > 1
  const DiagnosticReport report = lint_faults(plan);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange)) << report.to_text();
  EXPECT_GE(report.error_count(), 3u);
}

TEST(LintFaults, NanValuesAreRangeErrors) {
  fault::FaultPlan plan;
  plan.slowdowns.push_back({0, std::nan("")});
  fault::NoiseBurst noise;
  noise.period_s = std::nan("");
  plan.noise.push_back(noise);
  const DiagnosticReport report = lint_faults(plan);
  EXPECT_EQ(report.error_count(), 2u) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange)) << report.to_text();
}

TEST(LintFaults, OverflowingRankIsFormatError) {
  const std::string path = ::testing::TempDir() + "/overflow.krakfaults";
  {
    std::ofstream out(path);
    out << "krakfaults 1\nslowdown rank=4294967296 factor=2\nend\n";
  }
  const DiagnosticReport report = lint_fault_file(path, /*ranks=*/4);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecFormat)) << report.to_text();
}

TEST(LintFaults, TargetBoundsCheckedOnlyWithRunContext) {
  fault::FaultPlan plan;
  fault::OneOffDelay delay;
  delay.rank = 12;
  delay.phase = 99;
  plan.delays.push_back(delay);
  // Without a run context the rank/phase bound checks are skipped...
  EXPECT_FALSE(
      lint_faults(plan).has_rule(rules::kFaultSpecTarget));
  // ...with one, a 12th rank or a 99th phase does not exist.
  const DiagnosticReport report = lint_faults(plan, 8, 15);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecTarget)) << report.to_text();
}

TEST(LintFaults, WildcardRankRejectedForDelaysAndCrashes) {
  fault::FaultPlan plan;
  fault::RankCrash crash;
  crash.rank = fault::kAllRanks;
  plan.crashes.push_back(crash);
  const DiagnosticReport report = lint_faults(plan);
  EXPECT_TRUE(report.has_errors());
  bool explained = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find("rank=*") != std::string::npos) {
      explained = true;
    }
  }
  EXPECT_TRUE(explained) << report.to_text();
}

TEST(LintFaults, CorruptedFixtureTriggersRangeAndTargetRules) {
  std::istringstream in(corrupted_fault_spec_text());
  const fault::FaultPlan plan = fault::parse_fault_plan(in);
  const DiagnosticReport report =
      lint_faults(plan, /*ranks=*/8, /*phases_per_iteration=*/15);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecTarget)) << report.to_text();
}

TEST(LintFaults, UnreadableFileIsFormatError) {
  const std::string path = "/nonexistent/plan.krakfaults";
  const DiagnosticReport report = lint_fault_file(path);
  ASSERT_TRUE(report.has_rule(rules::kFaultSpecFormat)) << report.to_text();
  bool named = false;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.message.find(path) != std::string::npos ||
        diagnostic.component.find(path) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << report.to_text();
}

TEST(LintFaults, MalformedSpecFileIsFormatError) {
  const std::string path = ::testing::TempDir() + "/malformed.krakfaults";
  {
    std::ofstream out(path);
    out << "krakfaults 1\nteleport rank=0\nend\n";
  }
  const DiagnosticReport report = lint_fault_file(path);
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecFormat)) << report.to_text();
}

}  // namespace
}  // namespace krak::analyze
