#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace krak::fault {
namespace {

TEST(FaultPlan, DefaultPlanIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
}

FaultPlan make_full_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.slowdowns.push_back({2, 1.5});
  plan.noise.push_back({kAllRanks, 1e-3, 25e-6});
  OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 4;
  delay.iteration = 1;
  delay.seconds = 2e-3;
  plan.delays.push_back(delay);
  MessageFaultModel messages;
  messages.rank = kAllRanks;
  messages.drop_probability = 0.05;
  messages.extra_delay_s = 1e-6;
  messages.retransmit_timeout_s = 2e-4;
  messages.max_retries = 5;
  plan.message_faults.push_back(messages);
  plan.degrades.push_back({3, 0.25});
  RankCrash crash;
  crash.rank = 1;
  crash.phase = 9;
  crash.iteration = 0;
  crash.restart_s = 0.05;
  crash.checkpoint_interval_s = 0.4;
  plan.crashes.push_back(crash);
  plan.max_sim_seconds = 10.0;
  return plan;
}

TEST(FaultPlan, RoundTripPreservesEveryDirective) {
  const FaultPlan original = make_full_plan();
  std::stringstream stream;
  write_fault_plan(stream, original);
  const FaultPlan parsed = parse_fault_plan(stream);

  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.size(), original.size());
  ASSERT_EQ(parsed.slowdowns.size(), 1u);
  EXPECT_EQ(parsed.slowdowns[0].rank, 2);
  EXPECT_DOUBLE_EQ(parsed.slowdowns[0].factor, 1.5);
  ASSERT_EQ(parsed.noise.size(), 1u);
  EXPECT_EQ(parsed.noise[0].rank, kAllRanks);
  EXPECT_DOUBLE_EQ(parsed.noise[0].period_s, 1e-3);
  EXPECT_DOUBLE_EQ(parsed.noise[0].duration_s, 25e-6);
  ASSERT_EQ(parsed.delays.size(), 1u);
  EXPECT_EQ(parsed.delays[0].rank, 0);
  EXPECT_EQ(parsed.delays[0].phase, 4);
  EXPECT_EQ(parsed.delays[0].iteration, 1);
  EXPECT_DOUBLE_EQ(parsed.delays[0].seconds, 2e-3);
  ASSERT_EQ(parsed.message_faults.size(), 1u);
  EXPECT_EQ(parsed.message_faults[0].rank, kAllRanks);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].drop_probability, 0.05);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].extra_delay_s, 1e-6);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].retransmit_timeout_s, 2e-4);
  EXPECT_EQ(parsed.message_faults[0].max_retries, 5);
  ASSERT_EQ(parsed.degrades.size(), 1u);
  EXPECT_EQ(parsed.degrades[0].rank, 3);
  EXPECT_DOUBLE_EQ(parsed.degrades[0].bandwidth_factor, 0.25);
  ASSERT_EQ(parsed.crashes.size(), 1u);
  EXPECT_EQ(parsed.crashes[0].rank, 1);
  EXPECT_EQ(parsed.crashes[0].phase, 9);
  EXPECT_EQ(parsed.crashes[0].iteration, 0);
  EXPECT_DOUBLE_EQ(parsed.crashes[0].restart_s, 0.05);
  EXPECT_DOUBLE_EQ(parsed.crashes[0].checkpoint_interval_s, 0.4);
  EXPECT_DOUBLE_EQ(parsed.max_sim_seconds, 10.0);
}

TEST(FaultPlan, RoundTripIsExactForNonShortDoubles) {
  FaultPlan original;
  original.slowdowns.push_back({0, 1.23456789});
  original.noise.push_back({1, 1.0 / 3.0, 2.0 / 7.0 * 1e-5});
  OneOffDelay delay;
  delay.seconds = 0.1 + 0.2;
  original.delays.push_back(delay);
  MessageFaultModel messages;
  messages.drop_probability = 0.123456789012345;
  messages.extra_delay_s = 1e-7 / 3.0;
  messages.retransmit_timeout_s = 9.87654321e-5;
  original.message_faults.push_back(messages);
  original.degrades.push_back({2, 0.987654321});
  RankCrash crash;
  crash.restart_s = 0.0123456789;
  crash.checkpoint_interval_s = 123.456789012;
  original.crashes.push_back(crash);
  original.max_sim_seconds = 98.7654321;
  std::stringstream stream;
  write_fault_plan(stream, original);
  const FaultPlan parsed = parse_fault_plan(stream);
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.slowdowns[0].factor, original.slowdowns[0].factor);
  EXPECT_EQ(parsed.noise[0].period_s, original.noise[0].period_s);
  EXPECT_EQ(parsed.noise[0].duration_s, original.noise[0].duration_s);
  EXPECT_EQ(parsed.delays[0].seconds, original.delays[0].seconds);
  EXPECT_EQ(parsed.message_faults[0].drop_probability,
            original.message_faults[0].drop_probability);
  EXPECT_EQ(parsed.message_faults[0].extra_delay_s,
            original.message_faults[0].extra_delay_s);
  EXPECT_EQ(parsed.message_faults[0].retransmit_timeout_s,
            original.message_faults[0].retransmit_timeout_s);
  EXPECT_EQ(parsed.degrades[0].bandwidth_factor,
            original.degrades[0].bandwidth_factor);
  EXPECT_EQ(parsed.crashes[0].restart_s, original.crashes[0].restart_s);
  EXPECT_EQ(parsed.crashes[0].checkpoint_interval_s,
            original.crashes[0].checkpoint_interval_s);
  EXPECT_EQ(parsed.max_sim_seconds, original.max_sim_seconds);
}

TEST(FaultPlan, MessageDefaultsApplyWhenKeysOmitted) {
  std::istringstream in(
      "krakfaults 1\n"
      "messages rank=* drop=0.1\n"
      "end\n");
  const FaultPlan plan = parse_fault_plan(in);
  ASSERT_EQ(plan.message_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.message_faults[0].extra_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(plan.message_faults[0].retransmit_timeout_s, 1e-4);
  EXPECT_EQ(plan.message_faults[0].max_retries, 3);
}

TEST(FaultPlan, CommentsAndBlankLinesAreIgnored) {
  std::istringstream in(
      "krakfaults 1\n"
      "# a comment\n"
      "\n"
      "seed 9\n"
      "slowdown rank=0 factor=2\n"
      "end\n");
  const FaultPlan plan = parse_fault_plan(in);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.slowdowns.size(), 1u);
}

void expect_malformed(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)parse_fault_plan(in);
    FAIL() << "expected KrakError for:\n" << text;
  } catch (const util::KrakError& error) {
    EXPECT_NE(std::string(error.what()).find("malformed fault spec"),
              std::string::npos)
        << error.what();
  }
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  expect_malformed("krakfaults 2\nend\n");  // unsupported version
  expect_malformed("krakfaults 1\nteleport rank=0\nend\n");  // unknown directive
  expect_malformed("krakfaults 1\nslowdown factor=1.5\nend\n");  // missing rank
  expect_malformed(
      "krakfaults 1\nslowdown rank=0 rank=1 factor=2\nend\n");  // duplicate key
  expect_malformed(
      "krakfaults 1\nslowdown rank=0 factor=2 color=red\nend\n");  // unknown key
  expect_malformed("krakfaults 1\nslowdown rank=0 factor=2\n");  // missing end
  expect_malformed(
      "krakfaults 1\nslowdown rank=0 factor=nan\nend\n");  // not finite
  expect_malformed("krakfaults 1\nend\nseed 3\n");  // content after end
}

TEST(FaultPlan, ParseRejectsIntegersOutsideTheirType) {
  // Each of these used to be read as int64 (or into uint64 with
  // wrap-around) and cast: rank 2^32 silently targeted rank 0.
  expect_malformed(
      "krakfaults 1\nslowdown rank=4294967296 factor=2\nend\n");
  expect_malformed(
      "krakfaults 1\ndelay rank=0 phase=4294967297 iter=0 seconds=1\nend\n");
  expect_malformed(
      "krakfaults 1\ndelay rank=0 phase=1 iter=2147483648 seconds=1\nend\n");
  expect_malformed(
      "krakfaults 1\nmessages rank=* drop=0.1 retries=4294967299\nend\n");
  expect_malformed("krakfaults 1\nseed -1\nend\n");
  expect_malformed("krakfaults 1\nseed 18446744073709551616\nend\n");
  // The largest values of each type still parse.
  std::istringstream in(
      "krakfaults 1\nseed 18446744073709551615\n"
      "delay rank=2147483647 phase=1 iter=2147483647 seconds=1\nend\n");
  const FaultPlan plan = parse_fault_plan(in);
  EXPECT_EQ(plan.seed, 18446744073709551615ull);
  ASSERT_EQ(plan.delays.size(), 1u);
  EXPECT_EQ(plan.delays[0].rank, 2147483647);
}

TEST(FaultPlan, ParserReportsEveryStructuralError) {
  util::DiagnosticReport report;
  const FaultPlan plan = parse_fault_plan(
      "krakfaults 1\n"
      "slowdown rank=0 factor=2 color=red\n"
      "slowdown rank=1 factor=1.5\n"
      "noise rank=x period=1 duration=0\n"
      "end\n",
      report);
  EXPECT_EQ(report.error_count(), 2u) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecFormat));
  ASSERT_EQ(plan.slowdowns.size(), 1u);  // only the clean directive
  EXPECT_EQ(plan.slowdowns[0].rank, 1);
}

TEST(FaultPlan, CheckRejectsNonFiniteAndNegativeValues) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, std::nan("")});
  plan.degrades.push_back({0, std::nan("")});
  NoiseBurst noise;
  noise.period_s = std::numeric_limits<double>::infinity();
  plan.noise.push_back(noise);
  RankCrash crash;
  crash.checkpoint_interval_s = -1.0;
  plan.crashes.push_back(crash);
  plan.max_sim_seconds = -1.0;
  util::DiagnosticReport report;
  check_fault_plan(plan, /*ranks=*/4, /*phases_per_iteration=*/15, report);
  EXPECT_EQ(report.error_count(), 5u) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kFaultSpecRange));
}

TEST(FaultPlan, LoadNamesMissingPathAndCause) {
  const std::string path = "/nonexistent/dir/plan.krakfaults";
  try {
    (void)load_fault_plan(path);
    FAIL() << "expected KrakError";
  } catch (const util::KrakError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(FaultPlan, SaveAndLoadThroughDisk) {
  const std::string path = ::testing::TempDir() + "/roundtrip.krakfaults";
  const FaultPlan original = make_full_plan();
  save_fault_plan(path, original);
  const FaultPlan loaded = load_fault_plan(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.seed, original.seed);
}

TEST(DalyModel, OptimalIntervalMatchesFirstOrderFormula) {
  // sqrt(2 * C * M) with C = 5 s, M = 3600 s.
  EXPECT_NEAR(daly_optimal_interval(5.0, 3600.0), std::sqrt(36000.0), 1e-12);
}

TEST(DalyModel, RecoveryCostUsesHalfIntervalWhenCheckpointing) {
  EXPECT_DOUBLE_EQ(expected_recovery_cost(30.0, 200.0, 1800.0), 30.0 + 100.0);
}

TEST(DalyModel, RecoveryCostReplaysElapsedWithoutCheckpoints) {
  EXPECT_DOUBLE_EQ(expected_recovery_cost(30.0, 0.0, 1800.0), 30.0 + 1800.0);
}

}  // namespace
}  // namespace krak::fault
