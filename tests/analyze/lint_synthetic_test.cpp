#include "analyze/lint_synthetic.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "analyze/rules.hpp"
#include "mesh/synthetic.hpp"

namespace krak::analyze {
namespace {

namespace fs = std::filesystem;

TEST(LintSynthetic, CorruptedFixtureTripsEverySyntheticRule) {
  const std::string text = corrupted_synthetic_text();
  const DiagnosticReport report = lint_synthetic(text);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kSyntheticMix)) << report.to_text();
  EXPECT_TRUE(report.has_rule(rules::kSyntheticShape)) << report.to_text();
  DiagnosticReport parsed_report;
  EXPECT_EQ(mesh::parse_synthetic(text, parsed_report).name,
            "corrupted-synthetic");
}

TEST(LintSynthetic, WriterOutputLintsClean) {
  // A spec the production writer produced must have nothing to say —
  // including the large-deck shape the 100k-rank benches use.
  std::stringstream stream;
  mesh::write_synthetic(stream, mesh::paper_synthetic_spec(1024, 128));
  const DiagnosticReport report = lint_synthetic(stream.str());
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(report.warning_count(), 0u) << report.to_text();
  DiagnosticReport parsed_report;
  const mesh::SyntheticSpec spec =
      mesh::parse_synthetic(stream.str(), parsed_report);
  EXPECT_EQ(spec.name, "synthetic-1024x128");
  EXPECT_EQ(spec.nx, 1024);
  EXPECT_EQ(spec.ny, 128);
  EXPECT_EQ(spec.layers.size(), 4u);
  EXPECT_LT(spec.detonator.y, 0.0);  // paper placement is implied
}

TEST(LintSynthetic, EmptyInputIsAFormatError) {
  const DiagnosticReport report = lint_synthetic("");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat));
}

TEST(LintSynthetic, WrongMagicIsAFormatError) {
  const DiagnosticReport report = lint_synthetic("krakdeck 1\nend\n");
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat));
}

TEST(LintSynthetic, NamesEveryViolationInOnePass) {
  // Unlike read_synthetic (first-throw), the linter reports all of a
  // spec's problems so a hand-written file is fixable in one pass.
  const DiagnosticReport report = lint_synthetic(
      "kraksynth 1\n"
      "grid 2 0\n"
      "layer 12 2.5\n"
      "layer 0 0.25\n"
      "layer 1 0.25\n"
      "bogus\n");
  EXPECT_TRUE(report.has_rule(rules::kSyntheticShape));  // ny == 0
  EXPECT_TRUE(report.has_rule(rules::kSyntheticMix));    // index, fraction, sum
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat));  // bogus key, no end
  EXPECT_GE(report.error_count(), 5u) << report.to_text();
}

TEST(LintSynthetic, MoreLayersThanColumnsIsAMixError) {
  const DiagnosticReport report = lint_synthetic(
      "kraksynth 1\n"
      "grid 2 8\n"
      "layer 0 0.3\n"
      "layer 1 0.3\n"
      "layer 2 0.4\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kSyntheticMix)) << report.to_text();
}

TEST(LintSynthetic, DetonatorOutsideTheGridIsAShapeError) {
  const DiagnosticReport report = lint_synthetic(
      "kraksynth 1\n"
      "grid 64 32\n"
      "layer 0 1.0\n"
      "detonator 65 8\n"
      "end\n");
  EXPECT_TRUE(report.has_rule(rules::kSyntheticShape)) << report.to_text();
}

TEST(LintSynthetic, ContentAfterEndIsAFormatError) {
  const DiagnosticReport report = lint_synthetic(
      "kraksynth 1\n"
      "grid 8 8\n"
      "layer 0 1.0\n"
      "end\n"
      "layer 1 1.0\n");
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat)) << report.to_text();
}

TEST(LintSynthetic, MissingFileIsAFormatError) {
  const DiagnosticReport report =
      lint_synthetic_file("/nonexistent/never.kraksynth");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule(rules::kSyntheticFormat));
}

TEST(LintSynthetic, SavedSpecRoundTripsThroughTheFileLinter) {
  const fs::path path =
      fs::path(::testing::TempDir()) / "krak_lint_synthetic_real.kraksynth";
  fs::remove(path);
  mesh::SyntheticSpec spec = mesh::paper_synthetic_spec(512, 256);
  spec.detonator = mesh::Point{1.0, 100.0};
  mesh::save_synthetic(path.string(), spec);
  const DiagnosticReport report = lint_synthetic_file(path.string());
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  fs::remove(path);
}

}  // namespace
}  // namespace krak::analyze
