// The kraksynth generator contract: specs materialize deterministically,
// the paper-shaped default reproduces the standard cylindrical layering,
// the text format round-trips exactly, and malformed specs are rejected
// with named violations (the large-deck path of docs/PERFORMANCE.md,
// "The 100k-rank regime").

#include "mesh/synthetic.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mesh/io.hpp"
#include "util/error.hpp"

namespace krak::mesh {
namespace {

TEST(Synthetic, PaperSpecReproducesCylindricalLayering) {
  const InputDeck synthetic = make_synthetic_deck(paper_synthetic_spec(80, 40));
  const InputDeck cylinder = make_cylindrical_deck(80, 40);
  EXPECT_EQ(synthetic.materials(), cylinder.materials());
  EXPECT_EQ(synthetic.detonator(), cylinder.detonator());
}

TEST(Synthetic, EmitsAtLeastHundredThousandUsefulCells) {
  const SyntheticSpec spec = paper_synthetic_spec(1024, 128);
  const InputDeck deck = make_synthetic_deck(spec);
  EXPECT_GE(deck.grid().num_cells(), 100'000);
  // Paper-shaped mix: every material present, ratios near Table 2's.
  EXPECT_EQ(deck.distinct_material_count(), kMaterialCount);
  const auto ratios = deck.material_ratios();
  for (std::size_t i = 0; i < kMaterialCount; ++i) {
    EXPECT_NEAR(ratios[i], kPaperMaterialRatios[i], 0.01) << "material " << i;
  }
}

TEST(Synthetic, DeterministicAcrossCalls) {
  const SyntheticSpec spec = paper_synthetic_spec(256, 64);
  const InputDeck a = make_synthetic_deck(spec);
  const InputDeck b = make_synthetic_deck(spec);
  EXPECT_EQ(a.materials(), b.materials());
  EXPECT_EQ(a.name(), b.name());
}

TEST(Synthetic, TextFormatRoundTripsExactly) {
  SyntheticSpec spec = paper_synthetic_spec(512, 256, "round trip");
  spec.detonator = Point{1.5, 100.25};
  std::stringstream stream;
  write_synthetic(stream, spec);
  const SyntheticSpec parsed = read_synthetic(stream);
  EXPECT_EQ(parsed.name, "round_trip");  // names are single tokens
  EXPECT_EQ(parsed.nx, spec.nx);
  EXPECT_EQ(parsed.ny, spec.ny);
  ASSERT_EQ(parsed.layers.size(), spec.layers.size());
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    EXPECT_EQ(parsed.layers[i].material, spec.layers[i].material);
    EXPECT_DOUBLE_EQ(parsed.layers[i].fraction, spec.layers[i].fraction);
  }
  EXPECT_EQ(parsed.detonator, spec.detonator);
  EXPECT_EQ(make_synthetic_deck(parsed).materials(),
            make_synthetic_deck(spec).materials());
}

TEST(Synthetic, RoundTripIsExactForNonShortDoubles) {
  // Values with more than the stream's default 6 significant digits
  // must read back bit for bit, not rounded to 0.123457.
  SyntheticSpec spec;
  spec.nx = 64;
  spec.ny = 16;
  spec.layers = {{Material::kHEGas, 0.123456789},
                 {Material::kAluminumInner, 1.0 - 0.123456789}};
  spec.detonator = Point{1.23456789, 1.0 / 3.0};
  std::stringstream stream;
  write_synthetic(stream, spec);
  const SyntheticSpec parsed = read_synthetic(stream);
  ASSERT_EQ(parsed.layers.size(), spec.layers.size());
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    EXPECT_EQ(parsed.layers[i].fraction, spec.layers[i].fraction);
  }
  EXPECT_EQ(parsed.detonator, spec.detonator);
}

TEST(Synthetic, OmittedDetonatorUsesPaperPlacement) {
  SyntheticSpec spec = paper_synthetic_spec(128, 50);
  std::stringstream stream;
  write_synthetic(stream, spec);
  EXPECT_EQ(stream.str().find("detonator"), std::string::npos);
  const InputDeck deck = make_synthetic_deck(read_synthetic(stream));
  EXPECT_EQ(deck.detonator(), (Point{0.0, 20.0}));
}

TEST(Synthetic, CustomMixKeepsEveryLayerAtLeastOneColumn) {
  SyntheticSpec spec;
  spec.nx = 5;
  spec.ny = 2;
  spec.layers = {{Material::kHEGas, 0.98},
                 {Material::kFoam, 0.01},
                 {Material::kAluminumOuter, 0.01}};
  const InputDeck deck = make_synthetic_deck(spec);
  EXPECT_EQ(deck.distinct_material_count(), 3u);
}

TEST(Synthetic, RejectsMalformedSpecs) {
  const auto expect_rejected = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_synthetic(in), util::KrakError) << text;
  };
  expect_rejected("krakdeck 1\nend\n");                       // wrong magic
  expect_rejected("kraksynth 2\nend\n");                      // bad version
  expect_rejected("kraksynth 1\ngrid 8 8\nlayer 9 1.0\nend\n");  // bad index
  expect_rejected("kraksynth 1\ngrid 8 8\nlayer 0 0.5\nend\n");  // sum != 1
  expect_rejected("kraksynth 1\ngrid 0 8\nlayer 0 1.0\nend\n");  // bad grid
  expect_rejected("kraksynth 1\ngrid 8 8\nlayer 0 1.0\n");       // no end
  expect_rejected("kraksynth 1\ngrid 8 8\nbogus 3\nend\n");      // bad key
  expect_rejected(
      "kraksynth 1\ngrid 2 8\nlayer 0 0.3\nlayer 1 0.3\nlayer 2 0.4\nend\n");
}

TEST(Synthetic, RejectsWhatTheLinterRejects) {
  // Rules the linter always had and the loader once skipped.
  const auto expect_rejected = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_synthetic(in), util::KrakError) << text;
  };
  const std::string body = "grid 64 32\nlayer 0 1.0\n";
  expect_rejected("kraksynth 1\n" + body + "detonator 0 2048\nend\n");
  expect_rejected("kraksynth 1\n" + body + "detonator -1 4\nend\n");
  expect_rejected("kraksynth 1\n" + body + "grid 64 32\nend\n");
  expect_rejected("kraksynth 1\n" + body +
                  "detonator 0 4\ndetonator 0 5\nend\n");
  expect_rejected("kraksynth 1\n" + body + "end\nlayer 1 1.0\n");
  // Blank and `#` lines are part of the format.
  std::istringstream annotated("# note\nkraksynth 1\n\n" + body +
                               "# placed by hand\ndetonator 0 4\nend\n");
  EXPECT_EQ(read_synthetic(annotated).detonator, (Point{0.0, 4.0}));
}

TEST(Synthetic, RejectsGridsAboveTheCellLimit) {
  // 2^40 cells: without the product bound this parsed, and the generator
  // then tried to allocate every cell.
  const std::string huge =
      "kraksynth 1\ngrid 1048576 1048576\nlayer 0 1.0\nend\n";
  util::DiagnosticReport report;
  (void)parse_synthetic(huge, report);
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_TRUE(report.has_rule(rules::kSyntheticShape));
  std::istringstream in(huge);
  EXPECT_THROW((void)read_synthetic(in), util::KrakError);
  EXPECT_THROW((void)make_synthetic_deck(paper_synthetic_spec(1 << 20, 1 << 20)),
               util::KrakError);
  // The limit itself is a valid shape, one row more is not.
  util::DiagnosticReport at_limit;
  (void)parse_synthetic("kraksynth 1\ngrid 4096 4096\nlayer 0 1.0\nend\n",
                        at_limit);
  EXPECT_FALSE(at_limit.has_errors());
  static_assert(std::int64_t{4096} * 4096 == kMaxDeckCells);
  util::DiagnosticReport past_limit;
  (void)parse_synthetic("kraksynth 1\ngrid 4096 4097\nlayer 0 1.0\nend\n",
                        past_limit);
  EXPECT_TRUE(past_limit.has_rule(rules::kSyntheticShape));
}

TEST(Synthetic, InvalidSpecRejectedByGenerator) {
  SyntheticSpec spec;
  spec.nx = 16;
  spec.ny = 16;
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // no layers
  spec.layers = {{Material::kHEGas, 0.7}};
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // sum != 1
}

}  // namespace
}  // namespace krak::mesh
