#include "mesh/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace krak::mesh {
namespace {

void expect_decks_equal(const InputDeck& a, const InputDeck& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.grid().nx(), b.grid().nx());
  EXPECT_EQ(a.grid().ny(), b.grid().ny());
  EXPECT_EQ(a.detonator(), b.detonator());
  EXPECT_EQ(a.materials(), b.materials());
}

TEST(DeckIo, RoundTripCylindricalDeck) {
  const InputDeck original = make_cylindrical_deck(40, 20);
  std::stringstream stream;
  write_deck(stream, original);
  const InputDeck loaded = read_deck(stream);
  expect_decks_equal(original, loaded);
}

TEST(DeckIo, RoundTripAllStandardSizes) {
  for (DeckSize size : {DeckSize::kSmall, DeckSize::kMedium}) {
    const InputDeck original = make_standard_deck(size);
    std::stringstream stream;
    write_deck(stream, original);
    const InputDeck loaded = read_deck(stream);
    expect_decks_equal(original, loaded);
  }
}

TEST(DeckIo, RoundTripUniformAndTwoMaterial) {
  for (const InputDeck& original :
       {make_uniform_deck(8, 4, Material::kFoam),
        make_two_material_deck(8, 4, Material::kAluminumOuter)}) {
    std::stringstream stream;
    write_deck(stream, original);
    expect_decks_equal(original, read_deck(stream));
  }
}

TEST(DeckIo, RoundTripIsExactForNonShortDetonator) {
  const InputDeck base = make_uniform_deck(8, 4, Material::kHEGas);
  const InputDeck original("exact", base.grid(), base.materials(),
                           Point{1.23456789, 1.0 / 3.0});
  std::stringstream stream;
  write_deck(stream, original);
  expect_decks_equal(original, read_deck(stream));
}

TEST(DeckIo, RunLengthEncodingIsCompact) {
  // The layered medium deck (204,800 cells) must serialize to well
  // under one byte per cell.
  const InputDeck deck = make_standard_deck(DeckSize::kMedium);
  std::stringstream stream;
  write_deck(stream, deck);
  EXPECT_LT(stream.str().size(), 20000u);
}

TEST(DeckIo, SaveAndLoadThroughFiles) {
  const std::string path = ::testing::TempDir() + "/deck_io_test.krakdeck";
  const InputDeck original = make_cylindrical_deck(16, 8);
  save_deck(path, original);
  const InputDeck loaded = load_deck(path);
  expect_decks_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(DeckIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_deck("/nonexistent-dir/missing.krakdeck"),
               util::KrakError);
}

TEST(DeckIo, RejectsBadMagic) {
  std::stringstream stream("notadeck 1\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsUnsupportedVersion) {
  std::stringstream stream("krakdeck 99\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsMissingGrid) {
  std::stringstream stream("krakdeck 1\nname x\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsTruncatedMaterials) {
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 2 2\ndetonator 0 0\nmaterials 2x0\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsOverlongMaterials) {
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 2 2\ndetonator 0 0\nmaterials 5x0\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsUnknownMaterialIndex) {
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 2 2\ndetonator 0 0\nmaterials 4x9\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsMalformedRunToken) {
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 2 2\ndetonator 0 0\nmaterials four_x0\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsHugeGridBeforeAllocating) {
  // 4e18 cells: reserving them threw std::length_error or
  // std::bad_alloc, not KrakError.
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 2000000000 2000000000\ndetonator 0 0\n"
      "materials 1x0\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
  // The largest allowed grid is still a structured error when its runs
  // do not cover it.
  std::stringstream at_limit(
      "krakdeck 1\ngrid 4096 4096\nmaterials 1x0\nend\n");
  static_assert(std::int64_t{4096} * 4096 == kMaxDeckCells);
  EXPECT_THROW((void)read_deck(at_limit), util::KrakError);
}

TEST(DeckIo, RejectsRunThatWrapsTheCellCount) {
  // 1 + (2^64 - 1) wraps to 0, which passed the old overflow check and
  // asked insert() for 2^64 - 1 cells.
  std::stringstream stream(
      "krakdeck 1\ngrid 2 2\nmaterials 1x0 18446744073709551615x0\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsUnknownKey) {
  std::stringstream stream("krakdeck 1\nbogus 1\nend\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DeckIo, RejectsMissingEnd) {
  std::stringstream stream(
      "krakdeck 1\nname x\ngrid 1 1\ndetonator 0 0\nmaterials 1x0\n");
  EXPECT_THROW((void)read_deck(stream), util::KrakError);
}

TEST(DescribeDeck, MentionsAllMaterials) {
  const std::string text = describe_deck(make_standard_deck(DeckSize::kSmall));
  EXPECT_NE(text.find("High-Explosive Gas"), std::string::npos);
  EXPECT_NE(text.find("Foam"), std::string::npos);
  EXPECT_NE(text.find("3200"), std::string::npos);
}

}  // namespace
}  // namespace krak::mesh
