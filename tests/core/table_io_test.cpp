#include "core/table_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/calibration.hpp"
#include "util/error.hpp"

namespace krak::core {
namespace {

using mesh::Material;

TEST(TableIo, RoundTripsHandBuiltTable) {
  CostTable original;
  original.add_sample(1, Material::kHEGas, 10.0, 1.5e-6);
  original.add_sample(1, Material::kHEGas, 1000.0, 0.5e-6);
  original.add_sample(14, Material::kFoam, 64.0, 3.25e-7);
  std::stringstream stream;
  write_cost_table(stream, original);
  const CostTable loaded = read_cost_table(stream);
  for (double cells : {5.0, 10.0, 123.0, 1000.0, 1e6}) {
    EXPECT_DOUBLE_EQ(loaded.per_cell(1, Material::kHEGas, cells),
                     original.per_cell(1, Material::kHEGas, cells));
  }
  EXPECT_DOUBLE_EQ(loaded.per_cell(14, Material::kFoam, 64.0), 3.25e-7);
  EXPECT_FALSE(loaded.has_samples(2, Material::kHEGas));
}

TEST(TableIo, RoundTripsCalibratedTableExactly) {
  const simapp::ComputationCostEngine engine;
  CalibrationConfig config;
  config.sample_sizes = {16, 256, 4096};
  const CostTable original = calibrate_contrived(engine, config);
  std::stringstream stream;
  write_cost_table(stream, original);
  const CostTable loaded = read_cost_table(stream);
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (Material m : mesh::all_materials()) {
      ASSERT_EQ(loaded.sample_count(phase, m),
                original.sample_count(phase, m));
      for (double cells : {16.0, 77.0, 256.0, 1000.0, 4096.0}) {
        EXPECT_DOUBLE_EQ(loaded.per_cell(phase, m, cells),
                         original.per_cell(phase, m, cells))
            << "phase " << phase;
      }
    }
  }
}

TEST(TableIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/costs_test.krakcosts";
  CostTable original;
  original.add_sample(3, Material::kAluminumOuter, 100.0, 2e-6);
  save_cost_table(path, original);
  const CostTable loaded = load_cost_table(path);
  EXPECT_DOUBLE_EQ(loaded.per_cell(3, Material::kAluminumOuter, 100.0), 2e-6);
  std::remove(path.c_str());
}

TEST(TableIo, EmptyTableRoundTrips) {
  std::stringstream stream;
  write_cost_table(stream, CostTable{});
  const CostTable loaded = read_cost_table(stream);
  EXPECT_FALSE(loaded.has_samples(1, Material::kHEGas));
}

TEST(TableIo, RejectsMalformedInput) {
  const auto expect_reject = [](const std::string& text) {
    std::stringstream stream(text);
    EXPECT_THROW((void)read_cost_table(stream), util::KrakError) << text;
  };
  expect_reject("wrongmagic 1\nend\n");
  expect_reject("krakcosts 2\nend\n");
  expect_reject("krakcosts 1\nsample 0 0 10 1e-6\nend\n");   // bad phase
  expect_reject("krakcosts 1\nsample 1 7 10 1e-6\nend\n");   // bad material
  expect_reject("krakcosts 1\nsample 1 0 0 1e-6\nend\n");    // zero cells
  expect_reject("krakcosts 1\nsample 1 0 10 -1e-6\nend\n");  // negative cost
  expect_reject("krakcosts 1\nsample 1 0 10\nend\n");        // truncated
  expect_reject("krakcosts 1\nbogus\nend\n");                // unknown key
  expect_reject("krakcosts 1\nsample 1 0 10 1e-6\n");        // missing end
  expect_reject("krakcosts 1\nsample 1 0 10 nan\nend\n");     // not finite
  expect_reject("krakcosts 1\nsample 1 0 10 1e-6 7\nend\n");  // extra token
  expect_reject("krakcosts 1\nend\nsample 1 0 10 1e-6\n");    // after end
}

TEST(TableIo, AcceptsCommentsAndBlankLines) {
  std::stringstream stream(
      "# calibrated on the test host\nkrakcosts 1\n\n"
      "sample 2 1 64 2.5e-7  # inner aluminum\nend\n");
  EXPECT_THROW((void)read_cost_table(stream), util::KrakError);
  std::stringstream annotated(
      "# calibrated on the test host\nkrakcosts 1\n\n"
      "# foam\nsample 2 1 64 2.5e-7\nend\n");
  const CostTable loaded = read_cost_table(annotated);
  EXPECT_DOUBLE_EQ(loaded.per_cell(2, Material::kAluminumInner, 64.0), 2.5e-7);
}

TEST(TableIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_cost_table("/no-such-dir/x.krakcosts"),
               util::KrakError);
}

}  // namespace
}  // namespace krak::core
