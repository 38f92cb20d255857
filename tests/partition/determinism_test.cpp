// Determinism contract of the multilevel partitioner (docs/PERFORMANCE.md,
// "Partitioner"): the assignment is a pure function of (graph, parts,
// seed). The checksums below were produced by the full-scan reference
// refinement; the dirty-vertex worklist and the coarsening ladder cache
// must reproduce them bit for bit. CI also runs this suite under
// ThreadSanitizer, which covers the ladder cache shared between
// concurrent campaign workers.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mesh/deck.hpp"
#include "obs/metrics.hpp"
#include "partition/dualgraph.hpp"
#include "partition/partition.hpp"

namespace {

using namespace krak;

struct ChecksumCase {
  const char* deck;
  std::int32_t parts;
  std::uint64_t seed;
  std::uint64_t checksum;
};

// FNV-1a over the assignment, the same digest the partition store embeds.
std::uint64_t checksum_of(const partition::Partition& part) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const partition::PeId pe : part.assignment()) {
    hash ^= static_cast<std::uint32_t>(pe);
    hash *= 1099511628211ull;
  }
  return hash;
}

mesh::InputDeck make_deck(const std::string& name) {
  if (name == "figure2") return mesh::make_figure2_deck();
  if (name == "small") return mesh::make_standard_deck(mesh::DeckSize::kSmall);
  if (name == "medium") {
    return mesh::make_standard_deck(mesh::DeckSize::kMedium);
  }
  return mesh::make_standard_deck(mesh::DeckSize::kLarge);
}

// Every standard deck at its campaign PE counts (seed 1 is
// ValidationConfig::partition_seed), the strong-scaling sweep's large
// deck at 1024-4096 parts, the calibration configurations (seed 2006 is
// CalibrationConfig::seed, medium deck), and the seeds the benchmark's
// cold validation sweep samples (1001-4001). Recorded from the full-scan
// reference refinement; any change here is a silent change to every
// measured campaign value and must be deliberate.
const ChecksumCase kCases[] = {
    {"small", 16, 1, 0x5f24542071c7e00cull},
    {"small", 64, 1, 0xb845599a67dcda90ull},
    {"small", 128, 1, 0xeca51fda95fe1790ull},
    {"medium", 16, 1, 0x2eb0be63ac1b25edull},
    {"medium", 64, 1, 0xa289f37a9fe48653ull},
    {"medium", 96, 1, 0x16cda0fbb6fcf6c5ull},
    {"medium", 128, 1, 0x71ce83163875d18full},
    {"medium", 256, 1, 0x2f88c2de7d8d2f20ull},
    {"medium", 512, 1, 0xe68081abd24015bbull},
    {"figure2", 16, 1, 0x014f94e129515955ull},
    {"figure2", 64, 1, 0x8a900109f0e0c22cull},
    {"large", 128, 1, 0xeff45b2b0c7844f8ull},
    {"large", 256, 1, 0xe3d46887b06451e2ull},
    {"large", 257, 1, 0xff2b8cc6ce54ea32ull},
    {"large", 512, 1, 0x58089e31eb230279ull},
    {"large", 1024, 1, 0x0f33b7d939b4868dull},
    {"large", 2048, 1, 0x6c2b83a8a2d19c2full},
    {"large", 4096, 1, 0x2bdfbac9d1047623ull},
    {"medium", 8, 2006, 0x542b19cd811b8dbfull},
    {"medium", 64, 2006, 0x0dc23472cbf16999ull},
    {"medium", 512, 2006, 0x5ff37b31e4443d1aull},
    {"medium", 4096, 2006, 0xec9f2b457fb8db95ull},
    {"medium", 128, 1001, 0x211d7fb0d85b0c5eull},
    {"medium", 128, 2001, 0x1bbae7705d3991deull},
    {"medium", 128, 3001, 0xba0e25a306fab665ull},
    {"medium", 128, 4001, 0x0d688a21c7157903ull},
    {"medium", 512, 1001, 0x2daf1c5bc8af9f8bull},
    {"medium", 512, 2001, 0x805b482183ffcbceull},
    {"medium", 512, 3001, 0x9e9b02e00f03ae26ull},
    {"medium", 512, 4001, 0xf71555eabbf5bad6ull},
    {"large", 512, 1001, 0xfd8b5cfecd72e91dull},
    {"large", 512, 2001, 0x24f069f5ea90db8full},
    {"large", 512, 3001, 0x12e9c80cf49ea571ull},
    {"large", 512, 4001, 0x44816830bb733237ull},
};

TEST(MultilevelDeterminismTest, MatchesSerialReferenceChecksums) {
  // A cached ladder would replay coarsening instead of re-running it;
  // clearing first makes the first call per (deck, seed) coarsen.
  partition::clear_multilevel_ladder_cache();
  for (const ChecksumCase& c : kCases) {
    const mesh::InputDeck deck = make_deck(c.deck);
    const partition::Graph graph = partition::build_dual_graph(deck.grid());
    const partition::Partition part =
        partition::partition_multilevel(graph, c.parts, c.seed);
    EXPECT_EQ(checksum_of(part), c.checksum)
        << c.deck << " parts=" << c.parts << " seed=" << c.seed;
  }
}

// FM's work counters are deterministic, so they are pinned exactly:
// passes and moves are the full-scan reference refinement's (any drift
// means the move sequence changed), evaluations are the gain
// evaluations the staleness test lets through (the same in any exact
// scheduling of the pass), and visits are the worklist pops — the
// work the worklist exists to cut; a full scan pops every vertex.
struct FmWorkCase {
  std::int32_t parts;
  std::int64_t passes;
  std::int64_t moves;
  std::int64_t evaluations;
  std::int64_t visits;
};

TEST(MultilevelDeterminismTest, FmWorkCountersArePinned) {
  const FmWorkCase cases[] = {
      {512, 171, 13041, 3250146, 3288145},
      {1024, 166, 20103, 3767525, 3816964},
  };
  const mesh::InputDeck deck = make_deck("large");
  const partition::Graph graph = partition::build_dual_graph(deck.grid());
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry& registry = obs::global_registry();
  const auto counter = [&registry](const char* name) {
    return registry.counter(name).value();
  };
  for (const FmWorkCase& c : cases) {
    const std::int64_t passes = counter("partition.fm.passes");
    const std::int64_t moves = counter("partition.fm.moves");
    const std::int64_t evaluations = counter("partition.fm.evaluations");
    const std::int64_t visits = counter("partition.fm.visits");
    (void)partition::partition_multilevel(graph, c.parts, 1);
    EXPECT_EQ(counter("partition.fm.passes") - passes, c.passes)
        << "parts=" << c.parts;
    EXPECT_EQ(counter("partition.fm.moves") - moves, c.moves)
        << "parts=" << c.parts;
    EXPECT_EQ(counter("partition.fm.evaluations") - evaluations,
              c.evaluations)
        << "parts=" << c.parts;
    EXPECT_EQ(counter("partition.fm.visits") - visits, c.visits)
        << "parts=" << c.parts;
  }
  obs::set_enabled(was_enabled);
}

// The ladder cache must be output-invariant when part counts of the
// same (deck, seed) interleave: a larger part count stops higher up the
// shared ladder, a later smaller one extends it, and both must match a
// cold computation exactly.
TEST(MultilevelLadderCacheTest, InterleavedPartCountsReplayExactly) {
  partition::clear_multilevel_ladder_cache();
  const mesh::InputDeck deck = make_deck("medium");
  const partition::Graph graph = partition::build_dual_graph(deck.grid());
  // 512 coarsens shallowly, 16 then extends the cached ladder, 256 and
  // 64 replay prefixes of it.
  for (const std::int32_t parts : {512, 16, 256, 64}) {
    const partition::Partition part =
        partition::partition_multilevel(graph, parts, 1);
    std::uint64_t want = 0;
    for (const ChecksumCase& c : kCases) {
      if (std::string(c.deck) == "medium" && c.parts == parts && c.seed == 1) {
        want = c.checksum;
      }
    }
    ASSERT_NE(want, 0u);
    EXPECT_EQ(checksum_of(part), want) << "parts=" << parts;
  }
}

// partition_deck's threads parameter is ignored, and the derived ladder
// key (grid dimensions) must not change the result either.
TEST(MultilevelLadderCacheTest, PartitionDeckThreadsAreOutputInvariant) {
  const mesh::InputDeck deck = make_deck("small");
  partition::clear_multilevel_ladder_cache();
  const partition::Partition serial = partition::partition_deck(
      deck, 64, partition::PartitionMethod::kMultilevel, 1, /*threads=*/1);
  partition::clear_multilevel_ladder_cache();
  const partition::Partition parallel = partition::partition_deck(
      deck, 64, partition::PartitionMethod::kMultilevel, 1, /*threads=*/8);
  EXPECT_EQ(serial.assignment(), parallel.assignment());
  EXPECT_EQ(checksum_of(serial), 0xb845599a67dcda90ull);
}

}  // namespace
