#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

// Golden contract of SimKrak's op generator: every rank's op stream —
// kind, payload bits, peer, tag/slot of every op, in order, drained
// through SimKrak::build_schedule — hashes to a pinned digest. The
// digests were recorded from the stored-schedule builders the generator
// replaced (a per-iteration rebuild and an iteration-template replay,
// which agreed on every value below), so a change that moves one ulp of
// one noise draw, reorders a message or shifts a record slot fails here
// before it can move a simulated time.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over the low `bytes` bytes of `value`, least significant first.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t digest(const sim::Schedule& schedule) {
  std::uint64_t hash = kFnvOffset;
  for (const sim::Op& op : schedule) {
    hash = fnv1a(hash, static_cast<std::uint8_t>(op.kind), 1);
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(op.payload), 8);
    hash = fnv1a(hash, static_cast<std::uint32_t>(op.peer), 4);
    hash = fnv1a(hash, static_cast<std::uint32_t>(op.label), 4);
  }
  return hash;
}

struct Digests {
  std::vector<std::uint64_t> per_rank;
  std::uint64_t all = kFnvOffset;  ///< fold of per_rank in rank order
  std::size_t ops = 0;
};

struct Fixture {
  mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  network::MachineConfig machine = network::make_es45_qsnet();
  ComputationCostEngine engine;

  [[nodiscard]] Digests digests(std::int32_t pes,
                                const SimKrakOptions& options) const {
    const partition::Partition part = partition::partition_deck(
        deck, pes, partition::PartitionMethod::kMultilevel, 1);
    const SimKrak app(deck, part, machine, engine, options);
    Digests out;
    for (std::int32_t pe = 0; pe < pes; ++pe) {
      const sim::Schedule schedule = app.build_schedule(pe);
      out.ops += schedule.size();
      out.per_rank.push_back(digest(schedule));
      out.all = fnv1a(out.all, out.per_rank.back(), 8);
    }
    return out;
  }
};

constexpr std::array<std::uint64_t, 16> kNoisy16PerRank = {
    0xb304dabd6011ea95ull, 0xe706c5bd5935cd31ull, 0xca73809ce39e87a6ull,
    0x8baa4c024f3980a8ull, 0x37216312a7dfae41ull, 0xdfc4b41a82bfd87bull,
    0x85d748ac2049ed91ull, 0x6fd86924f773a792ull, 0xb7f32497e0895b4cull,
    0xa111725743e72795ull, 0x6b7c84f32a66192cull, 0xfeb0d9e71f60a2a6ull,
    0x724f55b860bed651ull, 0xa7bbd30dcbc87575ull, 0x16aa4a4503f9de32ull,
    0x6c4dceac7571ff41ull,
};

struct Pinned {
  std::int32_t pes;
  std::size_t ops;
  std::uint64_t all;
};

/// Noise on, three iterations: three distinct draws per phase.
constexpr std::array<Pinned, 3> kNoisy = {{
    {16, 10440, 0x2992bfd6cd219129ull},
    {64, 49644, 0xa0ccc0be3954d87cull},
    {128, 101268, 0x99d21d0bcce58ebaull},
}};

SimKrakOptions noisy_options() {
  SimKrakOptions options;
  options.iterations = 3;
  return options;
}

void expect_pinned(const Fixture& f, const SimKrakOptions& options) {
  for (const Pinned& pinned : kNoisy) {
    SCOPED_TRACE(pinned.pes);
    const Digests got = f.digests(pinned.pes, options);
    EXPECT_EQ(got.ops, pinned.ops);
    EXPECT_EQ(got.all, pinned.all);
    if (pinned.pes == 16) {
      for (std::size_t r = 0; r < kNoisy16PerRank.size(); ++r) {
        EXPECT_EQ(got.per_rank[r], kNoisy16PerRank[r]) << "rank " << r;
      }
    }
  }
}

TEST(SimKrakReplay, OpStreamsMatchPinnedDigestsAcrossPeCounts) {
  expect_pinned(Fixture{}, noisy_options());
}

TEST(SimKrakReplay, OpStreamsMatchPinnedDigestsWithoutNoise) {
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;
  const Digests got = f.digests(64, options);
  EXPECT_EQ(got.ops, 33096u);
  EXPECT_EQ(got.all, 0x1f4758843612a4efull);
}

TEST(SimKrakReplay, FaultPlanLeavesOpStreamsAtPinnedDigests) {
  // Faults perturb the engine at run time, never the schedule: the
  // compute draws come from the noise stream alone, so a plan changes
  // no digest, while the run it drives does charge the injected delay.
  const Fixture f;
  SimKrakOptions options = noisy_options();
  fault::OneOffDelay delay;
  delay.rank = 1;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.01;
  options.faults.delays.push_back(delay);
  options.faults.slowdowns.push_back({fault::kAllRanks, 1.02});
  options.faults.seed = 7;
  expect_pinned(f, options);

  const partition::Partition part = partition::partition_deck(
      f.deck, 16, partition::PartitionMethod::kMultilevel, 1);
  const SimKrakResult result =
      SimKrak(f.deck, part, f.machine, f.engine, options).run();
  EXPECT_FALSE(result.failed());
  EXPECT_GT(result.fault_stats.fault_delay_seconds, 0.0);
}

}  // namespace
}  // namespace krak::simapp
