#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/deck.hpp"
#include "partition/partition.hpp"
#include "util/diagnostic.hpp"

namespace krak::core {

namespace rules {

/// Rule ids of the `krakpart 1` parser; docs/ANALYSIS.md documents them
/// and analyze/rules.hpp re-exports them.
///
/// Structural validity of a partition-store entry: magic/version
/// header, the fixed header fields (fingerprint, pes, method, seed,
/// cells, checksum), known partition method, terminating `end` with
/// nothing after it.
inline constexpr const char* kPartitionStoreFormat = "partition-store-format";
/// CSR offsets must start at 0, end at the cell count, be monotone
/// non-decreasing, and agree with each part line's cell count.
inline constexpr const char* kPartitionStoreOffsets = "partition-store-offsets";
/// Part labels must be the sequence 0..pes-1 and every cell id must lie
/// in [0, cells), be assigned exactly once, and leave no cell unowned.
inline constexpr const char* kPartitionStoreBounds = "partition-store-bounds";
/// The declared checksum must equal FNV-1a over the reconstructed
/// assignment (partition_checksum) — the integrity seal the store
/// verifies before trusting a file.
inline constexpr const char* kPartitionStoreChecksum =
    "partition-store-checksum";

}  // namespace rules

/// FNV-1a over a deck's full content (name, grid, material layout,
/// detonator), so stored partitions and cache entries can never alias
/// two decks that merely share a name.
[[nodiscard]] std::uint64_t deck_fingerprint(const mesh::InputDeck& deck);

/// FNV-1a over a partition assignment; the integrity checksum embedded
/// in `krakpart` files and checked by `krak_analyze --partition-store`.
[[nodiscard]] std::uint64_t partition_checksum(
    const std::vector<partition::PeId>& assignment);

/// A parsed `krakpart 1` entry (format below); `assignment[cell]` is -1
/// where no part claimed the cell.
struct PartitionEntry {
  std::uint64_t fingerprint = 0;
  std::int32_t pes = 0;
  std::string method;
  std::uint64_t seed = 0;
  std::int64_t cells = 0;
  std::uint64_t checksum = 0;
  std::vector<partition::PeId> assignment;
};

/// The one `krakpart 1` parser, shared by PartitionStore::load and
/// `krak_analyze --partition-store`: one pass of std::from_chars over
/// the buffer that builds diagnostic text only for a violation. Blank
/// and `#` lines are skipped everywhere. Every violation of the
/// rules::kPartitionStore* rules lands in `report` as an error with its
/// line; a malformed header stops the parse.
[[nodiscard]] PartitionEntry parse_partition_entry(
    std::string_view text, util::DiagnosticReport& report);

/// Versioned on-disk store of partition assignments.
///
/// Campaigns repartition the same decks at the same PE counts on every
/// invocation; the store persists each result so a rerun skips the
/// partitioner entirely (docs/PERFORMANCE.md, "Partitioner"). One file
/// per configuration, named
/// `<fingerprint>-<pes>-<method>-<seed>.krakpart`, in the `krakpart 1`
/// text format:
///
///     krakpart 1
///     fingerprint <16 hex digits>
///     pes <P>
///     method <method name>
///     seed <decimal>
///     cells <N>
///     checksum <16 hex digits of partition_checksum>
///     offsets <P+1 monotone values; offsets[0]=0, offsets[P]=N>
///     part <p> <cells of part p, ascending>     (P lines)
///     end
///
/// Every load revalidates the file (parse_partition_entry) and checks
/// that its header matches the key; a file with any error or another
/// key is deleted and reported as a reject, so a corrupt or stale store
/// heals itself instead of poisoning runs. Counters are mirrored into the
/// observability registry as `partition_store.{hits,misses,rejects}`.
///
/// Thread-safe; writes go through a temp file plus rename so a crashed
/// run never leaves a half-written entry under a valid name.
class PartitionStore {
 public:
  /// Uses (and creates if needed) `directory` for the entry files.
  explicit PartitionStore(std::filesystem::path directory);

  struct Key {
    std::uint64_t fingerprint = 0;
    std::int32_t pes = 0;
    partition::PartitionMethod method = partition::PartitionMethod::kMultilevel;
    std::uint64_t seed = 1;
  };

  /// Load the stored partition of `key`; nullopt when absent or when
  /// the file fails validation (the file is then evicted).
  [[nodiscard]] std::optional<partition::Partition> load(const Key& key);

  /// Persist an assignment under `key`, replacing any existing entry.
  void save(const Key& key, const partition::Partition& partition);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejects = 0;
  };
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

  /// File an entry of `key` lives at (exposed for tests and tooling).
  [[nodiscard]] std::filesystem::path entry_path(const Key& key) const;

 private:
  std::filesystem::path directory_;
  mutable std::mutex mutex_;
  Counters counters_;
};

}  // namespace krak::core
