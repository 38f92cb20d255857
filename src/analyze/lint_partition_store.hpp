#pragma once

#include <string>
#include <string_view>

#include "analyze/findings.hpp"

namespace krak::analyze {

/// Lint a `krakpart 1` entry with core::parse_partition_entry, the
/// parser PartitionStore::load trusts: structure
/// (rules::kPartitionStoreFormat), CSR offset consistency
/// (rules::kPartitionStoreOffsets), part labels and exactly-once cell
/// coverage (rules::kPartitionStoreBounds), and the embedded assignment
/// checksum (rules::kPartitionStoreChecksum). The linter exists to
/// explain *why* the store rejected (and evicted) an entry.
[[nodiscard]] DiagnosticReport lint_partition_store(std::string_view text);

/// Read `path` and lint it; a file that cannot be opened is a
/// rules::kPartitionStoreFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_partition_store_file(
    const std::string& path);

/// A deliberately corrupted entry exercising every partition-store rule
/// at least once (the analyze fixture idiom).
[[nodiscard]] std::string corrupted_partition_store_text();

}  // namespace krak::analyze
