#pragma once

#include <string>
#include <string_view>

#include "analyze/findings.hpp"

namespace krak::analyze {

/// Lint a `kraksynth 1` synthetic-deck spec with mesh::parse_synthetic,
/// the parser read_synthetic uses: header and per-line structure
/// (rules::kSyntheticFormat), the material mix the generator requires
/// (rules::kSyntheticMix), and grid/detonator geometry
/// (rules::kSyntheticShape). Where read_synthetic throws on the first
/// error, the linter names every one so a hand-written spec is fixable
/// in one pass.
[[nodiscard]] DiagnosticReport lint_synthetic(std::string_view text);

/// Read `path` and lint it; a file that cannot be opened is a
/// rules::kSyntheticFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_synthetic_file(const std::string& path);

/// A deliberately corrupted spec exercising every synthetic rule at
/// least once (the analyze fixture idiom).
[[nodiscard]] std::string corrupted_synthetic_text();

}  // namespace krak::analyze
