#pragma once

#include <string>
#include <string_view>

#include "analyze/findings.hpp"

namespace krak::analyze {

/// Lint a `krakjournal 1` campaign journal. core::parse_journal — the
/// parser CampaignJournal recovery uses — reports the format rules
/// (rules::kJournalFormat, rules::kJournalChecksum, and the
/// rules::kJournalTornTail warning); the linter adds the one rule
/// recovery cannot know, the per-scenario state machine the writer
/// guarantees (rules::kJournalStateMachine).
///
/// Where recovery silently truncates at the first invalid record, the
/// linter names every violation so a human can see *what* `--resume`
/// would drop.
[[nodiscard]] DiagnosticReport lint_journal(std::string_view text);

/// Read `path` and lint it; a file that cannot be opened is a
/// rules::kJournalFormat error naming the path and the OS cause.
[[nodiscard]] DiagnosticReport lint_journal_file(const std::string& path);

/// A deliberately corrupted journal exercising every journal rule at
/// least once (the analyze fixture idiom).
[[nodiscard]] std::string corrupted_journal_text();

}  // namespace krak::analyze
