#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/validation.hpp"
#include "util/diagnostic.hpp"

namespace krak::core {

namespace rules {

/// Rule ids of the `krakjournal 1` parser; docs/ANALYSIS.md documents
/// them and analyze/rules.hpp re-exports them.
///
/// Structural validity of a journal record: magic/version header, known
/// record kind, token counts, 16-hex fingerprints, positive attempt
/// numbers, positive pes, well-formed percent-escaping.
inline constexpr const char* kJournalFormat = "journal-format";
/// Every record's trailing checksum must equal FNV-1a over the line
/// body before it — the per-record seal recovery verifies before
/// replaying a scenario's state.
inline constexpr const char* kJournalChecksum = "journal-checksum";
/// A trailing partial line with no newline is a torn append (crash
/// mid-write); recovery truncates it, losing exactly that record.
inline constexpr const char* kJournalTornTail = "journal-torn-tail";

}  // namespace rules

/// One `krakjournal 1` record: a scenario state change.
struct JournalRecord {
  enum class Kind { kRunning, kDone, kFailed, kQuarantined };

  Kind kind = Kind::kRunning;
  std::uint64_t fingerprint = 0;
  std::uint32_t attempt = 0;
  bool transient = false;  ///< failed records: the failure class
  std::string error;       ///< failed / quarantined records
  ValidationPoint point;   ///< done records
  std::size_t line = 0;    ///< source line when parsed (0 when built)
};

/// What parse_journal found in a journal's text.
struct ParsedJournal {
  bool has_header = false;  ///< the first content line is the magic
  /// Every valid record in file order, including any after an invalid
  /// line (the linter checks their order; recovery never sees them).
  std::vector<JournalRecord> records;
  /// The recovery cut: the records and bytes before the first invalid
  /// or torn line (all of them when there is none).
  std::size_t kept_records = 0;
  std::size_t kept_bytes = 0;
};

/// The one `krakjournal 1` parser, shared by CampaignJournal recovery
/// and `krak_analyze --journal`. Blank and `#` lines are skipped
/// everywhere. Every violation lands in `report` with its line:
/// rules::kJournalFormat and rules::kJournalChecksum as errors,
/// rules::kJournalTornTail as a warning (recovery truncates it
/// cleanly). A missing or wrong header stops the parse.
[[nodiscard]] ParsedJournal parse_journal(std::string_view text,
                                          util::DiagnosticReport& report);

/// Versioned write-ahead journal of a validation campaign
/// (docs/RESILIENCE.md, "Resumable campaigns").
///
/// One checksummed record per scenario state change, appended (and
/// synced) before the campaign acts on it, in the `krakjournal 1` text
/// format — one record per line:
///
///     krakjournal 1
///     running <fingerprint> <attempt> <checksum>
///     done <fingerprint> <attempt> <problem> <pes> <measured>
///         <predicted> <checksum>
///     failed <fingerprint> <attempt> <transient|deterministic>
///         <error> <checksum>
///     quarantined <fingerprint> <attempt> <error> <checksum>
///
/// `<fingerprint>` is the 16-hex-digit scenario fingerprint
/// (core::scenario_fingerprint); `<measured>` / `<predicted>` are the
/// IEEE-754 bit patterns of the doubles in 16 hex digits, so a replayed
/// ValidationPoint is bit-identical to the one originally measured;
/// `<error>` and `<problem>` are percent-escaped single tokens;
/// `<checksum>` is FNV-1a over everything before it on the line.
///
/// Blank lines and `#` comments may appear anywhere; the writer emits
/// neither. Loading (parse_journal) replays every valid record into
/// per-scenario histories and truncates the file at the first invalid
/// line (torn-tail recovery): a
/// crash mid-append — SIGKILL, power loss, full disk — costs at most
/// the record being written, never the journal. Appends go through one
/// O_APPEND write plus fsync per record, so the write-ahead contract
/// survives the same crashes it protects against.
///
/// Thread-safe: campaign workers append concurrently from the pool.
/// Counters are mirrored into the observability registry as
/// `journal.appends`, `journal.recovered_records`, and
/// `journal.recovered_torn_tail` (docs/OBSERVABILITY.md).
class CampaignJournal {
 public:
  /// Everything the journal knows about one scenario fingerprint.
  struct History {
    std::uint32_t attempts = 0;  ///< highest attempt number recorded
    std::uint32_t deterministic_failures = 0;
    std::uint32_t transient_failures = 0;
    /// A `running` record with no outcome yet — an attempt that was
    /// in flight when a previous process died. Not counted as a
    /// failure: the resumed campaign simply tries again.
    bool interrupted = false;
    bool done = false;
    bool quarantined = false;
    ValidationPoint point;   ///< valid when `done`
    std::string last_error;  ///< last failed/quarantined error text
    bool last_transient = false;  ///< class of the last failed record

    /// failures that count against a retry budget
    [[nodiscard]] std::uint32_t failures() const {
      return deterministic_failures + transient_failures;
    }
  };

  /// What loading an existing journal found.
  struct Recovery {
    std::size_t records = 0;    ///< valid records replayed
    std::size_t scenarios = 0;  ///< distinct fingerprints seen
    std::size_t completed = 0;  ///< scenarios in `done` state
    std::size_t quarantined = 0;
    bool torn_tail = false;          ///< file ended in an invalid record
    std::size_t dropped_bytes = 0;  ///< truncated by torn-tail recovery
  };

  /// Open (creating if absent) and recover the journal at `path`.
  /// Throws util::KrakError when the file exists but is not a
  /// `krakjournal 1` file — a wrong path must not be truncated into
  /// one — or when the file cannot be opened for appending.
  explicit CampaignJournal(std::filesystem::path path);
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] const Recovery& recovery() const { return recovery_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Write-ahead marks, each appended and synced before returning.
  void record_running(std::uint64_t fingerprint, std::uint32_t attempt);
  void record_done(std::uint64_t fingerprint, std::uint32_t attempt,
                   const ValidationPoint& point);
  void record_failed(std::uint64_t fingerprint, std::uint32_t attempt,
                     bool transient, std::string_view error);
  void record_quarantined(std::uint64_t fingerprint, std::uint32_t attempt,
                          std::string_view error);

  /// The recovered-plus-appended history of `fingerprint`
  /// (default-constructed when the journal has never seen it).
  [[nodiscard]] History history(std::uint64_t fingerprint) const;

 private:
  void write_raw(std::string_view data);
  void append(const JournalRecord& record);
  void apply(const JournalRecord& record);

  std::filesystem::path path_;
  Recovery recovery_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, History> histories_;
  int fd_ = -1;  ///< POSIX append descriptor (-1 on the fallback path)
};

/// Percent-escape `text` into a single whitespace-free journal token
/// ("" encodes as "%"); exposed for krak_analyze --journal and tests.
[[nodiscard]] std::string journal_escape(std::string_view text);

/// Inverse of journal_escape; nullopt on malformed input.
[[nodiscard]] std::optional<std::string> journal_unescape(
    std::string_view token);

/// FNV-1a-64 over `text`, the per-record integrity checksum embedded in
/// `krakjournal` files and checked by `krak_analyze --journal`.
[[nodiscard]] std::uint64_t journal_checksum(std::string_view text);

}  // namespace krak::core
