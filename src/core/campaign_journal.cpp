#include "core/campaign_journal.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <optional>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/text_format.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace krak::core {

namespace {

constexpr std::string_view kMagic = "krakjournal 1";

void bump_journal_counter(const char* name, std::int64_t count = 1) {
  if (!obs::enabled() || count == 0) return;
  obs::global_registry().counter(name).add(count);
}

std::string line_component(std::size_t line) {
  return "journal/line " + std::to_string(line);
}

/// The line body (checksum excluded) exactly as serialized.
std::string record_body(const JournalRecord& record) {
  using Kind = JournalRecord::Kind;
  std::string out;
  switch (record.kind) {
    case Kind::kRunning:
      out = "running";
      break;
    case Kind::kDone:
      out = "done";
      break;
    case Kind::kFailed:
      out = "failed";
      break;
    case Kind::kQuarantined:
      out = "quarantined";
      break;
  }
  out += ' ';
  out += util::hex16(record.fingerprint);
  out += ' ';
  out += std::to_string(record.attempt);
  switch (record.kind) {
    case Kind::kRunning:
      break;
    case Kind::kDone:
      out += ' ';
      out += journal_escape(record.point.problem);
      out += ' ';
      out += std::to_string(record.point.pes);
      out += ' ';
      out += util::hex16(std::bit_cast<std::uint64_t>(record.point.measured));
      out += ' ';
      out += util::hex16(std::bit_cast<std::uint64_t>(record.point.predicted));
      break;
    case Kind::kFailed:
      out += record.transient ? " transient " : " deterministic ";
      out += journal_escape(record.error);
      break;
    case Kind::kQuarantined:
      out += ' ';
      out += journal_escape(record.error);
      break;
  }
  return out;
}

/// Parse one record line (checksum included), reporting every
/// violation; nullopt when there was any.
std::optional<JournalRecord> parse_record(const util::TextLine& line,
                                          util::DiagnosticReport& report) {
  using Kind = JournalRecord::Kind;
  const auto fail = [&](const char* rule, std::string message) {
    report.error(rule, line_component(line.number), std::move(message));
  };
  const std::vector<std::string_view> tokens = util::split_tokens(line.text);
  if (tokens.size() < 2) {
    fail(rules::kJournalFormat,
         "record needs at least a kind and a checksum, got '" +
             std::string(line.text) + "'");
    return std::nullopt;
  }
  std::uint64_t declared = 0;
  if (!util::parse_hex16(tokens.back(), declared)) {
    fail(rules::kJournalFormat,
         "last token must be the 16-hex-digit checksum, got '" +
             std::string(tokens.back()) + "'");
    return std::nullopt;
  }
  const std::uint64_t actual =
      journal_checksum(line.text.substr(0, line.text.rfind(' ')));
  if (actual != declared) {
    fail(rules::kJournalChecksum,
         "declared checksum " + std::string(tokens.back()) +
             " does not match record checksum " + util::hex16(actual) +
             "; recovery truncates the journal here");
    return std::nullopt;  // the fields below the seal cannot be trusted
  }

  JournalRecord record;
  record.line = line.number;
  std::size_t expected = 0;
  if (tokens[0] == "running") {
    record.kind = Kind::kRunning;
    expected = 4;
  } else if (tokens[0] == "done") {
    record.kind = Kind::kDone;
    expected = 8;
  } else if (tokens[0] == "failed") {
    record.kind = Kind::kFailed;
    expected = 6;
  } else if (tokens[0] == "quarantined") {
    record.kind = Kind::kQuarantined;
    expected = 5;
  } else {
    fail(rules::kJournalFormat,
         "unknown record kind '" + std::string(tokens[0]) + "'");
    return std::nullopt;
  }
  if (tokens.size() != expected) {
    fail(rules::kJournalFormat,
         "'" + std::string(tokens[0]) + "' record needs " +
             std::to_string(expected) + " token(s), got " +
             std::to_string(tokens.size()));
    return std::nullopt;
  }
  if (!util::parse_hex16(tokens[1], record.fingerprint)) {
    fail(rules::kJournalFormat, "fingerprint must be 16 hex digits, got '" +
                                    std::string(tokens[1]) + "'");
    return std::nullopt;
  }
  if (!util::parse_number(tokens[2], record.attempt) || record.attempt == 0) {
    fail(rules::kJournalFormat, "attempt must be a positive integer, got '" +
                                    std::string(tokens[2]) + "'");
    return std::nullopt;
  }
  bool ok = true;
  const auto unescape = [&](std::string_view token, const char* what,
                            std::string& out) {
    std::optional<std::string> text = journal_unescape(token);
    if (!text.has_value()) {
      fail(rules::kJournalFormat,
           std::string("malformed percent-escaping in ") + what +
               " token '" + std::string(token) + "'");
      ok = false;
      return;
    }
    out = std::move(*text);
  };
  switch (record.kind) {
    case Kind::kRunning:
      break;
    case Kind::kDone: {
      unescape(tokens[3], "problem", record.point.problem);
      if (!util::parse_number(tokens[4], record.point.pes) ||
          record.point.pes <= 0) {
        fail(rules::kJournalFormat, "pes must be a positive integer, got '" +
                                        std::string(tokens[4]) + "'");
        ok = false;
      }
      double* const values[] = {&record.point.measured,
                                &record.point.predicted};
      for (std::size_t i = 0; i < 2; ++i) {
        std::uint64_t bits = 0;
        if (!util::parse_hex16(tokens[5 + i], bits)) {
          fail(rules::kJournalFormat,
               "measured/predicted must be 16-hex IEEE-754 bit patterns, "
               "got '" +
                   std::string(tokens[5 + i]) + "'");
          ok = false;
        }
        *values[i] = std::bit_cast<double>(bits);
      }
      break;
    }
    case Kind::kFailed:
      if (tokens[3] == "transient" || tokens[3] == "deterministic") {
        record.transient = tokens[3] == "transient";
      } else {
        fail(rules::kJournalFormat,
             "failure class must be 'transient' or 'deterministic', got '" +
                 std::string(tokens[3]) + "'");
        ok = false;
      }
      unescape(tokens[4], "error", record.error);
      break;
    case Kind::kQuarantined:
      unescape(tokens[3], "error", record.error);
      break;
  }
  if (!ok) return std::nullopt;
  return record;
}

}  // namespace

ParsedJournal parse_journal(std::string_view text,
                            util::DiagnosticReport& report) {
  ParsedJournal parsed;
  bool cut = false;
  // Recovery keeps everything before the first invalid or torn line.
  const auto cut_at = [&](const util::TextLine& line) {
    if (cut) return;
    cut = true;
    parsed.kept_records = parsed.records.size();
    parsed.kept_bytes = line.offset;
  };
  util::LineReader reader(text);
  util::TextLine line;
  while (reader.next(line)) {
    if (!line.terminated) {
      report.warning(rules::kJournalTornTail, line_component(line.number),
                     "trailing partial record without a newline (" +
                         std::to_string(line.text.size()) +
                         " byte(s)): a torn append that recovery truncates");
      cut_at(line);
      break;
    }
    if (util::is_blank_or_comment(line.text)) continue;
    if (!parsed.has_header) {
      if (line.text != kMagic) {
        report.error(rules::kJournalFormat, line_component(line.number),
                     "expected header '" + std::string(kMagic) + "', got '" +
                         std::string(line.text) + "'");
        return parsed;
      }
      parsed.has_header = true;
      continue;
    }
    std::optional<JournalRecord> record = parse_record(line, report);
    if (!record.has_value()) {
      cut_at(line);
      continue;
    }
    parsed.records.push_back(std::move(*record));
  }
  if (!parsed.has_header) {
    report.error(rules::kJournalFormat, "journal",
                 "empty input, missing '" + std::string(kMagic) + "' header");
    return parsed;
  }
  if (!cut) {
    parsed.kept_records = parsed.records.size();
    parsed.kept_bytes = text.size();
  }
  return parsed;
}

std::uint64_t journal_checksum(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string journal_escape(std::string_view text) {
  if (text.empty()) return "%";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '%' || c == ' ' || byte < 0x20 || byte == 0x7f) {
      out += '%';
      out += kDigits[byte >> 4];
      out += kDigits[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::optional<std::string> journal_unescape(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) return std::nullopt;
    std::uint32_t byte = 0;
    if (!util::parse_number(token.substr(i + 1, 2), byte, 16)) {
      return std::nullopt;
    }
    out += static_cast<char>(byte);
    i += 2;
  }
  return out;
}

CampaignJournal::CampaignJournal(std::filesystem::path path)
    : path_(std::move(path)) {
  const std::filesystem::path parent = path_.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);

  const std::string text = util::read_text_file(path_).value_or("");

  const bool fresh = text.empty();
  if (!fresh) {
    util::DiagnosticReport report;
    const ParsedJournal parsed = parse_journal(text, report);
    // An existing file must lead with the magic line: truncating an
    // arbitrary file the user mistyped into a journal would destroy it.
    if (!parsed.has_header) {
      throw util::KrakError("not a krakjournal 1 file: " + path_.string());
    }
    // Replay records until the first invalid line, then truncate there:
    // a torn append (crash mid-write) costs exactly the torn record.
    for (std::size_t i = 0; i < parsed.kept_records; ++i) {
      apply(parsed.records[i]);
    }
    recovery_.records = parsed.kept_records;
    if (parsed.kept_bytes < text.size()) {
      recovery_.torn_tail = true;
      recovery_.dropped_bytes = text.size() - parsed.kept_bytes;
      std::error_code ec;
      std::filesystem::resize_file(path_, parsed.kept_bytes, ec);
      if (ec) {
        throw util::KrakError("cannot truncate torn journal tail of " +
                              path_.string() + ": " + ec.message());
      }
    }
    recovery_.scenarios = histories_.size();
    for (const auto& [fingerprint, history] : histories_) {
      (void)fingerprint;
      if (history.done) ++recovery_.completed;
      if (history.quarantined) ++recovery_.quarantined;
    }
  }

  bump_journal_counter("journal.recovered_records",
                       static_cast<std::int64_t>(recovery_.records));
  if (recovery_.torn_tail) bump_journal_counter("journal.recovered_torn_tail");

#if !defined(_WIN32)
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw util::KrakError("cannot open journal " + path_.string() +
                          " for appending: " + util::errno_message());
  }
#endif
  if (fresh) {
    std::string header(kMagic);
    header += '\n';
    write_raw(header);
  }
}

CampaignJournal::~CampaignJournal() {
#if !defined(_WIN32)
  if (fd_ >= 0) ::close(fd_);
#endif
}

void CampaignJournal::write_raw(std::string_view data) {
#if defined(_WIN32)
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) {
    throw util::KrakError("cannot append to journal " + path_.string());
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    throw util::KrakError("short journal append to " + path_.string());
  }
#else
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::KrakError("short journal append to " + path_.string() +
                            ": " + util::errno_message());
    }
    written += static_cast<std::size_t>(n);
  }
  // The "write-ahead" half of the contract: the record must be durable
  // before the campaign acts on the state it describes, or a crash
  // could replay work the journal claims is done.
  if (::fsync(fd_) != 0) {
    throw util::KrakError("cannot sync journal " + path_.string() + ": " +
                          util::errno_message());
  }
#endif
}

void CampaignJournal::append(const JournalRecord& record) {
  std::string line = record_body(record);
  line += ' ';
  line += util::hex16(journal_checksum(line.substr(0, line.size() - 1)));
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  write_raw(line);
  apply(record);
  bump_journal_counter("journal.appends");
}

void CampaignJournal::apply(const JournalRecord& record) {
  History& history = histories_[record.fingerprint];
  history.attempts = std::max(history.attempts, record.attempt);
  switch (record.kind) {
    case JournalRecord::Kind::kRunning:
      history.interrupted = true;  // cleared by the attempt's outcome
      break;
    case JournalRecord::Kind::kDone:
      history.interrupted = false;
      history.done = true;
      history.point = record.point;
      break;
    case JournalRecord::Kind::kFailed:
      history.interrupted = false;
      if (record.transient) {
        ++history.transient_failures;
      } else {
        ++history.deterministic_failures;
      }
      history.last_error = record.error;
      history.last_transient = record.transient;
      break;
    case JournalRecord::Kind::kQuarantined:
      history.interrupted = false;
      history.quarantined = true;
      if (!record.error.empty()) history.last_error = record.error;
      break;
  }
}

void CampaignJournal::record_running(std::uint64_t fingerprint,
                                     std::uint32_t attempt) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kRunning;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  append(record);
}

void CampaignJournal::record_done(std::uint64_t fingerprint,
                                  std::uint32_t attempt,
                                  const ValidationPoint& point) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kDone;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.point = point;
  append(record);
}

void CampaignJournal::record_failed(std::uint64_t fingerprint,
                                    std::uint32_t attempt, bool transient,
                                    std::string_view error) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kFailed;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.transient = transient;
  record.error = std::string(error);
  append(record);
}

void CampaignJournal::record_quarantined(std::uint64_t fingerprint,
                                         std::uint32_t attempt,
                                         std::string_view error) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kQuarantined;
  record.fingerprint = fingerprint;
  record.attempt = attempt;
  record.error = std::string(error);
  append(record);
}

CampaignJournal::History CampaignJournal::history(
    std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histories_.find(fingerprint);
  if (it == histories_.end()) return History{};
  return it->second;
}

}  // namespace krak::core
