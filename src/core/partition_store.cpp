#include "core/partition_store.hpp"

#include <charconv>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::core {

namespace {

void bump_store_counter(const char* name) {
  if (!obs::enabled()) return;
  obs::global_registry().counter(name).add();
}

void append_value(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

std::string line_component(std::size_t line) {
  return "store/line " + std::to_string(line);
}

bool known_method(std::string_view name) {
  using partition::PartitionMethod;
  for (const PartitionMethod method :
       {PartitionMethod::kStrip, PartitionMethod::kRcb,
        PartitionMethod::kMultilevel, PartitionMethod::kMaterialAware}) {
    if (partition::partition_method_name(method) == name) return true;
  }
  return false;
}

}  // namespace

PartitionEntry parse_partition_entry(std::string_view text,
                                     util::DiagnosticReport& report) {
  using namespace rules;
  PartitionEntry entry;
  util::LineReader reader(text);
  util::TextLine line;
  const auto next_content_line = [&] {
    while (reader.next(line)) {
      if (!util::is_blank_or_comment(line.text)) return true;
    }
    return false;
  };
  // Diagnostic text is built only here, on a violation: a clean entry
  // costs the token scan and nothing else.
  const auto error = [&](const char* rule, const std::string& message) {
    report.error(rule, line_component(line.number), message);
  };
  const auto file_error = [&](const char* rule, const std::string& message) {
    report.error(rule, "store", message);
  };

  if (!next_content_line()) {
    file_error(kPartitionStoreFormat, "empty input, missing header");
    return entry;
  }
  if (const std::string problem = util::header_error(line.text, "krakpart", 1);
      !problem.empty()) {
    error(kPartitionStoreFormat, problem);
    return entry;
  }

  // Fixed header fields, in the order the store writes them, each
  // `<key> <value>` alone on its line. A missing or malformed field
  // aborts: everything after depends on pes and cells.
  const auto header = [&](std::string_view key, std::string_view shape,
                          const auto& parse) {
    if (!next_content_line()) {
      file_error(kPartitionStoreFormat,
                 "truncated header, missing '" + std::string(key) + "'");
      return false;
    }
    util::Tokens tokens(line.text);
    std::string_view word;
    std::string_view value;
    std::string_view extra;
    if (tokens.next(word) && word == key && tokens.next(value) &&
        !tokens.next(extra) && parse(value)) {
      return true;
    }
    error(kPartitionStoreFormat, "expected '" + std::string(key) + " " +
                                     std::string(shape) + "', got '" +
                                     std::string(line.text) + "'");
    return false;
  };
  const auto hex = [](std::uint64_t& target) {
    return [&target](std::string_view v) {
      return util::parse_hex16(v, target);
    };
  };
  const bool header_ok =
      header("fingerprint", "<16 hex digits>", hex(entry.fingerprint)) &&
      header("pes", "<positive integer>",
             [&](std::string_view v) {
               return util::parse_number(v, entry.pes) && entry.pes > 0;
             }) &&
      header("method", "<name>",
             [&](std::string_view v) {
               entry.method = v;
               if (!known_method(v)) {
                 error(kPartitionStoreFormat,
                       "unknown partition method '" + entry.method + "'");
               }
               return true;
             }) &&
      header("seed", "<integer>",
             [&](std::string_view v) {
               return util::parse_number(v, entry.seed);
             }) &&
      header("cells", "<positive integer>",
             [&](std::string_view v) {
               return util::parse_number(v, entry.cells) && entry.cells > 0;
             }) &&
      header("checksum", "<16 hex digits>", hex(entry.checksum));
  if (!header_ok) return entry;
  // Every offset, part label and cell id takes at least two bytes, so
  // a count the file is too short to list is corrupt — and must not
  // size an allocation.
  const std::uint64_t listable = text.size() / 2;
  if (static_cast<std::uint64_t>(entry.pes) > listable ||
      static_cast<std::uint64_t>(entry.cells) > listable) {
    file_error(kPartitionStoreFormat,
               "pes " + std::to_string(entry.pes) + " and cells " +
                   std::to_string(entry.cells) + " cannot fit in " +
                   std::to_string(text.size()) + " bytes");
    return entry;
  }
  const auto pes = static_cast<std::size_t>(entry.pes);

  // Offsets line: pes + 1 monotone values from 0 to cells.
  if (!next_content_line()) {
    file_error(kPartitionStoreFormat, "truncated file, missing 'offsets'");
    return entry;
  }
  std::vector<std::int64_t> offsets;
  bool offsets_usable = false;
  {
    util::Tokens tokens(line.text);
    std::string_view word;
    if (!tokens.next(word) || word != "offsets") {
      error(kPartitionStoreFormat, "expected 'offsets <" +
                                       std::to_string(pes + 1) +
                                       " values>', got '" +
                                       std::string(line.text) + "'");
    } else {
      offsets.reserve(pes + 1);
      std::int64_t value = 0;
      while (tokens.next_number(value)) offsets.push_back(value);
      if (tokens.next(word)) {
        error(kPartitionStoreFormat,
              "malformed offset '" + std::string(word) + "'");
      } else if (offsets.size() != pes + 1) {
        error(kPartitionStoreOffsets,
              "expected " + std::to_string(pes + 1) + " offsets, got " +
                  std::to_string(offsets.size()));
      } else {
        offsets_usable = true;
        if (offsets.front() != 0) {
          error(kPartitionStoreOffsets, "offsets must start at 0, got " +
                                            std::to_string(offsets.front()));
        }
        if (offsets.back() != entry.cells) {
          error(kPartitionStoreOffsets,
                "offsets must end at the cell count " +
                    std::to_string(entry.cells) + ", got " +
                    std::to_string(offsets.back()));
        }
        for (std::size_t p = 0; p < pes; ++p) {
          if (offsets[p] > offsets[p + 1]) {
            error(kPartitionStoreOffsets,
                  "offsets not monotone: offsets[" + std::to_string(p) +
                      "]=" + std::to_string(offsets[p]) + " > offsets[" +
                      std::to_string(p + 1) +
                      "]=" + std::to_string(offsets[p + 1]));
            break;
          }
        }
      }
    }
  }

  // Part lines: "part <p> <cells...>", labels in sequence, each cell
  // owned exactly once. Each line carries its own cell list, so parsing
  // never depends on (possibly corrupt) offsets; offsets are
  // cross-checked against the per-line counts instead.
  entry.assignment.assign(static_cast<std::size_t>(entry.cells), -1);
  partition::PeId* const owners = entry.assignment.data();
  const std::int64_t cells = entry.cells;
  std::int64_t assigned = 0;  ///< distinct cells some part owns
  std::int64_t expected_label = 0;
  bool saw_end = false;
  while (next_content_line()) {
    util::Tokens tokens(line.text);
    std::string_view word;
    (void)tokens.next(word);  // a content line has a first token
    if (saw_end) {
      error(kPartitionStoreFormat,
            "content after 'end': '" + std::string(line.text) + "'");
      continue;
    }
    if (word == "end") {
      saw_end = true;
      continue;
    }
    if (word != "part") {
      error(kPartitionStoreFormat,
            "unknown directive '" + std::string(word) + "'");
      continue;
    }
    std::int64_t label = -1;
    if (!tokens.next_number(label)) {
      error(kPartitionStoreFormat, "expected 'part <p> <cells...>'");
      continue;
    }
    if (label != expected_label) {
      error(kPartitionStoreBounds,
            "part labels must be sequential: expected " +
                std::to_string(expected_label) + ", got " +
                std::to_string(label));
    }
    ++expected_label;
    const bool owned = label >= 0 && label < entry.pes;
    std::int64_t count = 0;
    std::int64_t cell = -1;
    for (;;) {
      if (!tokens.next_number(cell)) {
        if (!tokens.next(word)) break;  // end of the line
        error(kPartitionStoreFormat,
              "malformed cell id '" + std::string(word) + "'");
        continue;
      }
      ++count;
      if (cell < 0 || cell >= cells) {
        error(kPartitionStoreBounds, "cell " + std::to_string(cell) +
                                         " outside [0, " +
                                         std::to_string(cells) + ")");
        continue;
      }
      partition::PeId& owner = owners[cell];
      if (owner != -1) {
        error(kPartitionStoreBounds, "cell " + std::to_string(cell) +
                                         " assigned twice (already in part " +
                                         std::to_string(owner) + ")");
      } else if (owned) {
        ++assigned;
      }
      if (owned) owner = static_cast<partition::PeId>(label);
    }
    if (offsets_usable && owned) {
      const auto p = static_cast<std::size_t>(label);
      const std::int64_t declared = offsets[p + 1] - offsets[p];
      if (declared != count) {
        error(kPartitionStoreOffsets,
              "part " + std::to_string(label) + " lists " +
                  std::to_string(count) + " cell(s) but the offsets imply " +
                  std::to_string(declared));
      }
    }
  }

  if (!saw_end) {
    file_error(kPartitionStoreFormat, "missing 'end' (file truncated?)");
  }
  if (expected_label != entry.pes) {
    file_error(kPartitionStoreBounds,
               "expected " + std::to_string(entry.pes) +
                   " part line(s), got " + std::to_string(expected_label));
  }
  const std::int64_t unassigned = cells - assigned;
  if (unassigned > 0) {
    file_error(kPartitionStoreBounds,
               std::to_string(unassigned) + " cell(s) owned by no part");
  } else if (const std::uint64_t actual = partition_checksum(entry.assignment);
             actual != entry.checksum) {
    // Only a fully reconstructed assignment has a meaningful checksum;
    // coverage errors above already explain the rest.
    file_error(kPartitionStoreChecksum,
               "declared checksum " + util::hex16(entry.checksum) +
                   " does not match assignment checksum " +
                   util::hex16(actual));
  }
  return entry;
}

std::uint64_t deck_fingerprint(const mesh::InputDeck& deck) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix_bytes = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  };
  mix_bytes(deck.name().data(), deck.name().size());
  const std::int32_t nx = deck.grid().nx();
  const std::int32_t ny = deck.grid().ny();
  mix_bytes(&nx, sizeof(nx));
  mix_bytes(&ny, sizeof(ny));
  mix_bytes(deck.materials().data(),
            deck.materials().size() * sizeof(mesh::Material));
  const mesh::Point detonator = deck.detonator();
  mix_bytes(&detonator.x, sizeof(detonator.x));
  mix_bytes(&detonator.y, sizeof(detonator.y));
  return hash;
}

std::uint64_t partition_checksum(
    const std::vector<partition::PeId>& assignment) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const partition::PeId pe : assignment) {
    hash ^= static_cast<std::uint32_t>(pe);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

PartitionStore::PartitionStore(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
  // A crash between temp-file write and rename leaves an orphan `.tmp`
  // that no load ever consults; sweep them on open so an interrupted
  // run cannot accumulate dead files in the store directory.
  const std::size_t orphans = util::remove_orphan_temp_files(directory_);
  if (orphans > 0 && obs::enabled()) {
    obs::global_registry()
        .counter("partition_store.orphans_removed")
        .add(static_cast<std::int64_t>(orphans));
  }
}

std::filesystem::path PartitionStore::entry_path(const Key& key) const {
  std::string name = util::hex16(key.fingerprint);
  name += '-';
  append_value(name, static_cast<std::uint64_t>(key.pes));
  name += '-';
  name += partition::partition_method_name(key.method);
  name += '-';
  append_value(name, key.seed);
  name += ".krakpart";
  return directory_ / name;
}

std::optional<partition::Partition> PartitionStore::load(const Key& key) {
  const std::filesystem::path path = entry_path(key);
  const std::optional<std::string> text = util::read_text_file(path);
  if (!text.has_value()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
    bump_store_counter("partition_store.misses");
    return std::nullopt;
  }
  util::DiagnosticReport report;
  PartitionEntry entry = parse_partition_entry(*text, report);
  if (report.has_errors() || entry.fingerprint != key.fingerprint ||
      entry.pes != key.pes || entry.seed != key.seed ||
      entry.method != partition::partition_method_name(key.method)) {
    // Evict: a failed check means the file is corrupt or stale, and a
    // deleted entry is simply recomputed on the next run.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rejects;
    bump_store_counter("partition_store.rejects");
    return std::nullopt;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.hits;
    bump_store_counter("partition_store.hits");
  }
  return partition::Partition(entry.pes, std::move(entry.assignment));
}

void PartitionStore::save(const Key& key, const partition::Partition& part) {
  KRAK_REQUIRE(part.parts() == key.pes,
               "PartitionStore::save key/partition PE count mismatch");
  const std::vector<partition::PeId>& assignment = part.assignment();
  std::string text;
  text.reserve(assignment.size() * 8 + 64 * static_cast<std::size_t>(key.pes));
  text += "krakpart 1\nfingerprint ";
  text += util::hex16(key.fingerprint);
  text += "\npes ";
  append_value(text, static_cast<std::uint64_t>(key.pes));
  text += "\nmethod ";
  text += partition::partition_method_name(key.method);
  text += "\nseed ";
  append_value(text, key.seed);
  text += "\ncells ";
  append_value(text, static_cast<std::uint64_t>(assignment.size()));
  text += "\nchecksum ";
  text += util::hex16(partition_checksum(assignment));

  const std::vector<std::int64_t> counts = part.cell_counts();
  text += "\noffsets 0";
  std::int64_t offset = 0;
  for (const std::int64_t count : counts) {
    offset += count;
    text += ' ';
    append_value(text, static_cast<std::uint64_t>(offset));
  }
  // Cells grouped by part in ascending order: one bucket-fill pass over
  // the CSR offsets instead of one assignment scan per part.
  std::vector<std::int64_t> grouped(assignment.size());
  {
    std::vector<std::int64_t> cursor(counts.size(), 0);
    std::int64_t base = 0;
    for (std::size_t p = 0; p < counts.size(); ++p) {
      cursor[p] = base;
      base += counts[p];
    }
    for (std::size_t cell = 0; cell < assignment.size(); ++cell) {
      grouped[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(assignment[cell])]++)] =
          static_cast<std::int64_t>(cell);
    }
  }
  std::int64_t next = 0;
  for (std::int32_t p = 0; p < key.pes; ++p) {
    text += "\npart ";
    append_value(text, static_cast<std::uint64_t>(p));
    for (std::int64_t k = 0; k < counts[static_cast<std::size_t>(p)]; ++k) {
      text += ' ';
      append_value(text,
                   static_cast<std::uint64_t>(grouped[static_cast<std::size_t>(
                       next++)]));
    }
  }
  text += "\nend\n";

  // Temp-file-plus-flush-plus-rename (util::atomic_write_file) keeps a
  // crash from leaving a truncated file under a valid entry name, and
  // syncs the bytes before publishing the name so the rename can never
  // expose unsynced content. The temp name is per-entry, so concurrent
  // saves of different keys never collide; concurrent saves of the same
  // key write identical bytes.
  util::atomic_write_file(entry_path(key), text);
}

PartitionStore::Counters PartitionStore::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace krak::core
