// Loader/linter agreement for the formats with one shared parser
// (docs/ANALYSIS.md, "One parser per format"): over deterministic
// mutants of a writer-produced file and of the corrupted fixture, each
// loader accepts a file exactly when its linter reports no errors —
// apart from the rules only the linter checks, listed per format. The
// loader-only formats (krakdeck, krakcosts) get the same mutants and
// must either load or throw util::KrakError.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/lint_faults.hpp"
#include "analyze/lint_journal.hpp"
#include "analyze/lint_partition_store.hpp"
#include "analyze/lint_synthetic.hpp"
#include "analyze/rules.hpp"
#include "core/campaign_journal.hpp"
#include "core/partition_store.hpp"
#include "core/table_io.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "mesh/io.hpp"
#include "mesh/synthetic.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace krak::analyze {
namespace {

namespace fs = std::filesystem;

/// The lines of `text`, each with its '\n' (the last may lack one).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::size_t stop = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(pos, stop - pos));
    pos = stop;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// [begin, end) byte spans of every whitespace-separated token.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && space(text[pos])) ++pos;
    const std::size_t start = pos;
    while (pos < text.size() && !space(text[pos])) ++pos;
    if (pos > start) spans.emplace_back(start, pos);
  }
  return spans;
}

/// A non-number, a negative, 2^63 (one past int64's range), the
/// non-finite numbers and a negative zero.
constexpr const char* kReplacements[] = {"x",   "-1",  "9223372036854775808",
                                         "nan", "inf", "-0"};

/// Every single mutation of `text`: truncation at each line boundary
/// and halfway through each line (a torn append), each line deleted or
/// duplicated, each token replaced, and the value half of each
/// `key=value` token replaced.
std::vector<std::string> single_mutants(const std::string& text) {
  std::vector<std::string> out;
  const std::vector<std::string> lines = split_lines(text);
  std::string prefix;
  out.push_back(prefix);
  for (const std::string& line : lines) {
    out.push_back(prefix + line.substr(0, line.size() / 2));
    prefix += line;
    out.push_back(prefix);
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> deleted = lines;
    deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(join(deleted));
    std::vector<std::string> duplicated = lines;
    std::string copy = lines[i];
    if (copy.back() != '\n') copy += '\n';
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i),
                      copy);
    out.push_back(join(duplicated));
  }
  for (const auto& [begin, end] : token_spans(text)) {
    const std::size_t eq = text.find('=', begin);
    for (const char* replacement : kReplacements) {
      out.push_back(text.substr(0, begin) + replacement + text.substr(end));
      if (eq < end) {
        out.push_back(text.substr(0, eq + 1) + replacement + text.substr(end));
      }
    }
  }
  return out;
}

/// The single mutants of every base, plus a seeded batch of double
/// mutants (a random single mutant of a random single mutant).
std::vector<std::string> mutants(const std::vector<std::string>& bases,
                                 std::uint64_t seed) {
  std::vector<std::string> out;
  for (const std::string& base : bases) {
    out.push_back(base);
    const std::vector<std::string> singles = single_mutants(base);
    out.insert(out.end(), singles.begin(), singles.end());
  }
  util::Rng rng(seed);
  const std::size_t singles = out.size();
  for (int i = 0; i < 200; ++i) {
    const std::string& first = out[rng.next_below(singles)];
    const std::vector<std::string> seconds = single_mutants(first);
    if (seconds.empty()) continue;
    out.push_back(seconds[rng.next_below(seconds.size())]);
  }
  return out;
}

std::size_t loader_errors(const DiagnosticReport& report,
                          const std::vector<std::string_view>& linter_only) {
  return static_cast<std::size_t>(std::count_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [&](const Diagnostic& d) {
        return d.severity == Severity::kError &&
               std::find(linter_only.begin(), linter_only.end(), d.rule) ==
                   linter_only.end();
      }));
}

struct Format {
  std::vector<std::string> bases;  ///< writer output + corrupted fixture
  std::function<DiagnosticReport(const std::string&)> lint;
  std::function<bool(const std::string&)> loads;
  /// Rules the loader cannot know; the agreement leaves them out.
  std::vector<std::string_view> linter_only;
};

void expect_agreement(const Format& format, std::uint64_t seed) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& text : mutants(format.bases, seed)) {
    const DiagnosticReport report = format.lint(text);
    const bool lints_clean = loader_errors(report, format.linter_only) == 0;
    const bool loads = format.loads(text);
    EXPECT_EQ(loads, lints_clean)
        << "loader " << (loads ? "accepts" : "rejects") << " but linter says\n"
        << report.to_text() << "for:\n"
        << text;
    ++(loads ? accepted : rejected);
  }
  // Both outcomes must occur, or the property holds vacuously.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// The loader-only formats: every mutant either loads or throws
/// util::KrakError — never another exception, a crash or a huge
/// allocation. Both outcomes must occur.
void expect_loads_or_krak_error(
    const std::vector<std::string>& bases,
    const std::function<void(const std::string&)>& load, std::uint64_t seed) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& text : mutants(bases, seed)) {
    try {
      load(text);
      ++accepted;
    } catch (const util::KrakError&) {
      ++rejected;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "non-KrakError exception '" << error.what()
                    << "' for:\n"
                    << text;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

class FormatAgreement : public ::testing::Test {
 protected:
  FormatAgreement()
      : directory_(fs::path(::testing::TempDir()) /
                   ("krak_agreement_" +
                    std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()))) {
    fs::remove_all(directory_);
    fs::create_directories(directory_);
  }
  ~FormatAgreement() override {
    std::error_code ec;
    fs::remove_all(directory_, ec);
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  static void write(const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  fs::path directory_;
};

TEST_F(FormatAgreement, JournalRecoveryKeepsAllExactlyWhenLintClean) {
  const fs::path written = directory_ / "written.krakjournal";
  {
    core::CampaignJournal journal(written);
    core::ValidationPoint point;
    point.problem = "small problem (16 PEs)";
    point.pes = 16;
    point.measured = 1.25;
    point.predicted = 1.5;
    journal.record_running(0xau, 1);
    journal.record_failed(0xau, 1, /*transient=*/true, "deadline");
    journal.record_running(0xau, 2);
    journal.record_done(0xau, 2, point);
    journal.record_running(0xbu, 1);
    journal.record_failed(0xbu, 1, /*transient=*/false, "rank 3 hang");
    journal.record_quarantined(0xbu, 1, "rank 3 hang");
  }
  const fs::path path = directory_ / "mutant.krakjournal";
  Format format;
  format.bases = {slurp(written), corrupted_journal_text()};
  format.lint = [](const std::string& text) { return lint_journal(text); };
  // Recovery "accepts" a journal when it replays every complete line:
  // it may drop only a torn (unterminated) last line, which the linter
  // reports as a warning. An empty file is no journal — the loader
  // starts a fresh one there.
  format.loads = [&path](const std::string& text) {
    write(path, text);
    if (text.empty()) return false;
    const std::size_t eol = text.rfind('\n');
    const std::size_t torn =
        text.size() - (eol == std::string::npos ? 0 : eol + 1);
    try {
      const core::CampaignJournal journal(path);
      return journal.recovery().dropped_bytes == torn;
    } catch (const util::KrakError&) {
      return false;
    }
  };
  format.linter_only = {rules::kJournalStateMachine};
  expect_agreement(format, 12);
}

TEST_F(FormatAgreement, PartitionStoreLoadsExactlyWhenLintClean) {
  core::PartitionStore store(directory_);
  core::PartitionStore::Key key;
  key.fingerprint = 0x00c0ffee00000001ull;
  key.pes = 3;
  key.method = partition::PartitionMethod::kRcb;
  key.seed = 7;
  store.save(key, partition::Partition(3, {0, 0, 1, 2, 1, 0, 2, 2, 1, 0}));

  Format format;
  format.bases = {slurp(store.entry_path(key)),
                  corrupted_partition_store_text()};
  format.lint = [](const std::string& text) {
    return lint_partition_store(text);
  };
  // The loader also checks that a file's header names the key it is
  // loaded under; the linter cannot know that key. So each mutant is
  // loaded under the key its own header names, and only its content
  // is judged.
  format.loads = [&store, key](const std::string& text) {
    DiagnosticReport ignored;
    const core::PartitionEntry named =
        core::parse_partition_entry(text, ignored);
    core::PartitionStore::Key own = key;
    own.fingerprint = named.fingerprint;
    own.pes = named.pes;
    own.seed = named.seed;
    for (const partition::PartitionMethod method :
         {partition::PartitionMethod::kStrip, partition::PartitionMethod::kRcb,
          partition::PartitionMethod::kMultilevel,
          partition::PartitionMethod::kMaterialAware}) {
      if (partition::partition_method_name(method) == named.method) {
        own.method = method;
      }
    }
    write(store.entry_path(own), text);
    return store.load(own).has_value();
  };
  expect_agreement(format, 13);
}

TEST_F(FormatAgreement, SyntheticReadsExactlyWhenLintClean) {
  std::ostringstream paper;
  mesh::write_synthetic(paper, mesh::paper_synthetic_spec(64, 32));
  mesh::SyntheticSpec placed = mesh::paper_synthetic_spec(48, 24, "placed");
  placed.detonator = mesh::Point{1.0, 12.5};
  std::ostringstream with_detonator;
  mesh::write_synthetic(with_detonator, placed);

  Format format;
  format.bases = {paper.str(), with_detonator.str(),
                  corrupted_synthetic_text()};
  format.lint = [](const std::string& text) { return lint_synthetic(text); };
  // Accepted specs must also generate: the parser may not pass what
  // make_synthetic_deck refuses.
  format.loads = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)mesh::make_synthetic_deck(mesh::read_synthetic(in));
      return true;
    } catch (const util::KrakError&) {
      return false;
    }
  };
  expect_agreement(format, 14);
}

TEST_F(FormatAgreement, FaultPlanLoadsAndCompilesExactlyWhenLintClean) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.slowdowns.push_back({2, 1.5});
  plan.noise.push_back({fault::kAllRanks, 1e-3, 25e-6});
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 4;
  delay.iteration = 1;
  delay.seconds = 2e-3;
  plan.delays.push_back(delay);
  fault::MessageFaultModel messages;
  messages.drop_probability = 0.05;
  messages.extra_delay_s = 1e-6;
  plan.message_faults.push_back(messages);
  plan.degrades.push_back({3, 0.25});
  fault::RankCrash crash;
  crash.rank = 1;
  crash.phase = 9;
  crash.restart_s = 0.05;
  crash.checkpoint_interval_s = 0.4;
  plan.crashes.push_back(crash);
  plan.max_sim_seconds = 10.0;
  std::ostringstream written;
  fault::write_fault_plan(written, plan);

  constexpr std::int32_t kRanks = 8;
  const fs::path path = directory_ / "mutant.krakfaults";
  Format format;
  format.bases = {written.str(), corrupted_fault_spec_text()};
  format.lint = [&path](const std::string& text) {
    write(path, text);
    return lint_fault_file(path.string(), kRanks, simapp::kPhaseCount);
  };
  // What `krak_bench --faults` runs: load the plan, then compile it for
  // the run.
  format.loads = [&path](const std::string& text) {
    write(path, text);
    try {
      const fault::InjectionEngine engine(
          fault::load_fault_plan(path.string()), kRanks, simapp::kPhaseCount);
      return true;
    } catch (const util::KrakError&) {
      return false;
    }
  };
  expect_agreement(format, 15);
}

TEST(LoaderOnlyFormats, DeckMutantsLoadOrThrowKrakError) {
  std::ostringstream layered;
  mesh::write_deck(layered, mesh::make_cylindrical_deck(12, 6));
  std::ostringstream uniform;
  mesh::write_deck(uniform,
                   mesh::make_uniform_deck(4, 3, mesh::Material::kFoam));
  expect_loads_or_krak_error(
      {layered.str(), uniform.str()},
      [](const std::string& text) {
        std::istringstream in(text);
        (void)mesh::read_deck(in);
      },
      16);
}

TEST(LoaderOnlyFormats, CostTableMutantsLoadOrThrowKrakError) {
  core::CostTable table;
  table.add_sample(1, mesh::Material::kHEGas, 16.0, 1.5e-6);
  table.add_sample(1, mesh::Material::kHEGas, 256.0, 0.75e-6);
  table.add_sample(9, mesh::Material::kFoam, 64.0, 3.25e-7);
  std::ostringstream written;
  core::write_cost_table(written, table);
  expect_loads_or_krak_error(
      {written.str()},
      [](const std::string& text) {
        std::istringstream in(text);
        (void)core::read_cost_table(in);
      },
      17);
}

}  // namespace
}  // namespace krak::analyze
