#pragma once

#include <string>
#include <utility>

#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::analyze {

// The report type lives in util so the file-format parsers below
// analyze can fill it; the linters keep using it under these names.
using util::Diagnostic;
using util::DiagnosticReport;
using util::Severity;
using util::severity_name;

/// The `lint_*_file` wrappers: `lint(text)`'s report for the file at
/// `path`, or a report whose one `rule` error says it cannot be opened.
template <typename Lint>
[[nodiscard]] DiagnosticReport lint_text_file(const std::string& path,
                                              std::string rule,
                                              std::string component,
                                              const Lint& lint) {
  if (const auto text = util::read_text_file(path)) return lint(*text);
  DiagnosticReport report;
  report.error(std::move(rule), std::move(component),
               "cannot open " + path + ": " + util::errno_message());
  return report;
}

}  // namespace krak::analyze
