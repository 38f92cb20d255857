#pragma once

#include "util/diagnostic.hpp"

namespace krak::analyze {

// The report type lives in util so the file-format parsers below
// analyze can fill it; the linters keep using it under these names.
using util::Diagnostic;
using util::DiagnosticReport;
using util::Severity;
using util::severity_name;

}  // namespace krak::analyze
