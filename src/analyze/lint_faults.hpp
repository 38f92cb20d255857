#pragma once

#include <cstdint>
#include <string>

#include "analyze/findings.hpp"
#include "fault/plan.hpp"

namespace krak::analyze {

/// Lint a fault-injection plan (fault/plan.hpp) with
/// fault::check_fault_plan, the check a fault::InjectionEngine throws on,
/// so a driver can show every problem at once: value ranges
/// (rules::kFaultSpecRange) and injection-target existence
/// (rules::kFaultSpecTarget). `ranks` bounds the rank targets and
/// `phases_per_iteration` the phase targets; pass 0 for either to skip
/// those bound checks (e.g. when linting a spec file with no run
/// context). An empty plan adds an informational note.
[[nodiscard]] DiagnosticReport lint_faults(const fault::FaultPlan& plan,
                                           std::int32_t ranks = 0,
                                           std::int32_t phases_per_iteration = 0);

/// Read `path`, parse it with fault::parse_fault_plan (the parser
/// load_fault_plan uses; every structural problem is a
/// rules::kFaultSpecFormat error with its line) and lint the plan. A file
/// that cannot be opened is a rules::kFaultSpecFormat error naming the
/// path and the OS cause.
[[nodiscard]] DiagnosticReport lint_fault_file(const std::string& path,
                                               std::int32_t ranks = 0,
                                               std::int32_t phases_per_iteration = 0);

/// A deliberately corrupted (but parseable) fault spec exercising the
/// range and target rules.
[[nodiscard]] std::string corrupted_fault_spec_text();

}  // namespace krak::analyze
