#pragma once

#include <cstdint>

#include "analyze/findings.hpp"
#include "network/machine.hpp"

namespace krak::analyze {

/// Lint a machine description and an intended run size: positive node /
/// PE / speedup counts, the run fitting on the machine, binary
/// collective-tree coverage of all `pes` ranks (Section 4.3), and the
/// unit checks of the interconnect's Tmsg tables. `pes <= 0` means
/// "whole machine".
void lint_machine(const network::MachineConfig& machine, std::int32_t pes,
                  DiagnosticReport& report);

}  // namespace krak::analyze
