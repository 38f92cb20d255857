#pragma once

#include <array>
#include <string_view>

#include "analyze/findings.hpp"
#include "core/cost_table.hpp"
#include "mesh/material.hpp"
#include "network/msgmodel.hpp"

namespace krak::analyze {

/// Which materials a cost table must cover. Defaults to all four; the
/// linter narrows this to the materials present in the deck, since
/// calibration from a deck can only learn costs for materials it saw.
using MaterialMask = std::array<bool, mesh::kMaterialCount>;

inline constexpr MaterialMask kAllMaterials = {true, true, true, true};

/// Lint the calibrated computation-cost database (Equation 2's T()):
/// sample coverage per (phase, required material), positive finite
/// costs, total subgrid cost monotone in cell count, and single-knee
/// consistency of each per-cell curve.
///
/// Exact-zero samples are reported as notes, not errors: non-negative
/// least squares (calibration Method 2) legitimately zeroes a material's
/// column in phases whose cost is material-independent.
void lint_cost_table(const core::CostTable& table, DiagnosticReport& report,
                     const MaterialMask& required = kAllMaterials);

/// Lint a point-to-point message cost model (Equation 4's
/// Tmsg(S) = L(S) + S*TB(S)): non-negative terms, Tmsg non-decreasing in
/// S, and unit/dimension plausibility of L and TB. `component` prefixes
/// the finding locations (e.g. "machine/network").
void lint_message_model(const network::MessageCostModel& model,
                        std::string_view component, DiagnosticReport& report);

}  // namespace krak::analyze
