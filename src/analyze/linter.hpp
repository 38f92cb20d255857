#pragma once

#include <cstdint>

#include "analyze/findings.hpp"
#include "core/cost_table.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"

namespace krak::analyze {

/// Everything the model linter can look at. Only `deck` is mandatory;
/// absent pieces are skipped, so drivers lint exactly what they built.
/// Pointees must outlive the lint call; nothing is copied.
struct LintInput {
  const mesh::InputDeck* deck = nullptr;
  const partition::Partition* partition = nullptr;
  const network::MachineConfig* machine = nullptr;
  const core::CostTable* costs = nullptr;
  const simapp::SimKrakOptions* options = nullptr;
  /// Intended run size; <= 0 means the whole machine (when given).
  std::int32_t pes = 0;
};

/// Statically validate a model-input bundle before any simulation or
/// prediction runs: deck shape and detonator placement, partition
/// conservation and ghost/face invariants, machine shape and collective
/// tree coverage, cost-curve monotonicity and knees, and Tmsg unit
/// checks. Returns the severity-ranked findings; a report with
/// has_errors() means predictions from these inputs are meaningless.
[[nodiscard]] DiagnosticReport lint_model(const LintInput& input);

}  // namespace krak::analyze
