#pragma once

#include <cstdint>
#include <vector>

#include "analyze/findings.hpp"
#include "core/cost_table.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/stats.hpp"
#include "simapp/simkrak.hpp"

namespace krak::analyze {

/// A deliberately corrupted model-input bundle used to exercise the
/// linter end to end (tests and `krak_analyze --deck corrupted`). Every
/// field violates at least one documented rule; lint_fixture() must
/// flag all of them and docs/ANALYSIS.md lists the expected findings.
struct CorruptedFixture {
  mesh::InputDeck deck;
  /// Hand-built subdomain statistics that no real PartitionStats would
  /// produce (lost cells, impossible ghost counts, one-sided boundary).
  std::vector<partition::SubdomainInfo> subdomains;
  network::MachineConfig machine;
  core::CostTable costs;
  simapp::SimKrakOptions options;
  std::int32_t pes = 0;
};

[[nodiscard]] CorruptedFixture make_corrupted_fixture();

/// Lint every piece of the fixture (including the hand-built subdomain
/// statistics, which bypass the Partition type on purpose).
[[nodiscard]] DiagnosticReport lint_fixture(const CorruptedFixture& fixture);

}  // namespace krak::analyze
