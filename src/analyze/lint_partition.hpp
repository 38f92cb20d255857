#pragma once

#include <span>

#include "analyze/findings.hpp"
#include "mesh/deck.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"

namespace krak::analyze {

/// Lint a cell-to-PE assignment against its deck, then compute the
/// subdomain statistics and lint those too (cell/material conservation,
/// ghost-node and shared-face invariants, boundary symmetry).
void lint_partition(const mesh::InputDeck& deck,
                    const partition::Partition& partition,
                    DiagnosticReport& report);

/// Lint pre-computed subdomain statistics against the deck. Split out so
/// tests (and trace importers) can feed hand-built or corrupted
/// SubdomainInfo records: the checks are exactly the invariants the
/// communication model of Sections 4.1-4.2 relies on.
///
/// - cell-conservation: per-PE cell totals sum to the deck's cells;
/// - material-conservation: per-PE, per-material counts sum to the
///   deck's per-material counts;
/// - empty-subdomain: no PE owns zero cells;
/// - face-group-sum: per-group boundary faces sum to the boundary total;
/// - ghost-face-consistency: a boundary of f faces has between
///   ceil(f/2) and 2f ghost nodes. An open run of k faces carries k+1
///   nodes (the faces+1 rule), but closed loops and runs meeting at
///   diagonal corners legally fall below f+1, so only the hard
///   topological bounds are errors;
/// - boundary-symmetry: pe a's boundary with b mirrors b's with a in
///   face count and ghost-node total, and the two sides together own at
///   most every shared node (a corner node may be owned by a third PE,
///   so the ownership split itself need not mirror).
void lint_subdomains(const mesh::InputDeck& deck,
                     std::span<const partition::SubdomainInfo> subdomains,
                     DiagnosticReport& report);

}  // namespace krak::analyze
