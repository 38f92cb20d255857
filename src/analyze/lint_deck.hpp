#pragma once

#include "analyze/findings.hpp"
#include "mesh/deck.hpp"

namespace krak::analyze {

/// Lint an input deck (Section 2.1): the detonator must sit inside the
/// grid on a high-explosive cell, HE gas must be present for a
/// detonation problem, and the grid shape must be usable.
void lint_deck(const mesh::InputDeck& deck, DiagnosticReport& report);

}  // namespace krak::analyze
