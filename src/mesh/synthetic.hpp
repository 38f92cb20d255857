#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/deck.hpp"
#include "util/diagnostic.hpp"

namespace krak::mesh {

namespace rules {

/// Rule ids of the `kraksynth 1` parser; docs/ANALYSIS.md documents
/// them and analyze/rules.hpp re-exports them.
///
/// Structural validity of a synthetic-deck spec: magic/version header,
/// known keys, well-formed values, no duplicate grid/detonator lines,
/// terminating `end` with nothing after it.
inline constexpr const char* kSyntheticFormat = "synthetic-format";
/// The material mix must be generatable: known material indices, layer
/// fractions in (0, 1] summing to 1, and at least one grid column per
/// layer.
inline constexpr const char* kSyntheticMix = "synthetic-mix";
/// Grid dimensions must be positive, the grid must hold at most
/// kMaxDeckCells cells, and an explicit detonator must lie inside
/// the grid domain.
inline constexpr const char* kSyntheticShape = "synthetic-shape";

}  // namespace rules

/// Specification of a deterministic synthetic deck: a layered cylinder
/// like the paper's (Figure 1), but with a free grid size and material
/// mix so benches can emit meshes far past the three standard decks —
/// the 100k-rank regime needs ≥100k useful cells to partition
/// (docs/PERFORMANCE.md, "The 100k-rank regime").
///
/// Versioned plain-text format, `kraksynth 1`:
///
///   kraksynth 1
///   name synth-1024x256
///   grid 1024 256
///   layer 0 0.391
///   layer 1 0.172
///   layer 2 0.203
///   layer 3 0.234
///   detonator 0 102.4
///   end
///
/// Each `layer <material-index> <fraction>` is one radial layer, inner
/// to outer; fractions must be positive and sum to 1. Material indices
/// match the krakdeck format's. `detonator` is optional — omitted, the
/// generator uses the paper's placement (on the axis, 0.4 * ny) — and
/// must lie inside the grid. Blank lines and `#` comments may appear
/// anywhere; nothing else may follow `end`.
struct SyntheticSpec {
  /// One radial layer: a material and its fraction of the columns.
  struct Layer {
    Material material = Material::kHEGas;
    double fraction = 0.0;
  };

  std::string name = "synthetic";
  std::int32_t nx = 0;
  std::int32_t ny = 0;
  /// Inner-to-outer radial layers; see paper_synthetic_spec for the
  /// paper-shaped default mix.
  std::vector<Layer> layers;
  /// Detonator location; a negative y means "use the paper's placement"
  /// (the axis of rotation, slightly below center).
  Point detonator{0.0, -1.0};
};

/// A spec with the paper's four-layer material mix (kPaperMaterialRatios)
/// on an nx x ny grid; `name` defaults to "synthetic-NXxNY".
[[nodiscard]] SyntheticSpec paper_synthetic_spec(std::int32_t nx,
                                                 std::int32_t ny,
                                                 std::string name = "");

/// Materialize the spec into a deck: layer column breaks come from the
/// cumulative fractions (every layer keeps at least one column), and the
/// result is a pure function of the spec — bit-identical across runs,
/// platforms, and thread counts. Throws KrakError on an invalid spec
/// (no layers, non-positive fractions, fractions not summing to 1,
/// fewer columns than layers).
[[nodiscard]] InputDeck make_synthetic_deck(const SyntheticSpec& spec);

/// Serialize a spec. Throws KrakError on stream failure.
void write_synthetic(std::ostream& out, const SyntheticSpec& spec);
void save_synthetic(const std::string& path, const SyntheticSpec& spec);

/// The one `kraksynth 1` parser, shared by read_synthetic and
/// `krak_analyze --synthetic`: every violation of the rules above lands
/// in `report` as an error with its line. A missing or wrong header
/// stops the parse.
[[nodiscard]] SyntheticSpec parse_synthetic(std::string_view text,
                                            util::DiagnosticReport& report);

/// Parse a spec; throws KrakError naming the first error parse_synthetic
/// reports (wrong magic, unknown key, bad layer index, fractions that
/// cannot form a deck, a detonator outside the grid, ...).
[[nodiscard]] SyntheticSpec read_synthetic(std::istream& in);
[[nodiscard]] SyntheticSpec load_synthetic(const std::string& path);

}  // namespace krak::mesh
