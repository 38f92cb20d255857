#include "mesh/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::mesh {

using util::check;

namespace {

constexpr std::string_view kMagic = "kraksynth";
constexpr int kVersion = 1;
/// Slack allowed on the layer-fraction sum: generous enough for decimal
/// round-trips, far tighter than any real mix error.
constexpr double kMixTolerance = 1e-6;

std::string line_component(std::size_t line) {
  return "synthetic/line " + std::to_string(line);
}

/// parse_synthetic, throwing "<context>malformed synthetic spec: ..." on
/// its first error.
SyntheticSpec parse_or_throw(std::string_view text,
                             const std::string& context) {
  util::DiagnosticReport report;
  SyntheticSpec spec = parse_synthetic(text, report);
  report.throw_first_error(context + "malformed synthetic spec");
  return spec;
}

void check_spec(const SyntheticSpec& spec) {
  check(spec.nx > 0 && spec.ny > 0, "synthetic grid must be positive");
  check(std::int64_t{spec.nx} * spec.ny <= kMaxDeckCells,
        "synthetic grid exceeds kMaxDeckCells");
  check(!spec.layers.empty(), "synthetic spec needs at least one layer");
  check(static_cast<std::size_t>(spec.nx) >= spec.layers.size(),
        "synthetic deck needs at least one column per layer");
  double sum = 0.0;
  for (const SyntheticSpec::Layer& layer : spec.layers) {
    check(layer.fraction > 0.0, "layer fractions must be positive");
    sum += layer.fraction;
  }
  check(std::abs(sum - 1.0) <= kMixTolerance,
        "layer fractions must sum to 1");
}

}  // namespace

SyntheticSpec paper_synthetic_spec(std::int32_t nx, std::int32_t ny,
                                   std::string name) {
  SyntheticSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.name = name.empty() ? "synthetic-" + std::to_string(nx) + "x" +
                                 std::to_string(ny)
                           : std::move(name);
  for (Material m : all_materials()) {
    spec.layers.push_back({m, kPaperMaterialRatios[material_index(m)]});
  }
  return spec;
}

InputDeck make_synthetic_deck(const SyntheticSpec& spec) {
  check_spec(spec);
  Grid grid(spec.nx, spec.ny);
  const auto layer_count = static_cast<std::int32_t>(spec.layers.size());

  // Column breaks from the cumulative fractions, clamped so every layer
  // keeps at least one column even on tiny grids (the same scheme as
  // make_cylindrical_deck, generalized to any mix).
  std::vector<std::int32_t> breaks(spec.layers.size());
  double cumulative = 0.0;
  for (std::int32_t l = 0; l < layer_count; ++l) {
    cumulative += spec.layers[static_cast<std::size_t>(l)].fraction;
    const auto target = static_cast<std::int32_t>(
        std::lround(cumulative * static_cast<double>(spec.nx)));
    const std::int32_t lowest = l + 1;
    const std::int32_t highest = spec.nx - (layer_count - 1 - l);
    std::int32_t at = std::clamp(target, lowest, highest);
    if (l > 0) at = std::max(at, breaks[static_cast<std::size_t>(l - 1)] + 1);
    breaks[static_cast<std::size_t>(l)] = at;
  }
  breaks.back() = spec.nx;

  std::vector<Material> materials(static_cast<std::size_t>(grid.num_cells()));
  for (std::int32_t j = 0; j < spec.ny; ++j) {
    std::int32_t layer = 0;
    for (std::int32_t i = 0; i < spec.nx; ++i) {
      while (i >= breaks[static_cast<std::size_t>(layer)]) ++layer;
      materials[static_cast<std::size_t>(grid.cell_at(i, j))] =
          spec.layers[static_cast<std::size_t>(layer)].material;
    }
  }

  const Point detonator =
      spec.detonator.y < 0.0
          ? Point{0.0, 0.4 * static_cast<double>(spec.ny)}
          : spec.detonator;
  return InputDeck(spec.name, grid, std::move(materials), detonator);
}

void write_synthetic(std::ostream& out, const SyntheticSpec& spec) {
  out << kMagic << " " << kVersion << "\n";
  // Names are single tokens, like the krakdeck format's.
  std::string name = spec.name;
  for (char& c : name) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  out << "name " << name << "\n";
  out << "grid " << spec.nx << " " << spec.ny << "\n";
  // Full precision, so fractions and the detonator read back bit for bit.
  out << std::setprecision(17);
  for (const SyntheticSpec::Layer& layer : spec.layers) {
    out << "layer " << material_index(layer.material) << " " << layer.fraction
        << "\n";
  }
  if (spec.detonator.y >= 0.0) {
    out << "detonator " << spec.detonator.x << " " << spec.detonator.y << "\n";
  }
  out << "end\n";
  if (!out) throw util::KrakError("write_synthetic: stream failure");
}

void save_synthetic(const std::string& path, const SyntheticSpec& spec) {
  util::save_text_file(path, "save_synthetic",
                       [&](std::ostream& out) { write_synthetic(out, spec); });
}

SyntheticSpec parse_synthetic(std::string_view text,
                              util::DiagnosticReport& report) {
  using namespace rules;
  SyntheticSpec spec;
  spec.name = "unnamed";
  bool saw_header = false;
  bool saw_grid = false;
  bool saw_detonator = false;
  bool saw_end = false;
  std::size_t layer_lines = 0;
  double fraction_sum = 0.0;
  std::size_t detonator_line = 0;

  util::LineReader reader(text);
  util::TextLine line;
  const auto error = [&](const char* rule, const std::string& message) {
    report.error(rule, line_component(line.number), message);
  };
  while (reader.next(line)) {
    if (util::is_blank_or_comment(line.text)) continue;
    const std::vector<std::string_view> tokens = util::split_tokens(line.text);
    const std::string key(tokens.front());
    const auto quoted = [&] { return "'" + std::string(line.text) + "'"; };
    if (!saw_header) {
      const std::string problem =
          util::header_error(line.text, kMagic, kVersion);
      if (!problem.empty()) {
        error(kSyntheticFormat, problem);
        return spec;
      }
      saw_header = true;
      continue;
    }
    if (saw_end) {
      error(kSyntheticFormat, "content after 'end': " + quoted());
      continue;
    }

    if (key == "name") {
      if (tokens.size() != 2) {
        error(kSyntheticFormat, "'name' needs one value, got " + quoted());
        continue;
      }
      spec.name = tokens[1];
    } else if (key == "grid") {
      if (saw_grid) {
        error(kSyntheticFormat, "duplicate 'grid' line");
        continue;
      }
      if (tokens.size() != 3 || !util::parse_number(tokens[1], spec.nx) ||
          !util::parse_number(tokens[2], spec.ny)) {
        error(kSyntheticFormat,
              "'grid' needs two integer dimensions, got " + quoted());
        continue;
      }
      saw_grid = true;
      if (spec.nx <= 0 || spec.ny <= 0) {
        error(kSyntheticShape, "grid dimensions must be positive, got " +
                                   std::to_string(spec.nx) + " x " +
                                   std::to_string(spec.ny));
      } else if (std::int64_t{spec.nx} * spec.ny > kMaxDeckCells) {
        error(kSyntheticShape,
              "grid " + std::to_string(spec.nx) + " x " +
                  std::to_string(spec.ny) + " exceeds the limit of " +
                  std::to_string(kMaxDeckCells) + " cells");
      }
    } else if (key == "layer") {
      std::int64_t index = -1;
      double fraction = 0.0;
      if (tokens.size() != 3 || !util::parse_number(tokens[1], index) ||
          !util::parse_number(tokens[2], fraction)) {
        error(kSyntheticFormat,
              "'layer' needs a material index and a fraction, got " + quoted());
        continue;
      }
      ++layer_lines;
      const bool known =
          index >= 0 && index < static_cast<std::int64_t>(kMaterialCount);
      if (!known) {
        error(kSyntheticMix, "material index " + std::to_string(index) +
                                 " outside [0, " +
                                 std::to_string(kMaterialCount) + ")");
      }
      if (fraction <= 0.0 || fraction > 1.0) {
        error(kSyntheticMix, "layer fraction must lie in (0, 1], got " +
                                 std::to_string(fraction));
      } else {
        fraction_sum += fraction;
      }
      if (known) {
        spec.layers.push_back(
            {material_from_index(static_cast<std::size_t>(index)), fraction});
      }
    } else if (key == "detonator") {
      if (saw_detonator) {
        error(kSyntheticFormat, "duplicate 'detonator' line");
        continue;
      }
      if (tokens.size() != 3 ||
          !util::parse_number(tokens[1], spec.detonator.x) ||
          !util::parse_number(tokens[2], spec.detonator.y)) {
        error(kSyntheticFormat,
              "'detonator' needs two coordinates, got " + quoted());
        continue;
      }
      saw_detonator = true;
      detonator_line = line.number;
    } else if (key == "end") {
      saw_end = true;
      if (tokens.size() != 1) {
        error(kSyntheticFormat, "'end' takes no value, got " + quoted());
      }
    } else {
      error(kSyntheticFormat, "unknown key '" + key + "'");
    }
  }

  const auto file_error = [&](const char* rule, const std::string& message) {
    report.error(rule, "synthetic", message);
  };
  if (!saw_header) {
    file_error(kSyntheticFormat, "empty input, missing '" +
                                     std::string(kMagic) + " " +
                                     std::to_string(kVersion) + "' header");
    return spec;
  }
  if (!saw_end) file_error(kSyntheticFormat, "missing 'end'");
  if (!saw_grid) file_error(kSyntheticFormat, "missing 'grid'");
  if (layer_lines == 0) {
    file_error(kSyntheticFormat, "missing 'layer' lines");
  } else if (std::abs(fraction_sum - 1.0) > kMixTolerance) {
    file_error(kSyntheticMix, "layer fractions sum to " +
                                  std::to_string(fraction_sum) +
                                  ", expected 1");
  }
  if (saw_grid && spec.nx > 0 &&
      static_cast<std::size_t>(spec.nx) < layer_lines) {
    file_error(kSyntheticMix,
               "only " + std::to_string(spec.nx) + " column(s) for " +
                   std::to_string(layer_lines) +
                   " layer(s); every layer needs at least one column");
  }
  const Point det = spec.detonator;
  if (saw_detonator && saw_grid && spec.nx > 0 && spec.ny > 0 &&
      (det.x < 0.0 || det.x > static_cast<double>(spec.nx) || det.y < 0.0 ||
       det.y > static_cast<double>(spec.ny))) {
    std::ostringstream os;
    os << "detonator (" << det.x << ", " << det.y
       << ") outside the grid domain [0, " << spec.nx << "] x [0, "
       << spec.ny << "]";
    report.error(kSyntheticShape, line_component(detonator_line), os.str());
  }
  return spec;
}

SyntheticSpec read_synthetic(std::istream& in) {
  return parse_or_throw(util::read_stream(in), "");
}

SyntheticSpec load_synthetic(const std::string& path) {
  return parse_or_throw(util::load_text_file(path, "load_synthetic"),
                        "load_synthetic: " + path + ": ");
}

}  // namespace krak::mesh
