#include "mesh/io.hpp"

#include <iomanip>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"
#include "util/text_format.hpp"

namespace krak::mesh {

namespace {

constexpr std::string_view kMagic = "krakdeck";
constexpr int kVersion = 1;

/// The `krakdeck 1` parser behind read_deck and load_deck: throws
/// KrakError("<context>malformed deck: line N: ...") on the first
/// violation.
InputDeck parse_deck(std::string_view text, const std::string& context) {
  std::string name = "unnamed";
  std::int32_t nx = 0;
  std::int32_t ny = 0;
  Point detonator;
  std::vector<Material> materials;
  bool saw_header = false;
  bool saw_grid = false;
  bool saw_materials = false;
  bool saw_end = false;

  util::LineReader reader(text);
  util::TextLine line;
  const auto fail = [&](const std::string& what) {
    throw util::KrakError(context + "malformed deck: " + what);
  };
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) fail("line " + std::to_string(line.number) + ": " + what);
  };
  while (reader.next(line)) {
    if (util::is_blank_or_comment(line.text)) continue;
    if (!saw_header) {
      const std::string problem =
          util::header_error(line.text, kMagic, kVersion);
      require(problem.empty(), problem);
      saw_header = true;
      continue;
    }
    require(!saw_end, "content after 'end'");
    const std::vector<std::string_view> tokens = util::split_tokens(line.text);
    const std::string_view key = tokens.front();
    const auto quoted = [&] { return "'" + std::string(line.text) + "'"; };
    if (key == "name") {
      require(tokens.size() == 2, "'name' needs one value, got " + quoted());
      name = tokens[1];
    } else if (key == "grid") {
      require(!saw_grid, "duplicate 'grid' line");
      require(tokens.size() == 3 && util::parse_number(tokens[1], nx) &&
                  util::parse_number(tokens[2], ny),
              "'grid' needs two integer dimensions, got " + quoted());
      require(nx > 0 && ny > 0, "non-positive grid dimensions");
      require(std::int64_t{nx} * ny <= kMaxDeckCells,
              "grid " + std::to_string(nx) + " x " + std::to_string(ny) +
                  " exceeds the limit of " + std::to_string(kMaxDeckCells) +
                  " cells");
      saw_grid = true;
    } else if (key == "detonator") {
      require(tokens.size() == 3 &&
                  util::parse_number(tokens[1], detonator.x) &&
                  util::parse_number(tokens[2], detonator.y),
              "'detonator' needs two coordinates, got " + quoted());
    } else if (key == "materials") {
      require(saw_grid, "materials before grid");
      require(!saw_materials, "duplicate 'materials' line");
      saw_materials = true;
      const auto cells = static_cast<std::size_t>(std::int64_t{nx} * ny);
      materials.reserve(cells);
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        const std::string_view token = tokens[t];
        const std::size_t x_pos = token.find('x');
        std::size_t run = 0;
        std::size_t index = 0;
        require(x_pos != std::string_view::npos &&
                    util::parse_number(token.substr(0, x_pos), run) &&
                    util::parse_number(token.substr(x_pos + 1), index),
                "bad run-length token '" + std::string(token) + "'");
        require(run > 0, "zero-length run");
        require(index < kMaterialCount,
                "unknown material index " + std::to_string(index));
        // run <= cells - size cannot overflow: size never exceeds cells.
        require(run <= cells - materials.size(), "materials exceed cell count");
        materials.insert(materials.end(), run, material_from_index(index));
      }
      require(materials.size() == cells,
              "materials cover " + std::to_string(materials.size()) +
                  " of " + std::to_string(cells) + " cells");
    } else {
      require(key == "end" && tokens.size() == 1,
              "unknown key '" + std::string(key) + "'");
      saw_end = true;
    }
  }
  if (!saw_header) fail("missing header");
  if (!saw_end) fail("missing 'end'");
  if (!saw_grid) fail("missing 'grid'");
  if (!saw_materials) fail("missing 'materials'");
  return InputDeck(name, Grid(nx, ny), std::move(materials), detonator);
}

}  // namespace

void write_deck(std::ostream& out, const InputDeck& deck) {
  out << kMagic << " " << kVersion << "\n";
  // Names are stored as a single token; whitespace becomes '_'.
  std::string name = deck.name();
  for (char& c : name) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  out << "name " << name << "\n";
  out << "grid " << deck.grid().nx() << " " << deck.grid().ny() << "\n";
  // Full precision, so the detonator reads back bit for bit.
  out << "detonator " << std::setprecision(17) << deck.detonator().x << " "
      << deck.detonator().y << "\n";
  out << "materials";
  const auto& materials = deck.materials();
  std::size_t i = 0;
  while (i < materials.size()) {
    std::size_t run = 1;
    while (i + run < materials.size() && materials[i + run] == materials[i]) {
      ++run;
    }
    out << " " << run << "x" << material_index(materials[i]);
    i += run;
  }
  out << "\nend\n";
  if (!out) throw util::KrakError("write_deck: stream failure");
}

void save_deck(const std::string& path, const InputDeck& deck) {
  util::save_text_file(path, "save_deck",
                       [&](std::ostream& out) { write_deck(out, deck); });
}

InputDeck read_deck(std::istream& in) {
  return parse_deck(util::read_stream(in), "");
}

InputDeck load_deck(const std::string& path) {
  // A truncated or corrupted file on disk names the file too.
  return parse_deck(util::load_text_file(path, "load_deck"),
                    "load_deck: " + path + ": ");
}

std::string describe_deck(const InputDeck& deck) {
  std::ostringstream os;
  os << "deck '" << deck.name() << "': " << deck.grid().nx() << " x "
     << deck.grid().ny() << " cells (" << deck.grid().num_cells()
     << " total), " << deck.grid().num_nodes() << " nodes, "
     << deck.grid().num_faces() << " faces\n";
  os << "detonator at (" << deck.detonator().x << ", " << deck.detonator().y
     << ")\n";
  const auto counts = deck.material_cell_counts();
  const auto ratios = deck.material_ratios();
  for (Material m : all_materials()) {
    const std::size_t i = material_index(m);
    os << "  " << material_name(m) << ": " << counts[i] << " cells ("
       << util::format_percent(ratios[i]) << ")\n";
  }
  return os.str();
}

}  // namespace krak::mesh
