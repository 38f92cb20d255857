#include "core/table_io.hpp"

#include <iomanip>

#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::core {

namespace {

constexpr std::string_view kMagic = "krakcosts";
constexpr int kVersion = 1;

/// The `krakcosts 1` parser behind read_cost_table and load_cost_table:
/// throws KrakError("<context>malformed cost table: line N: ...") on the
/// first violation.
CostTable parse_cost_table(std::string_view text, const std::string& context) {
  CostTable table;
  bool saw_header = false;
  bool saw_end = false;
  util::LineReader reader(text);
  util::TextLine line;
  const auto fail = [&](const std::string& what) {
    throw util::KrakError(context + "malformed cost table: " + what);
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
    if (tokens.size() == 1 && tokens[0] == "end") {
      saw_end = true;
      continue;
    }
    require(tokens[0] == "sample",
            "unknown key '" + std::string(tokens[0]) + "'");
    std::int32_t phase = 0;
    std::size_t material_index = 0;
    double cells = 0.0;
    double cost = 0.0;
    require(tokens.size() == 5 && util::parse_number(tokens[1], phase) &&
                util::parse_number(tokens[2], material_index) &&
                util::parse_number(tokens[3], cells) &&
                util::parse_number(tokens[4], cost),
            "expected 'sample <phase> <material-index> <cells> "
            "<per-cell-seconds>', got '" +
                std::string(line.text) + "'");
    require(phase >= 1 && phase <= simapp::kPhaseCount,
            "phase out of range: " + std::to_string(phase));
    require(material_index < mesh::kMaterialCount,
            "material index out of range: " + std::to_string(material_index));
    require(cells > 0.0, "non-positive sample size");
    require(cost >= 0.0, "negative per-cell cost");
    table.add_sample(phase, mesh::material_from_index(material_index), cells,
                     cost);
  }
  if (!saw_header) fail("missing header");
  if (!saw_end) fail("missing 'end'");
  return table;
}

}  // namespace

void write_cost_table(std::ostream& out, const CostTable& table) {
  out << kMagic << " " << kVersion << "\n";
  out << std::setprecision(17);
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (mesh::Material material : mesh::all_materials()) {
      const auto cells = table.sample_cells(phase, material);
      const auto costs = table.sample_costs(phase, material);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        out << "sample " << phase << " " << mesh::material_index(material)
            << " " << cells[i] << " " << costs[i] << "\n";
      }
    }
  }
  out << "end\n";
  if (!out) throw util::KrakError("write_cost_table: stream failure");
}

void save_cost_table(const std::string& path, const CostTable& table) {
  util::save_text_file(path, "save_cost_table", [&](std::ostream& out) {
    write_cost_table(out, table);
  });
}

CostTable read_cost_table(std::istream& in) {
  return parse_cost_table(util::read_stream(in), "");
}

CostTable load_cost_table(const std::string& path) {
  // Name the file in parse errors so a truncated table on disk is a
  // one-line diagnosis, not a hunt.
  return parse_cost_table(util::load_text_file(path, "load_cost_table"),
                          "load_cost_table: " + path + ": ");
}

}  // namespace krak::core
