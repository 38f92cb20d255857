#include "analyze/lint_synthetic.hpp"

#include "analyze/rules.hpp"
#include "mesh/synthetic.hpp"

namespace krak::analyze {

DiagnosticReport lint_synthetic(std::string_view text) {
  DiagnosticReport report;
  (void)mesh::parse_synthetic(text, report);
  return report;
}

DiagnosticReport lint_synthetic_file(const std::string& path) {
  return lint_text_file(path, rules::kSyntheticFormat, "synthetic",
                        lint_synthetic);
}

std::string corrupted_synthetic_text() {
  // One violation per rule; the inline notes name the rule each line
  // trips.
  return "kraksynth 1\n"
         "name corrupted-synthetic\n"
         "grid 1024 128\n"
         "layer 0 0.5\n"
         "# material index outside the catalog      -> synthetic-mix\n"
         "layer 9 0.25\n"
         "# fractions now sum to 1.05               -> synthetic-mix\n"
         "layer 1 0.30\n"
         "# far outside the grid domain             -> synthetic-shape\n"
         "detonator 0 2048\n"
         "# not a key the format defines            -> synthetic-format\n"
         "wedge 3\n"
         "end\n";
}

}  // namespace krak::analyze
