#include "analyze/lint_partition_store.hpp"

#include "analyze/rules.hpp"
#include "core/partition_store.hpp"

namespace krak::analyze {

DiagnosticReport lint_partition_store(std::string_view text) {
  DiagnosticReport report;
  (void)core::parse_partition_entry(text, report);
  return report;
}

DiagnosticReport lint_partition_store_file(const std::string& path) {
  return lint_text_file(path, rules::kPartitionStoreFormat, "store",
                        lint_partition_store);
}

std::string corrupted_partition_store_text() {
  // One violation per rule; the inline notes name the rule each line
  // trips. The assignment still covers all six cells, so the (wrong)
  // checksum is actually compared.
  return "krakpart 1\n"
         "fingerprint 00c0ffee00000001\n"
         "pes 3\n"
         "method multilevel\n"
         "seed 1\n"
         "cells 6\n"
         "# all-zero checksum cannot match        -> partition-store-checksum\n"
         "checksum 0000000000000000\n"
         "# 4 > 2 is not monotone; part 0 count   -> partition-store-offsets\n"
         "offsets 0 4 2 6\n"
         "# cell 9 is outside [0, 6)              -> partition-store-bounds\n"
         "part 0 0 1 9\n"
         "part 1 2 3\n"
         "# cell 2 already belongs to part 1      -> partition-store-bounds\n"
         "part 2 4 5 2\n"
         "# not a directive                       -> partition-store-format\n"
         "bogus\n"
         "end\n";
}

}  // namespace krak::analyze
