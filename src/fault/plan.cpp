#include "fault/plan.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"
#include "util/text_format.hpp"

namespace krak::fault {

namespace {

constexpr std::string_view kMagic = "krakfaults";
constexpr int kVersion = 1;

std::string rank_token(std::int32_t rank) {
  return rank == kAllRanks ? std::string("*") : std::to_string(rank);
}

/// A directive's `rank` field: a rank, or `*` for every rank.
util::KeyField rank_field(std::int32_t& rank) {
  return {"rank", &rank, true, kAllRanks};
}

}  // namespace

void check_fault_plan(const FaultPlan& plan, std::int32_t ranks,
                      std::int32_t phases_per_iteration,
                      util::DiagnosticReport& report) {
  std::string where;  // "faults/<directive> <index>"
  const auto target = [&](const std::string& message) {
    report.error(rules::kFaultSpecTarget, where, message);
  };
  // `kAllRanks` is fine where wildcards are allowed; otherwise the rank
  // must exist (when a rank count is known).
  const auto rank = [&](std::int32_t r, bool wildcard_ok) {
    if (r == kAllRanks) {
      if (!wildcard_ok) target("rank=* is not allowed here; name one rank");
    } else if (r < 0) {
      target("rank " + std::to_string(r) + " is negative");
    } else if (ranks > 0 && r >= ranks) {
      target("rank " + std::to_string(r) + " outside [0, " +
             std::to_string(ranks) + ")");
    }
  };
  const auto when = [&](std::int32_t phase, std::int32_t iteration) {
    const std::int32_t phases = phases_per_iteration;
    if (phase < 1 || (phases > 0 && phase > phases)) {
      target("phase " + std::to_string(phase) + " outside [1, " +
             (phases > 0 ? std::to_string(phases) : "phase count") + "]");
    }
    if (iteration < 0) {
      target("iteration " + std::to_string(iteration) + " is negative");
    }
  };
  // `in_range` is written so that NaN fails it; infinities fail here.
  const auto range = [&](double value, bool in_range, const char* rule) {
    if (in_range && std::isfinite(value)) return;
    std::ostringstream os;
    os << rule << " (got " << value << ")";
    report.error(rules::kFaultSpecRange, where, os.str());
  };
  const auto each = [&](const auto& directives, const char* name,
                        const auto& check) {
    for (std::size_t i = 0; i < directives.size(); ++i) {
      where = std::string("faults/") + name + " " + std::to_string(i);
      check(directives[i]);
    }
  };

  each(plan.slowdowns, "slowdown", [&](const ComputeSlowdown& s) {
    rank(s.rank, /*wildcard_ok=*/true);
    range(s.factor, s.factor >= 1.0, "slowdown factor must be >= 1");
  });
  each(plan.noise, "noise", [&](const NoiseBurst& n) {
    rank(n.rank, /*wildcard_ok=*/true);
    range(n.period_s, n.period_s > 0.0, "noise period must be positive");
    range(n.duration_s, n.duration_s >= 0.0,
          "noise duration must be non-negative");
  });
  each(plan.delays, "delay", [&](const OneOffDelay& d) {
    rank(d.rank, /*wildcard_ok=*/false);
    when(d.phase, d.iteration);
    range(d.seconds, d.seconds >= 0.0, "delay seconds must be non-negative");
  });
  each(plan.message_faults, "messages", [&](const MessageFaultModel& m) {
    rank(m.rank, /*wildcard_ok=*/true);
    range(m.drop_probability,
          m.drop_probability >= 0.0 && m.drop_probability < 1.0,
          "drop probability must be in [0, 1)");
    range(m.extra_delay_s, m.extra_delay_s >= 0.0,
          "extra delay must be non-negative");
    range(m.retransmit_timeout_s, m.retransmit_timeout_s >= 0.0,
          "retransmit timeout must be non-negative");
    range(m.max_retries, m.max_retries >= 0,
          "max retries must be non-negative");
  });
  each(plan.degrades, "degrade", [&](const NicDegrade& d) {
    rank(d.rank, /*wildcard_ok=*/true);
    range(d.bandwidth_factor,
          d.bandwidth_factor > 0.0 && d.bandwidth_factor <= 1.0,
          "bandwidth factor must be in (0, 1]");
  });
  each(plan.crashes, "crash", [&](const RankCrash& c) {
    rank(c.rank, /*wildcard_ok=*/false);
    when(c.phase, c.iteration);
    range(c.restart_s, c.restart_s >= 0.0,
          "restart cost must be non-negative");
    range(c.checkpoint_interval_s, c.checkpoint_interval_s >= 0.0,
          "checkpoint interval must be non-negative (0: none)");
  });
  where = "faults/watchdog";
  range(plan.max_sim_seconds, plan.max_sim_seconds >= 0.0,
        "watchdog bound must be non-negative (0: none)");
}

void write_fault_plan(std::ostream& out, const FaultPlan& plan) {
  out << kMagic << " " << kVersion << "\n";
  out << std::setprecision(17);
  out << "seed " << plan.seed << "\n";
  for (const ComputeSlowdown& s : plan.slowdowns) {
    out << "slowdown rank=" << rank_token(s.rank) << " factor=" << s.factor
        << "\n";
  }
  for (const NoiseBurst& n : plan.noise) {
    out << "noise rank=" << rank_token(n.rank) << " period=" << n.period_s
        << " duration=" << n.duration_s << "\n";
  }
  for (const OneOffDelay& d : plan.delays) {
    out << "delay rank=" << rank_token(d.rank) << " phase=" << d.phase
        << " iter=" << d.iteration << " seconds=" << d.seconds << "\n";
  }
  for (const MessageFaultModel& m : plan.message_faults) {
    out << "messages rank=" << rank_token(m.rank)
        << " drop=" << m.drop_probability << " delay=" << m.extra_delay_s
        << " rto=" << m.retransmit_timeout_s << " retries=" << m.max_retries
        << "\n";
  }
  for (const NicDegrade& d : plan.degrades) {
    out << "degrade rank=" << rank_token(d.rank)
        << " bandwidth=" << d.bandwidth_factor << "\n";
  }
  for (const RankCrash& c : plan.crashes) {
    out << "crash rank=" << rank_token(c.rank) << " phase=" << c.phase
        << " iter=" << c.iteration << " restart=" << c.restart_s
        << " interval=" << c.checkpoint_interval_s << "\n";
  }
  if (plan.max_sim_seconds > 0.0) {
    out << "watchdog max_seconds=" << plan.max_sim_seconds << "\n";
  }
  out << "end\n";
  if (!out) throw util::KrakError("write_fault_plan: stream failure");
}

void save_fault_plan(const std::string& path, const FaultPlan& plan) {
  util::save_text_file(path, "save_fault_plan",
                       [&](std::ostream& out) { write_fault_plan(out, plan); });
}

FaultPlan parse_fault_plan(std::string_view text,
                           util::DiagnosticReport& report) {
  FaultPlan plan;
  bool saw_header = false;
  bool saw_end = false;
  util::LineReader reader(text);
  util::TextLine line;
  while (reader.next(line)) {
    if (util::is_blank_or_comment(line.text)) continue;
    const std::string where = "faults/line " + std::to_string(line.number);
    const auto error = [&](const std::string& message) {
      report.error(rules::kFaultSpecFormat, where, message);
    };
    if (!saw_header) {
      const std::string problem =
          util::header_error(line.text, kMagic, kVersion);
      if (!problem.empty()) {
        error(problem);
        return plan;
      }
      saw_header = true;
      continue;
    }
    if (saw_end) {
      error("content after 'end': '" + std::string(line.text) + "'");
      continue;
    }
    util::Tokens tokens(line.text);
    std::string_view name;
    (void)tokens.next(name);  // a content line has a first token
    std::string_view extra;
    if (name == "end") {
      saw_end = true;
      if (tokens.next(extra)) error("'end' takes no value");
      continue;
    }
    if (name == "seed") {
      if (!tokens.next_number(plan.seed) || tokens.next(extra)) {
        error("'seed' needs one unsigned 64-bit integer, got '" +
              std::string(line.text) + "'");
      }
      continue;
    }
    const auto read = [&](std::initializer_list<util::KeyField> fields) {
      const std::string problem = util::read_key_values(tokens, fields);
      if (!problem.empty()) error("'" + std::string(name) + "': " + problem);
      return problem.empty();
    };
    if (name == "slowdown") {
      ComputeSlowdown s;
      if (read({rank_field(s.rank), {"factor", &s.factor}})) {
        plan.slowdowns.push_back(s);
      }
    } else if (name == "noise") {
      NoiseBurst n;
      if (read({rank_field(n.rank), {"period", &n.period_s},
                {"duration", &n.duration_s}})) {
        plan.noise.push_back(n);
      }
    } else if (name == "delay") {
      OneOffDelay d;
      if (read({rank_field(d.rank), {"phase", &d.phase},
                {"iter", &d.iteration}, {"seconds", &d.seconds}})) {
        plan.delays.push_back(d);
      }
    } else if (name == "messages") {
      MessageFaultModel m;
      if (read({rank_field(m.rank), {"drop", &m.drop_probability},
                {"delay", &m.extra_delay_s, false},
                {"rto", &m.retransmit_timeout_s, false},
                {"retries", &m.max_retries, false}})) {
        plan.message_faults.push_back(m);
      }
    } else if (name == "degrade") {
      NicDegrade d;
      if (read({rank_field(d.rank), {"bandwidth", &d.bandwidth_factor}})) {
        plan.degrades.push_back(d);
      }
    } else if (name == "crash") {
      RankCrash c;
      if (read({rank_field(c.rank), {"phase", &c.phase},
                {"iter", &c.iteration}, {"restart", &c.restart_s},
                {"interval", &c.checkpoint_interval_s, false}})) {
        plan.crashes.push_back(c);
      }
    } else if (name == "watchdog") {
      double bound = 0.0;
      if (read({{"max_seconds", &bound}})) plan.max_sim_seconds = bound;
    } else {
      error("unknown directive '" + std::string(name) + "'");
    }
  }
  if (!saw_header) {
    report.error(rules::kFaultSpecFormat, "faults",
                 "empty input, missing '" + std::string(kMagic) + " " +
                     std::to_string(kVersion) + "' header");
  } else if (!saw_end) {
    report.error(rules::kFaultSpecFormat, "faults", "missing 'end'");
  }
  return plan;
}

FaultPlan parse_fault_plan(std::istream& in) {
  util::DiagnosticReport report;
  FaultPlan plan = parse_fault_plan(util::read_stream(in), report);
  report.throw_first_error("malformed fault spec");
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  util::DiagnosticReport report;
  FaultPlan plan =
      parse_fault_plan(util::load_text_file(path, "load_fault_plan"), report);
  report.throw_first_error("load_fault_plan: " + path +
                           ": malformed fault spec");
  return plan;
}

double daly_optimal_interval(double checkpoint_cost_s, double mtbf_s) {
  util::check(checkpoint_cost_s > 0.0, "checkpoint cost must be positive");
  util::check(mtbf_s > 0.0, "MTBF must be positive");
  return std::sqrt(2.0 * checkpoint_cost_s * mtbf_s);
}

double expected_recovery_cost(double restart_s, double checkpoint_interval_s,
                              double elapsed_s) {
  util::check(restart_s >= 0.0, "restart cost must be non-negative");
  const double rework = checkpoint_interval_s > 0.0
                            ? 0.5 * checkpoint_interval_s
                            : std::max(elapsed_s, 0.0);
  return restart_s + rework;
}

}  // namespace krak::fault
