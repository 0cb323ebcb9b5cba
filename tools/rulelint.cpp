// rulelint — static analyzer for rule programs.
//
// With no file arguments, lints the whole built-in rule-base corpus
// (completeness, shadowed/dead rules, register ranges, static deadlock
// certification). With files, lints each rule program source.
//
//   rulelint [--json] [--werror] [--no-deadlock] [file...]
//   rulelint --emit-table [--json]
//   rulelint --faults <k> [--json] [--werror] [file...]
//
// --emit-table AOT-compiles every runnable corpus decision program — at the
// differential-test sizes and at the 4096-node scale — and dumps table stats
// (chosen tier, classifier, compression ratio, entries, bytes, fallback
// fraction). The gate fails unless every program reaches a non-VM tier, and
// the eager tiers (direct/compressed) leave zero presentable premise points
// to the VM fallback.
//
// --faults <k> runs the exhaustive bounded-fault certifier: every fault set
// of up to k link/node faults (plus the correlated regimes: a router with
// all its links, mesh rows, hypercube subcubes), quotiented to canonical
// orbits under the program-equivariant topology symmetries, each certified
// for deadlock freedom, static connectivity and progress. The JSON form is
// the machine-readable certificate artifact CI archives: the per-program x
// fault-regime verdict matrix, orbit statistics, witness fault sets, and
// certified-safe samples for dynamic spot checks.
//
// Exit status: 0 when clean (no errors; with --werror also no warnings),
// 1 when findings fail the gate, 2 on usage errors.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ruleanalysis/corpus_lint.hpp"

namespace {

using flexrouter::ruleanalysis::AnalysisReport;
using flexrouter::ruleanalysis::BaseReport;
using flexrouter::ruleanalysis::CorpusLintOptions;
using flexrouter::ruleanalysis::FaultCertOptions;
using flexrouter::ruleanalysis::FaultCertReport;
using flexrouter::ruleanalysis::FaultPattern;
using flexrouter::ruleanalysis::Finding;
using flexrouter::ruleanalysis::RegimeSummary;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<AnalysisReport>& reports, std::ostream& os) {
  os << "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const AnalysisReport& r = reports[i];
    os << (i ? ",\n " : "\n ") << "{\"program\": \"" << json_escape(r.program)
       << "\",\n  \"bases\": [";
    for (std::size_t b = 0; b < r.bases.size(); ++b) {
      const BaseReport& br = r.bases[b];
      os << (b ? ", " : "") << "{\"name\": \"" << json_escape(br.rule_base)
         << "\", \"states\": " << br.states
         << ", \"gap_states\": " << br.gap_states
         << ", \"exact\": " << (br.exact ? "true" : "false") << "}";
    }
    os << "],\n  \"info\": [";
    for (std::size_t k = 0; k < r.info.size(); ++k)
      os << (k ? ", " : "") << "\"" << json_escape(r.info[k]) << "\"";
    os << "],\n  \"findings\": [";
    for (std::size_t f = 0; f < r.findings.size(); ++f) {
      const Finding& fd = r.findings[f];
      os << (f ? ",\n   " : "") << "{\"class\": \"" << to_string(fd.cls)
         << "\", \"severity\": \"" << to_string(fd.severity)
         << "\", \"rule_base\": \"" << json_escape(fd.rule_base)
         << "\", \"rule_index\": " << fd.rule_index
         << ", \"line\": " << fd.line << ", \"message\": \""
         << json_escape(fd.message) << "\", \"witness\": \""
         << json_escape(fd.witness) << "\"}";
    }
    os << "]}";
  }
  os << "\n]\n";
}

void print_pattern_json(const FaultPattern& p, std::ostream& os) {
  os << "{\"display\": \"" << json_escape(p.to_string()) << "\", \"links\": [";
  for (std::size_t i = 0; i < p.links.size(); ++i)
    os << (i ? ", " : "") << "{\"node\": " << p.links[i].node
       << ", \"port\": " << p.links[i].port << "}";
  os << "], \"nodes\": [";
  for (std::size_t i = 0; i < p.nodes.size(); ++i)
    os << (i ? ", " : "") << p.nodes[i];
  os << "]}";
}

void print_fault_json(const std::vector<FaultCertReport>& reports,
                      std::ostream& os) {
  os << "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const FaultCertReport& r = reports[i];
    os << (i ? ",\n " : "\n ") << "{\"program\": \"" << json_escape(r.program)
       << "\", \"topology\": \"" << json_escape(r.topology)
       << "\",\n  \"fault_tolerance\": " << r.fault_tolerance
       << ", \"certified\": " << (r.certified ? "true" : "false")
       << ",\n  \"symmetry\": {\"generators\": " << r.generators
       << ", \"generators_dropped\": " << r.generators_dropped
       << ", \"group_order\": " << r.group_order << ", \"group_complete\": "
       << (r.group_complete ? "true" : "false") << "},\n  \"orbits\": "
       << "{\"raw_fault_sets\": " << r.raw_fault_sets
       << ", \"orbit_count\": " << r.orbit_count
       << ", \"reduction_factor\": " << r.reduction_factor
       << ", \"decisions_evaluated\": " << r.stats.decisions_evaluated
       << ", \"decisions_reused\": " << r.stats.decisions_reused
       << ", \"baseline_decisions\": " << r.stats.baseline_decisions
       << ", \"orbits_checked\": " << r.stats.orbits_checked
       << ", \"orbits_expanded\": " << r.stats.orbits_expanded
       << ", \"members_checked\": " << r.stats.members_checked
       << "},\n  \"regimes\": [";
    for (std::size_t k = 0; k < r.regimes.size(); ++k) {
      const RegimeSummary& rs = r.regimes[k];
      os << (k ? ",\n   " : "") << "{\"name\": \"" << json_escape(rs.name)
         << "\", \"raw_sets\": " << rs.raw_sets << ", \"orbits\": "
         << rs.orbits << ", \"deadlock_failures\": " << rs.deadlock_failures
         << ", \"connectivity_failures\": " << rs.connectivity_failures
         << ", \"progress_failures\": " << rs.progress_failures
         << ", \"certified\": " << (rs.certified() ? "true" : "false") << "}";
    }
    os << "],\n  \"failing_sets\": [";
    for (std::size_t k = 0; k < r.failing_sets.size(); ++k) {
      os << (k ? ", " : "");
      print_pattern_json(r.failing_sets[k], os);
    }
    os << "],\n  \"certified_samples\": [";
    for (std::size_t k = 0; k < r.certified_samples.size(); ++k) {
      os << (k ? ", " : "");
      print_pattern_json(r.certified_samples[k], os);
    }
    os << "],\n  \"info\": [";
    for (std::size_t k = 0; k < r.info.size(); ++k)
      os << (k ? ", " : "") << "\"" << json_escape(r.info[k]) << "\"";
    os << "],\n  \"findings\": [";
    for (std::size_t f = 0; f < r.findings.size(); ++f) {
      const Finding& fd = r.findings[f];
      os << (f ? ",\n   " : "") << "{\"class\": \"" << to_string(fd.cls)
         << "\", \"severity\": \"" << to_string(fd.severity)
         << "\", \"rule_base\": \"" << json_escape(fd.rule_base)
         << "\", \"message\": \"" << json_escape(fd.message)
         << "\", \"witness\": \"" << json_escape(fd.witness) << "\"}";
    }
    os << "]}";
  }
  os << "\n]\n";
}

int cert_faults(int max_faults, bool json, bool werror,
                const std::vector<std::string>& files) {
  FaultCertOptions opts;
  opts.max_faults = max_faults;
  std::vector<FaultCertReport> reports;
  if (files.empty()) {
    reports = flexrouter::ruleanalysis::fault_cert_corpus(opts).reports;
  } else {
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "rulelint: cannot open '" << path << "'\n";
        return 2;
      }
      std::ostringstream src;
      src << in.rdbuf();
      auto rep = flexrouter::ruleanalysis::fault_cert_source(src.str(), opts);
      if (!rep) {
        std::cerr << "rulelint: '" << path
                  << "' does not parse/validate, has no deadlock model, or "
                     "names no topology; cannot fault-certify\n";
        return 2;
      }
      reports.push_back(std::move(*rep));
    }
  }
  bool clean = !reports.empty();
  for (const FaultCertReport& r : reports)
    if (!r.clean(werror)) clean = false;
  if (json) {
    print_fault_json(reports, std::cout);
  } else {
    for (const FaultCertReport& r : reports) std::cout << r.to_string();
    std::cout << (clean ? "rulelint: fault certification clean"
                        : "rulelint: fault certification FAILED")
              << (werror ? " (warnings are errors)" : "") << "\n";
  }
  return clean ? 0 : 1;
}

int usage(std::ostream& os, int code) {
  os << "usage: rulelint [--json] [--werror] [--no-deadlock] [file...]\n"
        "       rulelint --emit-table [--json]\n"
        "       rulelint --faults <k> [--json] [--werror] [file...]\n"
        "Lints the built-in rule-base corpus, or the given rule program\n"
        "sources. --werror fails on warnings as well as errors.\n"
        "--emit-table dumps the AOT decision table stats (tier, classifier,\n"
        "compression ratio) for every runnable corpus program — including\n"
        "the 4096-node fabrics — and fails if any program stays on the VM\n"
        "tier or an eager table leaves presentable premise points to the VM\n"
        "fallback.\n"
        "--faults <k> certifies deadlock freedom, connectivity and progress\n"
        "under every fault set of up to k link/node faults plus correlated\n"
        "regimes, orbit-reduced under program-equivariant symmetries. With\n"
        "--json, emits the machine-readable certificate (verdict matrix,\n"
        "orbit statistics, witness fault sets).\n";
  return code;
}

int emit_table(bool json) {
  const std::vector<flexrouter::ruleanalysis::TableReport> reports =
      flexrouter::ruleanalysis::emit_table_corpus();
  bool clean = !reports.empty();
  for (const auto& r : reports) {
    // Every shipped program must reach a table tier. The eager tiers must
    // additionally pre-resolve every presentable point; the kernel resolves
    // every point by construction, so only the tier choice is gated there.
    if (!r.active || r.tier == "vm") clean = false;
    if ((r.tier == "direct" || r.tier == "compressed") && r.fallback != 0)
      clean = false;
  }
  if (json) {
    std::cout << "[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      std::cout << (i ? ",\n " : "\n ") << "{\"program\": \""
                << json_escape(r.program) << "\", \"active\": "
                << (r.active ? "true" : "false") << ", \"tier\": \""
                << json_escape(r.tier) << "\", \"classifier\": \""
                << json_escape(r.classifier) << "\", \"tier_reason\": \""
                << json_escape(r.tier_reason)
                << "\", \"full_entries\": " << r.full_entries
                << ", \"compression_ratio\": " << r.compression_ratio
                << ", \"entries\": " << r.entries
                << ", \"axes\": " << r.axes
                << ", \"resolved\": " << r.resolved
                << ", \"unreachable\": " << r.unreachable
                << ", \"fallback\": " << r.fallback << ", \"bytes\": "
                << r.bytes << ", \"fallback_fraction\": "
                << r.fallback_fraction << "}";
    }
    std::cout << "\n]\n";
  } else {
    std::cout << flexrouter::ruleanalysis::to_string(reports)
              << (clean ? "rulelint: all programs on a table tier, eager "
                          "tables 0% fallback"
                        : "rulelint: FAILED (VM tier or eager-table "
                          "fallback)")
              << "\n";
  }
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool table = false;
  int faults = -1;
  CorpusLintOptions opts;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--emit-table") {
      table = true;
    } else if (arg == "--faults") {
      if (i + 1 >= argc) {
        std::cerr << "rulelint: --faults needs a bound k\n";
        return usage(std::cerr, 2);
      }
      char* end = nullptr;
      const long k = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || k < 0 || k > 8) {
        std::cerr << "rulelint: --faults bound must be an integer in 0..8\n";
        return usage(std::cerr, 2);
      }
      faults = static_cast<int>(k);
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--no-deadlock") {
      opts.deadlock = false;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rulelint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      files.push_back(arg);
    }
  }

  if (table) {
    if (!files.empty() || faults >= 0) {
      std::cerr << "rulelint: --emit-table takes no file arguments and "
                   "composes with no other mode\n";
      return usage(std::cerr, 2);
    }
    return emit_table(json);
  }
  if (faults >= 0) return cert_faults(faults, json, werror, files);

  std::vector<AnalysisReport> reports;
  if (files.empty()) {
    reports = flexrouter::ruleanalysis::lint_corpus(opts).reports;
  } else {
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "rulelint: cannot open '" << path << "'\n";
        return 2;
      }
      std::ostringstream src;
      src << in.rdbuf();
      AnalysisReport rep =
          flexrouter::ruleanalysis::lint_source(src.str(), opts);
      if (rep.program.empty() || rep.program == "<unparsed>")
        rep.program = path;
      reports.push_back(std::move(rep));
    }
  }

  bool clean = true;
  for (const AnalysisReport& r : reports)
    if (!r.clean(werror)) clean = false;

  if (json) {
    print_json(reports, std::cout);
  } else {
    for (const AnalysisReport& r : reports) std::cout << r.to_string();
    std::cout << (clean ? "rulelint: clean" : "rulelint: FAILED")
              << (werror ? " (warnings are errors)" : "") << "\n";
  }
  return clean ? 0 : 1;
}
