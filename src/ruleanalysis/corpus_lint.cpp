#include "ruleanalysis/corpus_lint.hpp"

#include <exception>
#include <memory>
#include <sstream>
#include <utility>

#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"
#include "topology/fault_model.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter::ruleanalysis {
namespace {

std::int64_t int_constant(const rules::Program& prog, const std::string& name,
                          std::int64_t fallback) {
  const auto it = prog.constants.find(name);
  if (it == prog.constants.end() || !it->second.is_int()) return fallback;
  return it->second.as_int();
}

/// The topology a program routes: its own constants describe it (width and
/// height for meshes, dim for hypercubes).
std::unique_ptr<Topology> topology_of(const rules::Program& prog) {
  if (prog.constants.count("width") && prog.constants.count("height")) {
    const auto w = static_cast<int>(int_constant(prog, "width", 0));
    const auto h = static_cast<int>(int_constant(prog, "height", 0));
    if (w >= 2 && h >= 2) return std::make_unique<Mesh>(Mesh::two_d(w, h));
  }
  if (prog.constants.count("dim")) {
    const auto d = static_cast<int>(int_constant(prog, "dim", 0));
    if (d >= 1 && d <= 16) return std::make_unique<Hypercube>(d);
  }
  return nullptr;
}

void certify_onto(AnalysisReport& report, const rules::Program& prog,
                  const DeadlockModel& model, const Topology& topo,
                  const FaultSet& faults, const std::string& context) {
  DeadlockCertificate cert = certify_deadlock(prog, model, topo, faults);
  std::ostringstream os;
  os << "deadlock certificate";
  if (!context.empty()) os << " (" << context << ")";
  os << ": " << (cert.report.acyclic ? "acyclic" : "CYCLIC") << ", "
     << cert.report.num_channels << " channels, " << cert.report.num_edges
     << " edges, " << cert.decisions << " decisions";
  if (!cert.modeled) os << ", partial model";
  report.info.push_back(os.str());
  for (Finding& f : cert.findings) {
    if (!context.empty()) f.message += " [" + context + "]";
    report.findings.push_back(std::move(f));
  }
}

}  // namespace

AnalysisReport lint_source(const std::string& source,
                           const CorpusLintOptions& opts) {
  AnalysisReport report;
  rules::Program prog;
  try {
    prog = rules::parse_program(source);
  } catch (const std::exception& e) {
    report.program = "<unparsed>";
    Finding f;
    f.cls = DiagClass::InvalidProgram;
    f.severity = Severity::Error;
    f.message = std::string("parse error: ") + e.what();
    report.findings.push_back(std::move(f));
    return report;
  }
  const auto diags = rules::validate_program(prog);
  if (!diags.empty()) {
    // The analyzer's contract needs a validated program; stop here.
    report.program = prog.name;
    for (const auto& d : diags) {
      Finding f;
      f.cls = DiagClass::InvalidProgram;
      f.severity = Severity::Error;
      f.line = d.line;
      f.message = d.message;
      report.findings.push_back(std::move(f));
    }
    return report;
  }
  report = analyze_program(prog, opts.analysis);
  if (opts.deadlock) {
    if (const auto model = model_for(prog)) {
      const std::unique_ptr<Topology> topo = topology_of(prog);
      if (topo == nullptr) {
        Finding f;
        f.cls = DiagClass::DeadlockUnmodeled;
        f.severity = Severity::Note;
        f.message = "program constants describe no known topology; "
                    "deadlock certification skipped";
        report.findings.push_back(std::move(f));
      } else {
        const FaultSet faults(*topo);
        certify_onto(report, prog, *model, *topo, faults, "");
      }
    }
  }
  return report;
}

CorpusLintResult lint_corpus(const CorpusLintOptions& opts) {
  CorpusLintResult out;
  // Runnable decision programs at the sizes the differential tests use;
  // the accounting corpora on closure-friendly 4x4 meshes / 3-cubes.
  out.reports.push_back(lint_source(rulebases::nara_route_source(8, 8), opts));
  out.reports.push_back(lint_source(rulebases::ecube_route_source(3), opts));
  out.reports.push_back(
      lint_source(rulebases::ft_mesh_route_source(4, 4), opts));
  out.reports.push_back(
      lint_source(rulebases::nafta_program_source(4, 4), opts));
  out.reports.push_back(lint_source(rulebases::nara_program_source(4, 4), opts));
  out.reports.push_back(
      lint_source(rulebases::route_c_program_source(3, 2), opts));
  out.reports.push_back(
      lint_source(rulebases::route_c_nft_program_source(3, 2), opts));
  if (opts.deadlock) {
    // Faulted re-certification of the fault-tolerant mesh program: the
    // rebuilt escape layer must keep the dependency graph acyclic.
    rules::Program prog =
        rules::parse_program(rulebases::ft_mesh_route_source(4, 4));
    if (const auto model = model_for(prog)) {
      const Mesh mesh = Mesh::two_d(4, 4);
      FaultSet faults(mesh);
      faults.fail_link(mesh.at(1, 1), /*port=*/0);
      faults.fail_node(mesh.at(2, 2));
      AnalysisReport rep;
      rep.program = prog.name + " (faulted)";
      certify_onto(rep, prog, *model, mesh, faults, "1 link + 1 node fault");
      out.reports.push_back(std::move(rep));
    }
  }
  return out;
}

std::vector<TableReport> emit_table_corpus() {
  struct Case {
    std::string source;
    int num_vcs;
    VcId escape_vc;
  };
  // The runnable decision programs at the sizes the differential tests and
  // benches use, plus the 4096-node fabrics the tier ladder exists for
  // (64x64 meshes and 12-cubes blow the direct budget; the compressed
  // tables and the kernel must absorb them). Each AOT-compiles against its own
  // topology (topology_of on the program's constants) with a clean fault
  // set.
  const Case cases[] = {
      {rulebases::nara_route_source(8, 8), 2, -1},
      {rulebases::ft_mesh_route_source(8, 8), 3, 2},
      {rulebases::ecube_route_source(6), 1, -1},
      {rulebases::ecube_msb_route_source(6), 1, -1},
      {rulebases::nara_route_source(64, 64), 2, -1},
      {rulebases::ft_mesh_route_source(64, 64), 3, 2},
      {rulebases::ecube_route_source(12), 1, -1},
      {rulebases::ecube_msb_route_source(12), 1, -1},
  };
  std::vector<TableReport> out;
  for (const Case& c : cases) {
    // The algorithm builds its execution image on attach; parse a separate
    // copy up front to read the topology constants.
    const rules::Program prog = rules::parse_program(c.source);
    const std::unique_ptr<Topology> topo = topology_of(prog);
    TableReport rep;
    rep.program = prog.name;
    if (topo == nullptr) {
      out.push_back(std::move(rep));
      continue;
    }
    RuleDrivenRouting algo(c.source, c.num_vcs, rules::ExecMode::Aot, "route",
                           c.escape_vc);
    const FaultSet faults(*topo);
    algo.attach(*topo, faults);
    rep.program += " @ " + topo->name();
    rep.active = algo.aot_active();
    const RuleDrivenRouting::AotTierInfo ti = algo.aot_tier_info();
    rep.tier = RuleDrivenRouting::tier_name(ti.tier);
    rep.classifier = rules::to_string(ti.classifier);
    rep.tier_reason = ti.reason;
    rep.full_entries = ti.full_entries;
    rep.compression_ratio = ti.compression_ratio;
    if (ti.tier == RuleDrivenRouting::AotTier::Kernel) {
      // The kernel has no premise-point fill to account: report its table
      // and the footprint of table, lowered code and templates.
      rep.entries = ti.table_entries;
      rep.axes = ti.kernel_axes;
      rep.bytes = ti.kernel_bytes;
      rep.fallback_fraction = 0.0;
    } else {
      const rules::AotTable::Stats st = algo.aot_stats();
      rep.entries = st.entries;
      rep.resolved = st.resolved;
      rep.unreachable = st.unreachable;
      rep.fallback = st.fallback;
      rep.bytes = st.bytes;
      rep.fallback_fraction = st.fallback_fraction();
    }
    out.push_back(std::move(rep));
  }
  return out;
}

std::string to_string(const std::vector<TableReport>& reports) {
  std::ostringstream os;
  for (const TableReport& r : reports) {
    os << r.program << ": ";
    if (!r.active) {
      os << "NO TABLE (VM fallback serves every decision; "
         << (r.tier_reason.empty() ? "no reason recorded" : r.tier_reason)
         << ")\n";
      continue;
    }
    os << "tier " << r.tier;
    if (r.classifier != "none") os << " [" << r.classifier << "]";
    if (r.compression_ratio > 1.0)
      os << " " << r.compression_ratio << "x compression";
    os << ", ";
    if (r.tier == "kernel") {
      os << r.entries << " entries over " << r.axes
         << " feature axes (serving " << r.full_entries
         << " premise points), " << r.bytes << " bytes\n";
      continue;
    }
    os << r.entries << " entries (" << r.resolved << " resolved, "
       << r.unreachable << " unreachable, " << r.fallback << " fallback), "
       << r.bytes << " bytes, fallback fraction " << r.fallback_fraction
       << "\n";
  }
  return os.str();
}

std::optional<FaultCertReport> fault_cert_source(const std::string& source,
                                                 const FaultCertOptions& opts) {
  rules::Program prog;
  try {
    prog = rules::parse_program(source);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!rules::validate_program(prog).empty()) return std::nullopt;
  const auto model = model_for(prog);
  if (!model) return std::nullopt;
  const std::unique_ptr<Topology> topo = topology_of(prog);
  if (topo == nullptr) return std::nullopt;
  return certify_faults(prog, *model, *topo, opts);
}

FaultCertCorpusResult fault_cert_corpus(const FaultCertOptions& opts) {
  FaultCertCorpusResult out;
  // The same programs and home test-scale topologies lint_corpus certifies.
  const std::string sources[] = {
      rulebases::nara_route_source(8, 8),
      rulebases::ecube_route_source(3),
      rulebases::ft_mesh_route_source(4, 4),
      rulebases::nafta_program_source(4, 4),
      rulebases::nara_program_source(4, 4),
      rulebases::route_c_program_source(3, 2),
      rulebases::route_c_nft_program_source(3, 2),
  };
  for (const std::string& src : sources)
    if (auto rep = fault_cert_source(src, opts))
      out.reports.push_back(std::move(*rep));
  return out;
}

bool FaultCertCorpusResult::clean(bool werror) const {
  for (const FaultCertReport& r : reports)
    if (!r.clean(werror)) return false;
  return true;
}

std::string FaultCertCorpusResult::to_string() const {
  std::ostringstream os;
  for (const FaultCertReport& r : reports) os << r.to_string();
  return os.str();
}

bool CorpusLintResult::clean(bool werror) const {
  for (const AnalysisReport& r : reports)
    if (!r.clean(werror)) return false;
  return true;
}

std::string CorpusLintResult::to_string() const {
  std::ostringstream os;
  for (const AnalysisReport& r : reports) os << r.to_string();
  return os.str();
}

}  // namespace flexrouter::ruleanalysis
