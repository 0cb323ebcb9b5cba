// flexsim — config-driven simulation driver (BookSim-style front end).
//
// Usage:
//   ./flexsim                       # built-in default experiment
//   ./flexsim my.cfg                # read a config file
//   ./flexsim my.cfg "rate = 0.2"   # extra overrides, last wins
//
// Config keys (all optional):
//   topology   = mesh | torus | hypercube      (default mesh)
//   width      = 8      height = 8             (mesh/torus)
//   dimension  = 4                             (hypercube)
//   algorithm  = nafta | nara | dor-mesh | dor-torus | ecube | route_c |
//                route_c_nft | updown | spanning-tree | negative-hop |
//                nara-rules | ft-mesh-rules (mesh) | ecube-rules (hypercube)
//                -- the *-rules algorithms run the corpus rule programs
//                   through RuleDrivenRouting instead of native C++
//   traffic    = uniform | transpose | tornado | bitcomp | hotspot |
//                permutation
//   rate       = 0.10                          (flits/node/cycle)
//   rates      = 0.02,0.06,0.10                (sweep: overrides rate)
//   threads    = 0                             (sweep workers; 0 = auto)
//   packet_length = 4
//   warmup     = 1000   measure = 2000
//   link_faults = 0     node_faults = 0
//   seed       = 1
//   show_links = false                         (top-5 link loads, single run)
//   shards     = 1                             (spatial shards; results are
//                                               bit-identical at any count)
//   shard_threads = 0                          (shard pool size; 0 = auto)
//
// Provably inert cycles (nothing queued, buffered or on a wire) are always
// skipped; the summary line reports how many.
//
// Live fault lifecycle (optional; arms the recovery controller):
//   fault_at   = 1500:link:27:1,2200:node:12   (timed mid-run kill events:
//                <cycle>:link:<node>:<port> or <cycle>:node:<id>)
//   repair_after = 800                         (repair every fault_at kill
//                                               that many cycles after it
//                                               lands; needs fault_at)
//   flap       = 27:1:1500:120:260             (intermittent link
//                <node>:<port>:<first_down>:<down_mean>:<up_mean> —
//                seeded on/off duty cycles until warmup + measure)
//   failslow   = 1500:27:1:8                   (<cycle>:<node>:<port>:<factor>
//                comma list: throttle the link to 1/factor bandwidth;
//                factor >= 2)
//   fault_regime = fail_stop | repair | flap | failslow | storm
//                                              (one seeded chaos pattern in
//                                               the campaign's vocabulary;
//                                               conflicts with fault_at)
//   detection_delay = 0                        (cycles before diagnosis)
//   max_retries     = 3                        (abort-and-retransmit budget)
//
// Rule-engine keys (need a *-rules algorithm; contract error otherwise):
//   exec_mode  = interp | vm | aot             (decision backend; default
//                                               aot, the table tiers;
//                                               interp and vm run the
//                                               interpreter / bytecode VM on
//                                               every decision. The summary
//                                               line reports the AOT tier
//                                               actually chosen —
//                                               direct/compressed/kernel —
//                                               or why the VM kept serving)
//   swap_rules_at = 2000,new_rules.txt         (live hot-swap: at the cycle,
//                                               load the rule program from
//                                               the file and commit it under
//                                               traffic — quiescent drain
//                                               for stateful programs,
//                                               between-cycles otherwise)
//   swap_policy = auto | immediate | quiescent | rolling
//                                              (commit policy for the swap;
//                                               rolling drains and flips one
//                                               spatial shard at a time)
//   rolling_shards = 8                         (shards a rolling swap drains
//                                               sequentially)
//
// A multi-point sweep (rates with more than one entry) runs on the
// deterministic SweepRunner: one independent replica per offered load,
// per-point seeds derived from (seed, point index), results identical at
// any thread count. A single rate keeps the historical behaviour (the
// configured seed drives the one replica directly).
//
// Exit codes: 0 on success, 1 when any point suspects deadlock, 2 on a
// config error — an unknown key, a malformed value or an inconsistent
// combination, reported as `config error: ...` naming the key — or on a
// simulation error.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "routing/dor_torus.hpp"
#include "routing/negative_hop.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

using namespace flexrouter;

namespace {

/// Every key flexsim reads. Any other key is a typo (or belongs to another
/// tool) and is a config error rather than silently ignored.
constexpr const char* kKnownKeys[] = {
    "topology",     "width",         "height",        "dimension",
    "algorithm",    "traffic",       "rate",          "rates",
    "threads",      "packet_length", "warmup",        "measure",
    "link_faults",  "node_faults",   "seed",          "show_links",
    "shards",       "shard_threads", "fault_at",      "repair_after",
    "flap",         "failslow",      "fault_regime",  "detection_delay",
    "max_retries",  "exec_mode",     "swap_rules_at", "swap_policy",
    "rolling_shards",
};

/// One int-sized field of a structured value (`fault_at`, `flap`,
/// `failslow`): a node id, port or factor.
int int_field(const std::string& key, const std::string& tok) {
  const std::int64_t v = Config::parse_int(key, tok);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw std::invalid_argument("config key '" + key + "': " + tok +
                                " is out of range");
  return static_cast<int>(v);
}

/// An integer key that must lie in [lo, hi]; out of range is a config
/// error naming the key, not a failure deep inside the run.
std::int64_t ranged_int(const Config& cfg, const std::string& key,
                        std::int64_t def, std::int64_t lo,
                        std::int64_t hi = std::numeric_limits<int>::max()) {
  const std::int64_t v = cfg.get_int(key, def);
  if (v < lo || v > hi)
    throw std::invalid_argument(
        "config key '" + key + "': " + std::to_string(v) + " is outside [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return v;
}

/// An offered load: a positive, finite flit rate.
double checked_rate(const std::string& key, double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate))
    throw std::invalid_argument("config key '" + key + "': rate " +
                                std::to_string(rate) + " must be > 0");
  return rate;
}

std::vector<double> parse_rates(const Config& cfg) {
  std::vector<double> rates;
  const std::string list = cfg.get_string("rates", "");
  if (!list.empty()) {
    std::istringstream is(list);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (tok.empty()) continue;
      rates.push_back(
          checked_rate("rates", Config::parse_double("rates", tok)));
    }
  }
  if (rates.empty())
    rates.push_back(checked_rate("rate", cfg.get_double("rate", 0.10)));
  return rates;
}

/// Parse `fault_at = <cycle>:link:<node>:<port>,<cycle>:node:<id>,...`
/// into a FaultSchedule. Throws on malformed entries (caught by the config
/// error handler in main).
FaultSchedule parse_fault_schedule(const std::string& spec) {
  FaultSchedule schedule;
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string cycle_s, kind, a, b;
    std::getline(fields, cycle_s, ':');
    std::getline(fields, kind, ':');
    std::getline(fields, a, ':');
    const Cycle at = Config::parse_int("fault_at", cycle_s);
    if (kind == "link") {
      std::getline(fields, b, ':');
      schedule.fail_link_at(at, int_field("fault_at", a),
                            int_field("fault_at", b));
    } else if (kind == "node") {
      schedule.fail_node_at(at, int_field("fault_at", a));
    } else {
      throw std::invalid_argument("fault_at entry '" + entry +
                                  "': kind must be 'link' or 'node'");
    }
  }
  return schedule;
}

/// `repair_after = N`: schedule a matching repair N cycles after every
/// fault_at kill, turning each fail-stop event into a die -> reintegrate
/// round trip.
void append_repairs(FaultSchedule& schedule, Cycle delay) {
  const std::vector<FaultEvent> kills = schedule.events();  // copied: we push
  for (const FaultEvent& e : kills) {
    if (e.kind == FaultEvent::Kind::LinkFault)
      schedule.repair_link_at(e.at + delay, e.node, e.port);
    else if (e.kind == FaultEvent::Kind::NodeFault)
      schedule.repair_node_at(e.at + delay, e.node);
  }
}

/// `flap = <node>:<port>:<first_down>:<down_mean>:<up_mean>` — an
/// intermittent link flapping until the end of the measurement window.
void parse_flap(FaultSchedule& schedule, const std::string& spec,
                Cycle horizon, std::uint64_t seed) {
  std::istringstream fields(spec);
  std::string node_s, port_s, first_s, down_s, up_s;
  if (!(std::getline(fields, node_s, ':') &&
        std::getline(fields, port_s, ':') &&
        std::getline(fields, first_s, ':') &&
        std::getline(fields, down_s, ':') && std::getline(fields, up_s)))
    throw std::invalid_argument(
        "flap must be <node>:<port>:<first_down>:<down_mean>:<up_mean> "
        "(got '" +
        spec + "')");
  schedule.add_flapping_link(int_field("flap", node_s),
                             int_field("flap", port_s),
                             Config::parse_int("flap", first_s), horizon,
                             Config::parse_double("flap", down_s),
                             Config::parse_double("flap", up_s),
                             seed ^ 0xf1a9ULL);
}

/// `failslow = <cycle>:<node>:<port>:<factor>,...` — throttle links to one
/// flit per `factor` cycles. A factor below 2 is a contract error: a
/// fail-slow link still moves flits, it is just slower.
void parse_failslow(FaultSchedule& schedule, const std::string& spec) {
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string cycle_s, node_s, port_s, factor_s;
    if (!(std::getline(fields, cycle_s, ':') &&
          std::getline(fields, node_s, ':') &&
          std::getline(fields, port_s, ':') &&
          std::getline(fields, factor_s)))
      throw std::invalid_argument("failslow entry '" + entry +
                                  "' must be <cycle>:<node>:<port>:<factor>");
    const int factor = int_field("failslow", factor_s);
    if (factor < 2)
      throw std::invalid_argument(
          "failslow entry '" + entry +
          "': factor must be >= 2 (a fail-slow link still moves flits)");
    schedule.degrade_link_at(Config::parse_int("failslow", cycle_s),
                             int_field("failslow", node_s),
                             int_field("failslow", port_s), factor);
  }
}

/// `fault_regime = ...`: one seeded pattern from the chaos campaign's
/// vocabulary, sized to this run's warmup/measure window.
FaultSchedule build_regime_schedule(const std::string& regime,
                                    const Topology& topo, Cycle warmup,
                                    Cycle measure, std::uint64_t seed) {
  FaultSchedule s;
  SplitMix64 sm(seed ^ 0xc4a05ULL);
  const std::vector<LinkRef> links = topo.undirected_links();
  const LinkRef l =
      links[sm.next_below(static_cast<std::uint64_t>(links.size()))];
  const Cycle t1 = warmup + measure / 4;
  if (regime == "fail_stop") {
    s.fail_link_at(t1, l.node, l.port);
  } else if (regime == "repair") {
    s.fail_link_at(t1, l.node, l.port);
    s.repair_link_at(warmup + (3 * measure) / 4, l.node, l.port);
  } else if (regime == "flap") {
    s.add_flapping_link(l.node, l.port, t1, warmup + measure,
                        static_cast<double>(measure) / 10,
                        static_cast<double>(measure) / 5, sm.next());
  } else if (regime == "failslow") {
    s.degrade_link_at(t1, l.node, l.port, 8);
  } else if (regime == "storm") {
    if (const auto* cube = dynamic_cast<const Hypercube*>(&topo)) {
      const auto all =
          (std::uint64_t{1} << static_cast<unsigned>(cube->dimension())) - 1;
      const std::uint64_t free_bit =
          std::uint64_t{1}
          << sm.next_below(static_cast<std::uint64_t>(cube->dimension()));
      const std::uint64_t mask = all ^ free_bit;
      s.add_subcube_storm(topo, t1, mask, sm.next() & mask);
    } else {
      int rx = 0, ry = 0;
      if (const auto* mesh = dynamic_cast<const Mesh*>(&topo)) {
        rx = mesh->radix(0);
        ry = mesh->radix(1);
      } else if (const auto* tor = dynamic_cast<const Torus*>(&topo)) {
        rx = tor->radix(0);
        ry = tor->radix(1);
      }
      const int x =
          static_cast<int>(sm.next_below(static_cast<std::uint64_t>(rx - 1)));
      const int y =
          static_cast<int>(sm.next_below(static_cast<std::uint64_t>(ry)));
      s.add_region_storm(topo, t1, {x, y}, {x + 1, y});
    }
  } else {
    throw std::invalid_argument(
        "fault_regime must be fail_stop, repair, flap, failslow or storm "
        "(got '" +
        regime + "')");
  }
  return s;
}

bool rule_driven_name(const std::string& aname) {
  return aname == "nara-rules" || aname == "ft-mesh-rules" ||
         aname == "ecube-rules";
}

rules::ExecMode parse_exec_mode(const std::string& mode) {
  if (mode == "interp") return rules::ExecMode::Interpret;
  if (mode == "vm") return rules::ExecMode::Vm;
  if (mode == "aot") return rules::ExecMode::Aot;
  throw std::invalid_argument("exec_mode must be interp, vm or aot (got '" +
                              mode + "')");
}

Simulator::RuleSwapPolicy parse_swap_policy(const std::string& policy) {
  if (policy == "auto") return Simulator::RuleSwapPolicy::Auto;
  if (policy == "immediate") return Simulator::RuleSwapPolicy::Immediate;
  if (policy == "quiescent") return Simulator::RuleSwapPolicy::Quiescent;
  if (policy == "rolling") return Simulator::RuleSwapPolicy::Rolling;
  throw std::invalid_argument(
      "swap_policy must be auto, immediate, quiescent or rolling (got '" +
      policy + "')");
}

/// One-line AOT tier report for the summary: which tier serves decisions
/// and — when the VM kept serving — why the tables stayed off.
std::string tier_summary(const RuleDrivenRouting& rd) {
  const RuleDrivenRouting::AotTierInfo ti = rd.aot_tier_info();
  std::ostringstream os;
  os << " [tier " << RuleDrivenRouting::tier_name(ti.tier);
  if (ti.classifier != rules::DestClassifier::None)
    os << ", " << rules::to_string(ti.classifier);
  if (ti.compression_ratio > 1.0)
    os << ", " << ti.compression_ratio << "x compression";
  if (ti.tier == RuleDrivenRouting::AotTier::Vm && !ti.reason.empty())
    os << ": " << ti.reason;
  os << "]";
  return os.str();
}

/// The *-rules algorithms need the topology's construction parameters (the
/// corpus generators are parameterised the same way), so they take the
/// config rather than the built Topology.
std::unique_ptr<RoutingAlgorithm> build_rule_algorithm(
    const std::string& aname, const std::string& tname, const Config& cfg,
    rules::ExecMode mode) {
  const int w = static_cast<int>(cfg.get_int("width", 8));
  const int h = static_cast<int>(cfg.get_int("height", 8));
  const int d = static_cast<int>(cfg.get_int("dimension", 4));
  if (aname == "ecube-rules") {
    if (tname != "hypercube")
      throw std::invalid_argument("ecube-rules needs topology = hypercube");
    return std::make_unique<RuleDrivenRouting>(
        rulebases::ecube_route_source(d), 1, mode);
  }
  if (tname != "mesh")
    throw std::invalid_argument(aname + " needs topology = mesh");
  if (aname == "nara-rules")
    return std::make_unique<RuleDrivenRouting>(
        rulebases::nara_route_source(w, h), 2, mode);
  return std::make_unique<RuleDrivenRouting>(
      rulebases::ft_mesh_route_source(w, h), 3, mode, "route",
      /*escape_vc=*/2);
}

std::unique_ptr<RoutingAlgorithm> build_algorithm(const std::string& aname,
                                                  const std::string& tname,
                                                  const Config& cfg,
                                                  rules::ExecMode mode,
                                                  const Topology& topo) {
  if (rule_driven_name(aname))
    return build_rule_algorithm(aname, tname, cfg, mode);
  if (aname == "negative-hop")
    return std::make_unique<NegativeHop>(NegativeHop::vcs_needed_for(topo));
  if (aname == "dor-torus") return std::make_unique<DimensionOrderTorus>();
  return make_algorithm(aname);
}

/// Everything the config phase derives from the command line. Building it
/// throws on any config error; main() reports them all in one place.
struct RunSpec {
  Config cfg;
  std::unique_ptr<Topology> topo;
  std::string tname;
  std::string aname;
  std::string exec_mode_s;  // as given ("" = default aot)
  rules::ExecMode exec_mode = rules::ExecMode::Aot;
  std::string pattern;
  Cycle swap_at = 0;
  std::string swap_source;
  Simulator::RuleSwapPolicy swap_policy = Simulator::RuleSwapPolicy::Auto;
  int link_faults = 0;
  int node_faults = 0;
  std::uint64_t seed = 1;
  std::vector<double> rates;
  int threads = 0;
  bool show_links = false;
  SimConfig base;
  NetworkConfig ncfg;
  FaultSchedule schedule;
};

RunSpec read_config(int argc, char** argv) {
  RunSpec spec;
  Config& cfg = spec.cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    cfg = cfg.overridden_by(arg.find('=') != std::string::npos
                                ? Config::parse(arg)
                                : Config::from_file(arg));
  }
  for (const std::string& key : cfg.keys())
    if (std::find(std::begin(kKnownKeys), std::end(kKnownKeys), key) ==
        std::end(kKnownKeys))
      throw std::invalid_argument("unknown config key '" + key + "'");

  // Topology (shared by every replica — it is immutable).
  spec.tname = cfg.get_string("topology", "mesh");
  // Radix floors are the topologies' own: a torus needs 3 for its wrap
  // links to be distinct from the mesh links.
  if (spec.tname == "mesh") {
    spec.topo = std::make_unique<Mesh>(std::vector<int>{
        static_cast<int>(ranged_int(cfg, "width", 8, 2, 1 << 15)),
        static_cast<int>(ranged_int(cfg, "height", 8, 2, 1 << 15))});
  } else if (spec.tname == "torus") {
    spec.topo = std::make_unique<Torus>(std::vector<int>{
        static_cast<int>(ranged_int(cfg, "width", 8, 3, 1 << 15)),
        static_cast<int>(ranged_int(cfg, "height", 8, 3, 1 << 15))});
  } else if (spec.tname == "hypercube") {
    spec.topo = std::make_unique<Hypercube>(
        static_cast<int>(ranged_int(cfg, "dimension", 4, 1, 20)));
  } else {
    throw std::invalid_argument("unknown topology '" + spec.tname + "'");
  }

  spec.aname = cfg.get_string("algorithm", "nafta");

  // Rule-engine keys: both are contracts on the algorithm choice — a
  // decision backend or a live program swap only mean something when the
  // router is executing rules.
  spec.exec_mode_s = cfg.get_string("exec_mode", "");
  const std::string swap_spec = cfg.get_string("swap_rules_at", "");
  if ((!spec.exec_mode_s.empty() || !swap_spec.empty()) &&
      !rule_driven_name(spec.aname))
    throw std::invalid_argument(
        std::string(!spec.exec_mode_s.empty() ? "exec_mode"
                                              : "swap_rules_at") +
        " needs a rule-driven algorithm (nara-rules, ft-mesh-rules or "
        "ecube-rules); algorithm = '" +
        spec.aname + "' executes no rules");
  if (!spec.exec_mode_s.empty())
    spec.exec_mode = parse_exec_mode(spec.exec_mode_s);
  const std::string policy_s = cfg.get_string("swap_policy", "");
  if (!policy_s.empty()) {
    if (swap_spec.empty())
      throw std::invalid_argument(
          "swap_policy needs a scheduled swap (swap_rules_at)");
    spec.swap_policy = parse_swap_policy(policy_s);
  }
  if (!swap_spec.empty()) {
    const std::size_t comma = swap_spec.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument(
          "swap_rules_at must be <cycle>,<file> (got '" + swap_spec + "')");
    spec.swap_at =
        Config::parse_int("swap_rules_at", swap_spec.substr(0, comma));
    const std::string path = swap_spec.substr(comma + 1);
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("swap_rules_at: cannot read rule file '" +
                                  path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    spec.swap_source = buf.str();
  }

  spec.pattern = cfg.get_string("traffic", "uniform");
  spec.link_faults = static_cast<int>(ranged_int(cfg, "link_faults", 0, 0));
  spec.node_faults = static_cast<int>(ranged_int(cfg, "node_faults", 0, 0));
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  spec.rates = parse_rates(cfg);
  spec.threads = static_cast<int>(ranged_int(cfg, "threads", 0, 0));
  spec.show_links = cfg.get_bool("show_links", false);

  SimConfig& base = spec.base;
  base.packet_length =
      static_cast<int>(ranged_int(cfg, "packet_length", 4, 1));
  base.warmup_cycles = ranged_int(cfg, "warmup", 1000, 0);
  base.measure_cycles = ranged_int(cfg, "measure", 2000, 1);
  base.detection_delay = ranged_int(cfg, "detection_delay", 0, 0);
  base.max_retries = static_cast<int>(ranged_int(cfg, "max_retries", 3, 0));
  base.rolling_shards =
      static_cast<int>(ranged_int(cfg, "rolling_shards", 8, 1));

  spec.ncfg.shards = static_cast<int>(
      ranged_int(cfg, "shards", 1, 1, spec.topo->num_nodes()));
  spec.ncfg.shard_threads =
      static_cast<int>(ranged_int(cfg, "shard_threads", 0, 0));

  FaultSchedule& schedule = spec.schedule;
  schedule = parse_fault_schedule(cfg.get_string("fault_at", ""));
  const std::string regime = cfg.get_string("fault_regime", "");
  if (!regime.empty()) {
    if (!schedule.empty())
      throw std::invalid_argument(
          "fault_regime generates its own schedule and conflicts with "
          "fault_at — pick one");
    schedule = build_regime_schedule(regime, *spec.topo, base.warmup_cycles,
                                     base.measure_cycles, spec.seed);
  }
  const Cycle repair_after = cfg.get_int("repair_after", 0);
  if (repair_after < 0)
    throw std::invalid_argument("repair_after must be >= 0");
  if (repair_after > 0) {
    if (cfg.get_string("fault_at", "").empty())
      throw std::invalid_argument(
          "repair_after needs fault_at kill events to repair");
    append_repairs(schedule, repair_after);
  }
  const std::string flap_spec = cfg.get_string("flap", "");
  if (!flap_spec.empty())
    parse_flap(schedule, flap_spec, base.warmup_cycles + base.measure_cycles,
               spec.seed);
  parse_failslow(schedule, cfg.get_string("failslow", ""));

  // Build one algorithm and traffic generator up front: an unknown name or
  // a topology mismatch is a config error, not a failed run.
  build_algorithm(spec.aname, spec.tname, cfg, spec.exec_mode, *spec.topo);
  make_traffic(spec.pattern, *spec.topo, spec.seed);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  try {
    spec = read_config(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 2;
  }
  const Topology& topo = *spec.topo;
  const std::vector<double>& rates = spec.rates;
  const bool single = rates.size() == 1;

  // One grid point per offered load. Each replica applies the SAME fault
  // pattern (the fault RNG restarts per point) so the series varies only
  // in load.
  int exchanges = 0;
  std::string link_report;
  std::string tier_report;  // AOT tier of the first point's algorithm
  // Inert cycles each point skipped (one slot per point: no shared writes).
  std::vector<Cycle> skipped(rates.size(), 0);
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const bool first_point = i == 0;
    points.push_back({[&, i, rate, first_point](std::uint64_t derived_seed) {
      auto algo = build_algorithm(spec.aname, spec.tname, spec.cfg,
                                  spec.exec_mode, topo);
      auto traffic = make_traffic(spec.pattern, topo, spec.seed);
      Network net(topo, *algo, spec.ncfg);
      if (spec.link_faults > 0 || spec.node_faults > 0) {
        Rng frng(spec.seed ^ 0xfa017ULL);
        const int ex = net.apply_faults([&](FaultSet& f) {
          inject_random_node_faults(f, spec.node_faults, frng);
          inject_random_link_faults(f, spec.link_faults, frng);
        });
        if (first_point) exchanges = ex;  // identical on every point
      }
      if (first_point)
        if (const auto* rd = dynamic_cast<const RuleDrivenRouting*>(algo.get()))
          tier_report = tier_summary(*rd);
      SimConfig scfg = spec.base;
      scfg.injection_rate = rate;
      scfg.seed = single ? spec.seed : derived_seed;
      Simulator sim(net, *traffic, scfg);
      if (!spec.schedule.empty()) sim.set_fault_schedule(spec.schedule);
      if (!spec.swap_source.empty())
        sim.schedule_rule_swap(spec.swap_at, spec.swap_source,
                               spec.swap_policy);
      SimResult r = sim.run();
      skipped[i] = sim.idle_cycles_skipped();
      if (single && spec.show_links) {
        std::ostringstream os;
        os << "hottest links (flits/cycle):\n";
        const auto loads = net.link_utilization(sim.now());
        for (std::size_t j = 0; j < std::min<std::size_t>(5, loads.size());
             ++j)
          os << "  node " << loads[j].from << " port " << loads[j].port
             << ": " << loads[j].utilization << "\n";
        link_report = os.str();
      }
      return r;
    }});
  }

  SweepOptions sopts;
  sopts.num_threads = single ? 1 : spec.threads;
  sopts.base_seed = spec.seed;
  SweepRunner runner(sopts);

  std::vector<SimResult> results;
  try {
    results = runner.run(points);
  } catch (const std::exception& e) {
    std::cerr << "simulation error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "flexsim: " << topo.name() << ", " << spec.aname << ", "
            << spec.pattern << " traffic";
  if (spec.link_faults > 0 || spec.node_faults > 0)
    std::cout << ", " << spec.link_faults << " link + " << spec.node_faults
              << " node faults (reconfiguration: " << exchanges
              << " exchanges)";
  if (spec.ncfg.shards > 1) std::cout << ", " << spec.ncfg.shards << " shards";
  Cycle total_skipped = 0;
  for (const Cycle c : skipped) total_skipped += c;
  std::cout << ", " << total_skipped << " inert cycles skipped";
  if (rule_driven_name(spec.aname))
    std::cout << ", exec "
              << (spec.exec_mode_s.empty() ? "aot" : spec.exec_mode_s)
              << tier_report;
  if (!spec.swap_source.empty()) {
    std::cout << ", rule swap at cycle " << spec.swap_at << " ("
              << results[0].rule_swaps << " committed, "
              << results[0].swap_gated_cycles << " gated cycles";
    if (results[0].swap_gated_node_cycles > 0)
      std::cout << ", " << results[0].swap_gated_node_cycles
                << " gated node-cycles";
    std::cout << ")";
  }
  if (!single)
    std::cout << ", sweep of " << rates.size() << " loads on "
              << runner.num_threads() << " threads";
  std::cout << "\n";

  bool deadlock = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!single) std::cout << "rate " << rates[i] << ": ";
    std::cout << results[i].to_string() << "\n";
    deadlock = deadlock || results[i].deadlock_suspected;
  }
  if (!single) {
    const SweepReport rep = summarize(results);
    std::cout << rep.to_string() << "\n";
  }
  if (!link_report.empty()) std::cout << link_report;
  return deadlock ? 1 : 0;
}
