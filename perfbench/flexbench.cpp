// flexbench: one workload of the flexrouter host-time benchmark, run in its
// own process with one simulation thread.
//
//   flexbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--pins FILE] [--trace-out FILE]
//   flexbench --selftest-wrappers
//
// Workloads (uniform traffic at 0.025 flits/node/cycle, below the load at
// which latency starts to grow with run length):
//   mesh64_nafta         native NAFTA, fault-free
//   mesh64_ftrules       the fault-tolerant rule program on the AOT ladder
//   mesh64_nafta_faults  native NAFTA under seeded live link kills/repairs
// --smoke runs the same workloads on an 8x8 mesh.
//
// --trace 0 repeats setup + Simulator::run for about S seconds (at least
// three times) and reports the end-to-end metrics. Every repetition of a
// seed does identical work, so run time is taken piece by piece (slices of
// simulated time marked by tracing.hpp's ProgressTraffic) and the fastest
// copy of each piece is summed: interference from the rest of the machine
// only ever adds time. setup_s is the median setup. --trace 1 runs the
// workload once through the forwarding wrappers of tracing.hpp, once
// without them, asserts the two SimResults are bit-identical and reports the
// per-layer metrics; the coarse spans go to --trace-out as Chrome
// trace-event JSON.
//
// Every run checks its outputs: the accounting identity, no deadlock on the
// fault-free workloads, one recovery per scheduled fault event, identical
// SimResults across repetitions, and the exact SimResults pinned in --pins
// (the 8x8 pin of the workload at the named seed is checked on every run;
// the run's own seed is checked when the pin file has it). The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"};
// the exit code is 1 when a check failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/nafta.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/bytecode.hpp"
#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "topology/mesh.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

using flexrouter::Cycle;
using flexrouter::FaultSchedule;
using flexrouter::Mesh;
using flexrouter::Network;
using flexrouter::RoutingAlgorithm;
using flexrouter::RuleDrivenRouting;
using flexrouter::SimConfig;
using flexrouter::SimResult;
using flexrouter::Simulator;
using flexrouter::UniformTraffic;

/// The seed whose full SimResult is pinned for every workload and scale.
constexpr std::uint64_t kNamedSeed = 42;
/// Offered load, flits/node/cycle. 0.03 (half the uniform saturation bound
/// 4/k = 0.0625) is already past NAFTA's knee on this mesh: p99 latency grew
/// from ~400-650 cycles over 1000 measured cycles to 1300-1800 over 3000.
/// At 0.025 it holds at ~308 for both lengths, so no backlog grows.
constexpr double kRate = 0.025;
/// Simulated phases: long enough for ~25k measured packets on the 64x64
/// mesh (p99 latency within 1% across seeds), short enough for several
/// repetitions of setup + run inside one timed run.
constexpr Cycle kWarmup = 200;
constexpr Cycle kMeasure = 1000;
/// Fault workload: a seeded link dies at cycle 0, on the empty network, and
/// stays dead through warmup and measurement, so NAFTA routes the measured
/// traffic around it. It is repaired on the first drain cycle. Each event
/// opens its own diagnosis phase and commit (reconfigure). Two simulator
/// behaviours shaped this (see README.md): a live kill under traffic can
/// trip "flit sent on a failed link", and with a dead link under load a
/// NAFTA packet can wander ~270 hops on some seeds and not on others, which
/// stretches the drain by ~800 cycles. A repair inside the measured window
/// would gate injection for that whole drain and make availability swing
/// 2x from seed to seed.
constexpr Cycle kRepairAt = kWarmup + kMeasure;
/// A timed run makes at least this many repetitions, so each piece of work
/// has several copies to take the fastest from.
constexpr std::size_t kMinReps = 3;
/// Simulated cycles per progress piece: 61 pieces per run, each tens of
/// milliseconds of host time on the 64x64 mesh.
constexpr Cycle kChunkCycles = 20;

struct Workload {
  const char* name;
  bool rules;   // ft-mesh rule program instead of native NAFTA
  bool faults;  // seeded live link kills and repairs
};

constexpr Workload kWorkloads[] = {
    {"mesh64_nafta", false, false},
    {"mesh64_ftrules", true, false},
    {"mesh64_nafta_faults", false, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

SimConfig make_sim_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.injection_rate = kRate;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = seed;
  return cfg;
}

FaultSchedule make_fault_schedule(const flexrouter::Topology& topo,
                                  std::uint64_t seed) {
  flexrouter::SplitMix64 sm(seed ^ 0xfa17ULL);
  const std::vector<flexrouter::LinkRef> links = topo.undirected_links();
  const flexrouter::LinkRef l =
      links[sm.next_below(static_cast<std::uint64_t>(links.size()))];
  FaultSchedule s;
  s.fail_link_at(0, l.node, l.port);
  s.repair_link_at(kRepairAt, l.node, l.port);
  return s;
}

std::unique_ptr<RoutingAlgorithm> make_algorithm(const Workload& w,
                                                 int side) {
  if (w.rules)
    return std::make_unique<RuleDrivenRouting>(
        flexrouter::rulebases::ft_mesh_route_source(side, side), 3,
        flexrouter::rules::ExecMode::Aot, "route", 2);
  return std::make_unique<flexrouter::Nafta>();
}

/// One replica of a workload. Members are destroyed in reverse order, so
/// the simulator and network go before what they reference.
struct Replica {
  std::unique_ptr<Mesh> topo;
  std::unique_ptr<RoutingAlgorithm> algo;
  std::unique_ptr<UniformTraffic> traffic;
  std::unique_ptr<TracedRouting> traced_algo;    // trace mode only
  std::unique_ptr<TracedTraffic> traced_traffic;  // trace mode only
  std::unique_ptr<ProgressTraffic> progress;      // timed runs only
  std::unique_ptr<Network> net;
  std::unique_ptr<Simulator> sim;
  int scheduled_events = 0;
  double setup_s = 0.0;
  double algorithm_s = 0.0;  // algorithm construction
  double network_s = 0.0;    // Network construction, attach included
};

/// Setup: topology, algorithm, traffic, Network (which attaches the
/// algorithm) and Simulator, up to the first cycle. With `log`, the
/// algorithm and traffic are wrapped and each step is recorded as a span;
/// otherwise, with `progress`, the traffic is wrapped in ProgressTraffic.
Replica build_replica(const Workload& w, int side, std::uint64_t seed,
                      SpanLog* log, bool progress = true) {
  Replica r;
  const auto t0 = Clock::now();
  r.topo = std::make_unique<Mesh>(Mesh::two_d(side, side));
  const auto t1 = Clock::now();
  r.algo = make_algorithm(w, side);
  r.traffic = std::make_unique<UniformTraffic>(*r.topo);
  RoutingAlgorithm* algo = r.algo.get();
  flexrouter::TrafficPattern* traffic = r.traffic.get();
  if (log != nullptr) {
    r.traced_algo = std::make_unique<TracedRouting>(*r.algo, *log);
    r.traced_traffic = std::make_unique<TracedTraffic>(*r.traffic);
    algo = r.traced_algo.get();
    traffic = r.traced_traffic.get();
  } else if (progress) {
    r.progress = std::make_unique<ProgressTraffic>(*r.traffic, kChunkCycles);
    traffic = r.progress.get();
  }
  const auto t2 = Clock::now();
  r.net = std::make_unique<Network>(*r.topo, *algo);
  const auto t3 = Clock::now();
  r.sim = std::make_unique<Simulator>(*r.net, *traffic,
                                      make_sim_config(seed));
  if (r.progress) r.progress->watch(*r.sim);
  if (w.faults) {
    const FaultSchedule schedule = make_fault_schedule(*r.topo, seed);
    r.scheduled_events = static_cast<int>(schedule.size());
    r.sim->set_fault_schedule(schedule);
  }
  const auto t4 = Clock::now();
  r.setup_s = seconds_between(t0, t4);
  r.algorithm_s = seconds_between(t1, t2);
  r.network_s = seconds_between(t2, t3);
  if (log != nullptr) {
    log->add("Mesh construction", "setup", t0, t1);
    log->add(w.rules ? "RuleDrivenRouting construction"
                     : "Nafta construction",
             "setup", t1, t2);
    log->add("Network construction", "setup", t2, t3);
    log->add("Simulator construction", "setup", t3, t4);
  }
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Rep {
  SimResult result;
  int scheduled_events = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  Cycle cycles = 0;
  double algorithm_s = 0.0;
  /// Simulator::run cut at the progress marks: run start to the first
  /// mark, mark to mark, last mark to run end. Timed runs only.
  std::vector<double> pieces;
  // Trace mode only:
  std::vector<Metric> layers;
  CallStats route_stats;
  CallStats dest_stats;
};

/// Per-layer metrics read from the replica after its run: wrapper
/// aggregates, public counters and the AOT tier report.
std::vector<Metric> layer_metrics(const Replica& r, const Rep& rep) {
  const TracedRouting& ta = *r.traced_algo;
  const TracedTraffic& tt = *r.traced_traffic;
  const flexrouter::RouterStats st = r.net->aggregate_stats();
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  RuleDrivenRouting::AotTierInfo tier;
  if (const auto* rd = dynamic_cast<const RuleDrivenRouting*>(r.algo.get()))
    tier = rd->aot_tier_info();
  const std::int64_t moves = r.net->total_flit_movements();
  // Self time of Simulator::run: its duration minus the child spans the
  // wrappers timed inside it (route, dest and each fault commit's
  // reconfigure), i.e. router and network stepping.
  const double self_s = rep.run_s - ta.route_stats.total_s() -
                        tt.dest_stats.total_s() - ta.reconfigure_s;
  const auto [util_max, util_mean] = r.net->utilization_summary(rep.cycles);
  Cycle recovery_max = 0;
  for (const Cycle c : rep.result.recovery_durations)
    recovery_max = std::max(recovery_max, c);
  return {
      {"routing.attach_s", ta.attach_s, "s"},
      {"routing.attach_rss_mib", ta.attach_rss_mib, "MiB"},
      {"routing.reconfigure_calls", d(ta.reconfigure_calls), "count"},
      {"routing.reconfigure_s", ta.reconfigure_s, "s"},
      {"routing.reconfigure_max_s", ta.reconfigure_max_s, "s"},
      {"routing.route_calls", d(ta.route_stats.calls), "count"},
      {"routing.route_s", ta.route_stats.total_s(), "s"},
      {"routing.route_ns_mean",
       ratio(d(ta.route_stats.total_ns), d(ta.route_stats.calls)), "ns"},
      {"routing.route_calls_per_rc",
       ratio(d(ta.route_stats.calls), d(st.packets_routed)), "ratio"},
      {"ruleengine.lazy_hits", d(tier.lazy_hits), "count"},
      {"ruleengine.lazy_misses", d(tier.lazy_misses), "count"},
      {"ruleengine.lazy_evictions", d(tier.lazy_evictions), "count"},
      {"ruleengine.lazy_uncacheable", d(tier.lazy_uncacheable), "count"},
      {"ruleengine.lazy_hit_ratio",
       ratio(d(tier.lazy_hits), d(tier.lazy_hits + tier.lazy_misses)),
       "ratio"},
      {"ruleengine.lazy_nodes_allocated",
       static_cast<double>(tier.lazy_nodes_allocated), "count"},
      {"ruleengine.table_entries", static_cast<double>(tier.table_entries),
       "count"},
      {"router.flits_forwarded", d(st.flits_forwarded), "count"},
      {"router.packets_routed", d(st.packets_routed), "count"},
      {"router.rc_no_candidates", d(st.rc_no_candidates), "count"},
      {"router.rc_retry_ratio",
       ratio(d(st.rc_no_candidates), d(st.packets_routed + st.rc_no_candidates)),
       "ratio"},
      {"router.va_retries", d(st.va_retries), "count"},
      {"router.flits_dropped", d(st.flits_dropped), "count"},
      {"sim.run_s", rep.run_s, "s"},
      {"sim.run_self_s", self_s, "s"},
      {"sim.flit_movements", d(moves), "count"},
      {"sim.ns_per_flit_move", ratio(self_s * 1e9, d(moves)), "ns"},
      {"sim.network_build_s", r.network_s - ta.attach_s, "s"},
      {"sim.link_util_max", util_max, "ratio"},
      {"sim.link_util_mean", util_mean, "ratio"},
      {"sim.recovery_events", d(rep.result.recovery_events), "count"},
      {"sim.recovery_max_cycles", d(recovery_max), "cycles"},
      {"sim.worms_killed", d(rep.result.worms_killed), "count"},
      {"sim.packets_lost", d(rep.result.packets_lost), "count"},
      {"sim.packets_retransmitted", d(rep.result.packets_retransmitted),
       "count"},
      {"sim.traffic_dest_calls", d(tt.dest_stats.calls), "count"},
      {"sim.traffic_dest_s", tt.dest_stats.total_s(), "s"},
  };
}

/// Setup plus one Simulator::run. With `log`, runs through the wrappers and
/// fills the per-layer metrics.
Rep run_rep(const Workload& w, int side, std::uint64_t seed, SpanLog* log) {
  Replica r = build_replica(w, side, seed, log);
  Rep rep;
  rep.scheduled_events = r.scheduled_events;
  rep.setup_s = r.setup_s;
  rep.algorithm_s = r.algorithm_s;
  const auto t0 = Clock::now();
  rep.result = r.sim->run();
  const auto t1 = Clock::now();
  rep.run_s = seconds_between(t0, t1);
  rep.cycles = r.sim->now();
  if (r.progress) {
    auto prev = t0;
    for (const auto mark : r.progress->marks) {
      rep.pieces.push_back(seconds_between(prev, mark));
      prev = mark;
    }
    rep.pieces.push_back(seconds_between(prev, t1));
  }
  if (log != nullptr) {
    log->add("Simulator::run", "sim", t0, t1);
    rep.layers = layer_metrics(r, rep);
    rep.route_stats = r.traced_algo->route_stats;
    rep.dest_stats = r.traced_traffic->dest_stats;
  }
  return rep;
}

/// Every SimResult field, doubles printed to round-trip exactly: two
/// results are bit-identical iff their canonical strings are equal.
std::string canonical(const SimResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "injected=" << r.injected_packets
     << " delivered=" << r.delivered_packets << " avg_lat=" << r.avg_latency
     << " p50=" << r.p50_latency << " p99=" << r.p99_latency
     << " hops=" << r.avg_hops << " hops_ratio=" << r.min_hops_ratio
     << " thpt=" << r.throughput << " misrouted=" << r.misrouted_fraction
     << " lat_misrouted=" << r.avg_latency_misrouted
     << " lat_direct=" << r.avg_latency_direct
     << " steps=" << r.avg_decision_steps
     << " deadlock=" << r.deadlock_suspected << " cycles=" << r.cycles_run
     << " lost=" << r.packets_lost << " retx=" << r.packets_retransmitted
     << " unrecoverable=" << r.packets_unrecoverable
     << " faults=" << r.fault_events << " repairs=" << r.repair_events
     << " degrades=" << r.degrade_events
     << " recoveries=" << r.recovery_events
     << " recovery_cycles=" << r.recovery_cycles << " recovery_durations=[";
  for (std::size_t i = 0; i < r.recovery_durations.size(); ++i)
    os << (i ? "," : "") << r.recovery_durations[i];
  os << "] avail=" << r.availability << " kills=" << r.worms_killed
     << " exchanges=" << r.reconfig_exchanges << " swaps=" << r.rule_swaps
     << " swap_gated=" << r.swap_gated_cycles
     << " swap_gated_nodes=" << r.swap_gated_node_cycles
     << " blocked_chain=[";
  for (std::size_t i = 0; i < r.blocked_chain.size(); ++i) {
    const SimResult::BlockedChannelInfo& c = r.blocked_chain[i];
    os << (i ? "," : "") << c.node << ":" << c.port << ":" << c.vc << ":"
       << c.packet;
  }
  os << "]";
  return os.str();
}

/// Pinned SimResults, one per line: `<workload> <side> <seed> <canonical>`.
/// Lines starting with '#' are comments.
using Pins = std::map<std::string, std::string>;

std::string pin_key(const std::string& workload, int side,
                    std::uint64_t seed) {
  return workload + " " + std::to_string(side) + " " + std::to_string(seed);
}

std::optional<Pins> load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name;
    int side = 0;
    std::uint64_t seed = 0;
    if (!(is >> name >> side >> seed)) return std::nullopt;
    std::string rest;
    std::getline(is >> std::ws, rest);
    pins[pin_key(name, side, seed)] = rest;
  }
  return pins;
}

/// Collects failed output checks; the run is correct iff none failed.
struct Checks {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  /// Invariants that hold at any seed.
  void invariants(const Workload& w, const Rep& rep, const std::string& tag) {
    const SimResult& r = rep.result;
    expect(r.injected_packets > 0, tag + ": no measured packets");
    expect(r.delivered_packets + r.packets_unrecoverable == r.injected_packets,
           tag + ": delivered + unrecoverable != injected");
    expect(r.packets_lost == r.packets_retransmitted + r.packets_unrecoverable,
           tag + ": lost != retransmitted + unrecoverable");
    if (!w.faults)
      expect(!r.deadlock_suspected, tag + ": deadlock suspected");
    else
      expect(r.recovery_events == rep.scheduled_events,
             tag + ": " + std::to_string(r.recovery_events) +
                 " recoveries for " + std::to_string(rep.scheduled_events) +
                 " scheduled fault events");
  }

  /// Exact SimResult, when `pins` holds one for this key. `required` makes
  /// a missing pin a failure.
  void pinned(const Pins& pins, const std::string& key, const SimResult& r,
              bool required) {
    const auto it = pins.find(key);
    if (it == pins.end()) {
      expect(!required, "no pinned SimResult for " + key);
      return;
    }
    const std::string got = canonical(r);
    expect(got == it->second, "SimResult differs from the pin for " + key +
                                  "\n  pinned: " + it->second +
                                  "\n  got:    " + got);
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Simulator::run time of one repetition with the machine's interference
/// filtered out: the fastest copy of each progress piece, summed. All
/// repetitions must have been cut into the same pieces (checked by run()).
double best_run_s(const std::vector<Rep>& reps) {
  double total = 0.0;
  for (std::size_t i = 0; i < reps.front().pieces.size(); ++i) {
    double best = reps.front().pieces[i];
    for (const Rep& rep : reps) best = std::min(best, rep.pieces[i]);
    total += best;
  }
  return total;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Rep>& reps,
                                       double rss_mib) {
  std::vector<double> setups;
  for (const Rep& rep : reps) setups.push_back(rep.setup_s);
  const double run_s = best_run_s(reps);
  const SimResult& r = reps.front().result;
  return {
      {"wall_s", *std::min_element(setups.begin(), setups.end()) + run_s,
       "s"},
      {"setup_s", median(setups), "s"},
      // Cycles of the offered-load phases: the drain that follows lasts
      // until the slowest packet arrives, so counting it would make the
      // rate hinge on one packet (its time still counts in run_s).
      {"sim_cycles_per_s", static_cast<double>(kWarmup + kMeasure) / run_s,
       "cycles/s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"packets_delivered_frac",
       static_cast<double>(r.delivered_packets) /
           static_cast<double>(r.injected_packets),
       "fraction"},
      {"sim_latency_p50_cycles", r.p50_latency, "cycles"},
      {"sim_latency_p99_cycles", r.p99_latency, "cycles"},
      {"sim_throughput", r.throughput, "flits/node/cycle"},
      {"sim_availability", r.availability, "fraction"},
      {"sim_hops_ratio", r.min_hops_ratio, "ratio"},
  };
}

/// Standalone compile of the workload's rule program through the public
/// rule-engine entry points (RuleDrivenRouting compiles the same source
/// inside attach, which the benchmark cannot split from the escape build).
void compile_probe(int side) {
  const std::string src =
      flexrouter::rulebases::ft_mesh_route_source(side, side);
  const flexrouter::rules::Program prog =
      flexrouter::rules::parse_program(src);
  flexrouter::rules::require_valid(prog);
  const auto bc = flexrouter::rules::compile_bytecode(prog);
  if (bc == nullptr) throw std::runtime_error("rule program did not compile");
}

struct Args {
  std::string workload;
  std::uint64_t seed = kNamedSeed;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string pins_path;
  std::string trace_out;
  bool selftest = false;
};

int usage(const std::string& msg) {
  std::cerr << "flexbench: " << msg
            << "\nusage: flexbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--pins FILE] [--trace-out FILE]\n"
               "       flexbench --selftest-wrappers\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv, std::string* err) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    try {
      if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--selftest-wrappers") {
        a.selftest = true;
      } else if (k == "--workload" || k == "--seed" || k == "--seconds" ||
                 k == "--trace" || k == "--pins" || k == "--trace-out") {
        v = value();
        if (!v) {
          *err = k + " needs a value";
          return std::nullopt;
        }
        if (k == "--workload") a.workload = *v;
        if (k == "--seed") a.seed = std::stoull(*v);
        if (k == "--seconds") a.seconds = std::stod(*v);
        if (k == "--trace") a.trace = std::stoi(*v);
        if (k == "--pins") a.pins_path = *v;
        if (k == "--trace-out") a.trace_out = *v;
      } else {
        *err = "unknown argument '" + k + "'";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      *err = "bad value '" + v.value_or("") + "' for " + k;
      return std::nullopt;
    }
  }
  if (a.selftest) return a;
  if (find_workload(a.workload) == nullptr) {
    *err = "unknown workload '" + a.workload + "'";
    return std::nullopt;
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    *err = "--seconds must be > 0 and --trace 0 or 1";
    return std::nullopt;
  }
  if (a.pins_path.empty()) {
    *err = "--pins is required";
    return std::nullopt;
  }
  return a;
}

/// The wrappers must be invisible: same answers to every virtual, same
/// destinations for the same RNG state, same SimResult.
int selftest_wrappers() {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    SpanLog log(Clock::now());
    Replica bare = build_replica(w, 8, kNamedSeed, nullptr, false);
    Replica plain = build_replica(w, 8, kNamedSeed, nullptr);  // progress
    Replica traced = build_replica(w, 8, kNamedSeed, &log);
    const RoutingAlgorithm& pa = *plain.algo;
    const RoutingAlgorithm& ta = *traced.traced_algo;
    ok &= pa.name() == ta.name() && pa.num_vcs() == ta.num_vcs() &&
          pa.max_path_len() == ta.max_path_len();
    for (flexrouter::VcId vc = 0; vc < pa.num_vcs(); ++vc)
      ok &= pa.is_escape_vc(vc) == ta.is_escape_vc(vc);
    for (int len = 0; len < 16; ++len)
      ok &= pa.path_len_class(len) == ta.path_len_class(len);
    const flexrouter::NodeId n = plain.topo->num_nodes();
    for (flexrouter::NodeId node = 0; node < n; ++node) {
      for (flexrouter::NodeId dest = 0; dest < n; ++dest) {
        if (dest == node) continue;
        flexrouter::RouteContext ctx;
        ctx.node = node;
        ctx.in_port = plain.topo->degree();  // local injection port
        ctx.in_vc = 0;
        ctx.src = node;
        ctx.dest = dest;
        const flexrouter::RouteDecision a = pa.route(ctx);
        const flexrouter::RouteDecision b = ta.route(ctx);
        ok &= a.steps == b.steps && a.mark_misrouted == b.mark_misrouted &&
              a.candidates.size() == b.candidates.size() &&
              std::equal(a.candidates.begin(), a.candidates.end(),
                         b.candidates.begin());
      }
    }
    flexrouter::Rng ra(7), rb(7), rc(7);
    for (int i = 0; i < 10000; ++i) {
      const auto src = static_cast<flexrouter::NodeId>(i % n);
      const flexrouter::NodeId d = bare.traffic->dest(src, ra);
      ok &= d == plain.progress->dest(src, rb) &&
            d == traced.traced_traffic->dest(src, rc);
    }
    const std::string br = canonical(bare.sim->run());
    ok &= br == canonical(plain.sim->run()) &&
          br == canonical(traced.sim->run());
    std::cout << w.name << ": " << (ok ? "identical" : "DIFFERENT") << "\n";
  }
  std::cout << (ok ? "wrappers forward bit-identically\n"
                   : "wrapper forwarding changed behaviour\n");
  return ok ? 0 : 1;
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const int side = a.smoke ? 8 : 64;
  const std::optional<Pins> pins = load_pins(a.pins_path);
  if (!pins) return usage("cannot read pins from '" + a.pins_path + "'");

  std::cout << "{\"build\": {\"compiler\": \"" FLEXBENCH_COMPILER
               "\", \"flags\": \"" FLEXBENCH_FLAGS
               "\", \"build_type\": \"" FLEXBENCH_BUILD_TYPE "\"}}\n";
  std::cout << w.name << " on a " << side << "x" << side << " mesh, seed "
            << a.seed << (a.trace ? ", traced" : "") << "\n";

  Checks checks;
  std::vector<Rep> reps;
  std::vector<Metric> metrics;
  const auto origin = Clock::now();
  if (a.trace == 0) {
    for (;;) {
      reps.push_back(run_rep(w, side, a.seed, nullptr));
      const Rep& rep = reps.back();
      // Past the minimum, start another repetition only if it fits in the
      // time budget.
      if (reps.size() >= kMinReps &&
          seconds_between(origin, Clock::now()) + rep.setup_s + rep.run_s >
              a.seconds)
        break;
    }
    const double rss = peak_rss_mib();
    bool same_pieces = true;
    for (const Rep& rep : reps)
      same_pieces &= rep.pieces.size() == reps.front().pieces.size();
    checks.expect(same_pieces,
                  "repetitions of one seed made different progress marks");
    std::cout << "  setup s:";
    for (const Rep& rep : reps) std::cout << " " << rep.setup_s;
    std::cout << "\n  run s:";
    for (const Rep& rep : reps) std::cout << " " << rep.run_s;
    if (same_pieces) {
      metrics = end_to_end_metrics(reps, rss);
      std::cout << "\n  fastest pieces summed, run s: " << best_run_s(reps)
                << " (" << reps.front().pieces.size() << " pieces)";
    }
    std::cout << "\n";
  } else {
    SpanLog log(origin);
    double compile_s = 0.0;
    if (w.rules) {
      const auto t0 = Clock::now();
      compile_probe(side);
      const auto t1 = Clock::now();
      compile_s = seconds_between(t0, t1);
      log.add("rule program compile", "ruleengine", t0, t1);
    }
    // Traced first, so attach's peak-RSS growth is measured in a fresh
    // process.
    Rep traced = run_rep(w, side, a.seed, &log);
    reps.push_back(run_rep(w, side, a.seed, nullptr));
    const Rep& untraced = reps.back();
    checks.expect(canonical(traced.result) == canonical(untraced.result),
                  "traced SimResult differs from the untraced one");
    checks.invariants(w, traced, "traced run");
    metrics = traced.layers;
    // RuleDrivenRouting construction is part of the compile cost.
    if (w.rules) compile_s += traced.algorithm_s;
    metrics.push_back({"ruleengine.compile_s", compile_s, "s"});
    const double untraced_wall = untraced.setup_s + untraced.run_s;
    metrics.push_back(
        {"trace.overhead_frac",
         (traced.setup_s + traced.run_s - untraced_wall) / untraced_wall,
         "ratio"});
    const std::vector<std::pair<std::string, const CallStats*>> hot = {
        {"RoutingAlgorithm::route", &traced.route_stats},
        {"TrafficPattern::dest", &traced.dest_stats}};
    if (!a.trace_out.empty())
      checks.expect(log.write_chrome_json(a.trace_out, hot),
                    "cannot write trace to " + a.trace_out);
  }

  for (std::size_t i = 0; i < reps.size(); ++i)
    checks.invariants(w, reps[i], "rep " + std::to_string(i + 1));
  for (const Rep& rep : reps)
    checks.expect(canonical(rep.result) == canonical(reps.front().result),
                  "repetitions of one seed gave different SimResults");
  checks.pinned(*pins, pin_key(w.name, side, a.seed), reps.front().result,
                a.seed == kNamedSeed);
  // The small-fabric pin at the named seed is checked on every run, so a
  // behaviour change fails whatever seed the run was given.
  if (side != 8 || a.seed != kNamedSeed) {
    const Rep probe = run_rep(w, 8, kNamedSeed, nullptr);
    checks.invariants(w, probe, "8x8 pin probe");
    checks.pinned(*pins, pin_key(w.name, 8, kNamedSeed), probe.result, true);
  }

  const SimResult& r = reps.front().result;
  std::cout << "  SimResult: " << canonical(r) << "\n";
  for (const std::string& f : checks.failures)
    std::cout << "CHECK FAILED: " << f << "\n";
  std::int64_t attempted = 0, failed = 0;
  for (const Rep& rep : reps) {
    attempted += rep.result.injected_packets;
    failed += rep.result.injected_packets - rep.result.delivered_packets;
  }
  const bool correct = checks.failures.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string err;
  const auto args = perfbench::parse_args(argc, argv, &err);
  if (!args) return perfbench::usage(err);
  try {
    if (args->selftest) return perfbench::selftest_wrappers();
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "flexbench: " << e.what() << "\n";
    return 1;
  }
}
