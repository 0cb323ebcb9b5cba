// Sharded-execution determinism suite. The contract under test: a Network
// stepped as 2, 4 or 8 spatial shards — with any thread count — produces a
// SimResult bit-identical to the single-shard step, on fault-free,
// statically-faulted and live-fault-lifecycle scenarios, across every
// registered routing algorithm; and the simulator's skipping of inert
// cycles leaves exact-value pins untouched while skipping on low load.
// Plus unit coverage for the spatial shard planner itself.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "routing/routing.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "topology/hypercube.hpp"
#include "topology/shard_plan.hpp"
#include "topology/torus.hpp"

namespace flexrouter {
namespace {

// ----------------------------------------------------------- shard planner

TEST(ShardPlan, MeshTilesAreBalancedAndExhaustive) {
  Mesh m = Mesh::two_d(8, 8);
  const ShardPlan plan = plan_shards(m, 4);
  EXPECT_EQ(plan.num_shards, 4);
  EXPECT_EQ(plan.scheme, "mesh-tiles");
  std::vector<int> seen(64, 0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.nodes[static_cast<std::size_t>(s)].size(), 16u);
    for (const NodeId n : plan.nodes[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(plan.shard(n), s);
      ++seen[static_cast<std::size_t>(n)];
    }
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(ShardPlan, MeshTilesAreContiguousBoxes) {
  // Recursive bisection of an 8x8 mesh into 4 shards must produce spatial
  // quadrants: every shard's bounding box contains exactly its own nodes.
  Mesh m = Mesh::two_d(8, 8);
  const ShardPlan plan = plan_shards(m, 4);
  for (int s = 0; s < 4; ++s) {
    int min_x = 8, max_x = -1, min_y = 8, max_y = -1;
    for (const NodeId n : plan.nodes[static_cast<std::size_t>(s)]) {
      min_x = std::min(min_x, m.coord(n, 0));
      max_x = std::max(max_x, m.coord(n, 0));
      min_y = std::min(min_y, m.coord(n, 1));
      max_y = std::max(max_y, m.coord(n, 1));
    }
    const std::size_t box = static_cast<std::size_t>(max_x - min_x + 1) *
                            static_cast<std::size_t>(max_y - min_y + 1);
    EXPECT_EQ(box, plan.nodes[static_cast<std::size_t>(s)].size());
  }
}

TEST(ShardPlan, HypercubeSubcubes) {
  Hypercube h(4);
  const ShardPlan plan = plan_shards(h, 4);
  EXPECT_EQ(plan.scheme, "subcubes");
  // Top two address bits pick the shard: each shard is a 2-subcube.
  for (NodeId n = 0; n < 16; ++n)
    EXPECT_EQ(plan.shard(n), static_cast<int>(n) >> 2);
}

TEST(ShardPlan, NonPowerOfTwoHypercubeFallsBackToRanges) {
  Hypercube h(4);
  const ShardPlan plan = plan_shards(h, 3);
  EXPECT_EQ(plan.scheme, "ranges");
  std::size_t total = 0;
  for (const auto& ns : plan.nodes) {
    EXPECT_FALSE(ns.empty());
    total += ns.size();
  }
  EXPECT_EQ(total, 16u);
}

TEST(ShardPlan, TorusTiles) {
  Torus t(std::vector<int>{6, 6});
  const ShardPlan plan = plan_shards(t, 4);
  EXPECT_EQ(plan.scheme, "mesh-tiles");
  for (const auto& ns : plan.nodes) EXPECT_EQ(ns.size(), 9u);
}

TEST(ShardPlan, OneShardAndOneShardPerNode) {
  Mesh m = Mesh::two_d(4, 4);
  const ShardPlan one = plan_shards(m, 1);
  EXPECT_EQ(one.nodes[0].size(), 16u);
  const ShardPlan all = plan_shards(m, 16);
  for (const auto& ns : all.nodes) EXPECT_EQ(ns.size(), 1u);
}

TEST(ShardPlan, RejectsBadShardCounts) {
  Mesh m = Mesh::two_d(4, 4);
  EXPECT_THROW(plan_shards(m, 0), ContractViolation);
  EXPECT_THROW(plan_shards(m, 17), ContractViolation);
}

// ------------------------------------------------------- identity harness

/// Bit-exact SimResult comparison over every field (memcmp on doubles:
/// identity, not tolerance).
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  const auto bits_eq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(bits_eq(a.avg_latency, b.avg_latency));
  EXPECT_TRUE(bits_eq(a.p50_latency, b.p50_latency));
  EXPECT_TRUE(bits_eq(a.p99_latency, b.p99_latency));
  EXPECT_TRUE(bits_eq(a.avg_hops, b.avg_hops));
  EXPECT_TRUE(bits_eq(a.min_hops_ratio, b.min_hops_ratio));
  EXPECT_TRUE(bits_eq(a.throughput, b.throughput));
  EXPECT_TRUE(bits_eq(a.misrouted_fraction, b.misrouted_fraction));
  EXPECT_TRUE(bits_eq(a.avg_latency_misrouted, b.avg_latency_misrouted));
  EXPECT_TRUE(bits_eq(a.avg_latency_direct, b.avg_latency_direct));
  EXPECT_TRUE(bits_eq(a.avg_decision_steps, b.avg_decision_steps));
  EXPECT_TRUE(bits_eq(a.availability, b.availability));
  EXPECT_EQ(a.deadlock_suspected, b.deadlock_suspected);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packets_retransmitted, b.packets_retransmitted);
  EXPECT_EQ(a.packets_unrecoverable, b.packets_unrecoverable);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.recovery_events, b.recovery_events);
  EXPECT_EQ(a.recovery_cycles, b.recovery_cycles);
  EXPECT_EQ(a.worms_killed, b.worms_killed);
  EXPECT_EQ(a.reconfig_exchanges, b.reconfig_exchanges);
  ASSERT_EQ(a.blocked_chain.size(), b.blocked_chain.size());
  for (std::size_t i = 0; i < a.blocked_chain.size(); ++i) {
    EXPECT_EQ(a.blocked_chain[i].node, b.blocked_chain[i].node);
    EXPECT_EQ(a.blocked_chain[i].port, b.blocked_chain[i].port);
    EXPECT_EQ(a.blocked_chain[i].vc, b.blocked_chain[i].vc);
    EXPECT_EQ(a.blocked_chain[i].packet, b.blocked_chain[i].packet);
  }
}

struct Scenario {
  std::string topo = "mesh";  // "mesh", "hypercube", "torus"
  std::string algo = "nafta";
  int static_link_faults = 0;
  int static_node_faults = 0;
  bool lifecycle = false;  // link kill @600 + node kill @800
  double rate = 0.05;
  Cycle warmup = 200;
  Cycle measure = 600;
  Cycle detection_delay = 0;
  std::uint64_t seed = 12;
};

struct RunOutput {
  SimResult result;
  std::vector<PacketId> lost_log;
  std::int64_t packets_created = 0;
  std::int64_t packets_delivered = 0;
  Cycle skipped = 0;
};

std::unique_ptr<Topology> scenario_topo(const Scenario& sc) {
  if (sc.topo == "mesh") return std::make_unique<Mesh>(std::vector<int>{6, 6});
  if (sc.topo == "mesh8") return std::make_unique<Mesh>(std::vector<int>{8, 8});
  if (sc.topo == "hypercube") return std::make_unique<Hypercube>(4);
  if (sc.topo == "torus")
    return std::make_unique<Torus>(std::vector<int>{6, 6});
  FR_UNREACHABLE("bad scenario topology");
}

RunOutput run_scenario(const Scenario& sc, int shards, int shard_threads) {
  auto topo = scenario_topo(sc);
  std::unique_ptr<RoutingAlgorithm> algo;
  if (sc.algo == "rule-ft-mesh") {
    algo = std::make_unique<RuleDrivenRouting>(
        rulebases::ft_mesh_route_source(6, 6), 3, rules::ExecMode::Vm,
        "route", 2);
  } else {
    algo = make_algorithm(sc.algo);
  }
  NetworkConfig ncfg;
  ncfg.shards = shards;
  ncfg.shard_threads = shard_threads;
  Network net(*topo, *algo, ncfg);

  if (sc.static_link_faults > 0 || sc.static_node_faults > 0) {
    Rng rng(static_cast<std::uint64_t>(sc.static_link_faults) * 131 +
            static_cast<std::uint64_t>(sc.static_node_faults) * 17 + 7);
    net.apply_faults([&](FaultSet& f) {
      inject_random_node_faults(f, sc.static_node_faults, rng);
      inject_random_link_faults(f, sc.static_link_faults, rng);
    });
  }

  UniformTraffic traffic(*topo);
  SimConfig cfg;
  cfg.injection_rate = sc.rate;
  cfg.packet_length = 4;
  cfg.warmup_cycles = sc.warmup;
  cfg.measure_cycles = sc.measure;
  cfg.seed = sc.seed;
  cfg.detection_delay = sc.detection_delay;
  Simulator sim(net, traffic, cfg);
  if (sc.lifecycle) {
    const Mesh* m = dynamic_cast<const Mesh*>(topo.get());
    FR_ASSERT(m != nullptr);
    FaultSchedule schedule;
    schedule.fail_link_at(600, m->at(3, 3), port_of(Compass::East));
    schedule.fail_node_at(800, m->at(4, 2));
    sim.set_fault_schedule(schedule);
  }

  RunOutput out;
  out.result = sim.run();
  out.lost_log = net.lost_log();
  out.packets_created = net.packets_created();
  out.packets_delivered = net.packets_delivered();
  out.skipped = sim.idle_cycles_skipped();
  return out;
}

/// Single-shard run vs runs at 2/4/8 shards, forced onto a multi-thread
/// pool (thread count must never matter — and under TSan this is the
/// data-race certification for the parallel phase).
void expect_shard_identity(const Scenario& sc) {
  const RunOutput base = run_scenario(sc, 1, 0);
  for (const int shards : {2, 4, 8}) {
    const RunOutput got = run_scenario(sc, shards, 4);
    const std::string label =
        sc.algo + "/" + sc.topo + " shards=" + std::to_string(shards);
    expect_identical(base.result, got.result, label);
    SCOPED_TRACE(label);
    EXPECT_EQ(base.lost_log, got.lost_log);
    EXPECT_EQ(base.packets_created, got.packets_created);
    EXPECT_EQ(base.packets_delivered, got.packets_delivered);
  }
}

// --------------------------------------------- fault-free, all algorithms

struct AlgoCase {
  std::string algo;
  std::string topo;
};

class ShardIdentity : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(ShardIdentity, FaultFreeBitIdentical) {
  Scenario sc;
  sc.algo = GetParam().algo;
  sc.topo = GetParam().topo;
  expect_shard_identity(sc);
}

std::vector<AlgoCase> all_algorithms() {
  std::vector<AlgoCase> cases;
  for (const std::string& name : algorithm_names()) {
    std::string topo = "mesh";
    if (name == "ecube" || name == "route_c" || name == "route_c_nft")
      topo = "hypercube";
    if (name == "dor-torus") topo = "torus";
    cases.push_back({name, topo});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardIdentity,
                         ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           std::string l = info.param.algo;
                           for (char& c : l)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return l;
                         });

// ------------------------------------------------------- faulted scenarios

TEST(ShardIdentityRuleDriven, FtMeshBitIdentical) {
  // The rule interpreter's per-decision state lives in per-node slots, so
  // the sharded step may evaluate rule programs concurrently on different
  // nodes. This pins both the determinism and (under TSan) the race
  // freedom of that path.
  Scenario sc;
  sc.algo = "rule-ft-mesh";
  sc.static_link_faults = 4;
  expect_shard_identity(sc);
}

TEST(ShardIdentityFaulted, StaticFaultsBitIdentical) {
  Scenario sc;
  sc.algo = "nafta";
  sc.static_link_faults = 6;
  sc.static_node_faults = 1;
  expect_shard_identity(sc);
}

TEST(ShardIdentityFaulted, LiveLifecycleBitIdentical) {
  Scenario sc;
  sc.topo = "mesh8";
  sc.algo = "nafta";
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.detection_delay = 40;
  sc.seed = 42;
  expect_shard_identity(sc);
}

// ------------------------------------------------- flit-movement counter

// total_flit_movements() sums per-shard running totals; it must equal the
// sum of every router's forwarded + ejected + dropped flits (the walk it
// replaced) on every cycle, at every shard count.
TEST(FlitMovements, ShardTotalsMatchRouterStatsEveryCycle) {
  Mesh m = Mesh::two_d(8, 8);
  std::vector<std::int64_t> finals;
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(shards);
    auto algo = make_algorithm("nafta");
    NetworkConfig ncfg;
    ncfg.shards = shards;
    ncfg.shard_threads = 1;
    Network net(m, *algo, ncfg);
    Rng rng(9);
    for (Cycle now = 0; now < 400; ++now) {
      if (now < 300) {
        for (int k = 0; k < 4; ++k) {
          const auto src = static_cast<NodeId>(rng.next_below(64));
          auto dst = static_cast<NodeId>(rng.next_below(64));
          if (dst == src) dst = (dst + 1) % 64;
          net.send(src, dst, 4, now);
        }
      }
      net.step(now);
      const RouterStats agg = net.aggregate_stats();
      ASSERT_EQ(net.total_flit_movements(), agg.flits_forwarded +
                                                agg.flits_ejected +
                                                agg.flits_dropped)
          << "cycle " << now;
    }
    EXPECT_GT(net.total_flit_movements(), 0);
    finals.push_back(net.total_flit_movements());
  }
  for (const std::int64_t f : finals) EXPECT_EQ(f, finals.front());
}

// ------------------------------------------------------ inert-cycle skipping

/// `want` holds the exact values of a low-load run captured with every
/// cycle stepped, at the revision where skipping was still optional.
/// Skipping inert cycles must reproduce them bit for bit.
void expect_pinned(const RunOutput& got, const SimResult& want,
                   std::int64_t packets_created, const std::string& label) {
  expect_identical(got.result, want, label);
  SCOPED_TRACE(label);
  EXPECT_TRUE(got.lost_log.empty());
  EXPECT_EQ(got.packets_created, packets_created);
  EXPECT_EQ(got.packets_delivered, packets_created);
  EXPECT_GT(got.skipped, 0);
}

TEST(EventSkip, LowLoadLifecyclePinnedAndSkips) {
  // Low offered load on a live-lifecycle run with a long detection window:
  // plenty of inert cycles, including Detecting-state jumps.
  Scenario sc;
  sc.topo = "mesh8";
  sc.algo = "nafta";
  sc.lifecycle = true;
  sc.rate = 0.002;
  sc.warmup = 300;
  sc.measure = 1500;
  sc.detection_delay = 500;
  sc.seed = 7;
  SimResult pin;
  pin.injected_packets = 44;
  pin.delivered_packets = 44;
  pin.avg_latency = 0x1.f3a2e8ba2e8bap+4;
  pin.p50_latency = 0x1.6p+4;
  pin.p99_latency = 0x1.a9b3333333334p+7;
  pin.avg_hops = 0x1.92e8ba2e8ba2cp+2;
  pin.min_hops_ratio = 0x1.57a91d7a91d7bp+0;
  pin.throughput = 0x1.e839d21ed6d59p-10;
  pin.misrouted_fraction = 0x1.745d1745d1746p-5;
  pin.avg_latency_misrouted = 0x1.a9p+7;
  pin.avg_latency_direct = 0x1.6986186186187p+4;
  pin.avg_decision_steps = 0x1.c6c4ec4ec4ec5p+0;
  pin.cycles_run = 1828;
  pin.fault_events = 2;
  pin.recovery_events = 1;
  pin.recovery_cycles = 500;
  pin.availability = 0x1.5555555555556p-1;
  pin.reconfig_exchanges = 2920;
  expect_pinned(run_scenario(sc, 1, 0), pin, 57, "lifecycle shards=1");
  expect_pinned(run_scenario(sc, 2, 2), pin, 57, "lifecycle shards=2");
}

TEST(EventSkip, FaultFreeLowLoadPinnedAndSkips) {
  // Fault-free near-zero load: Normal-state single-cycle skips only (the
  // injection RNG draws every cycle, so the clock never jumps).
  Scenario sc;
  sc.algo = "nafta";
  sc.rate = 0.001;
  sc.seed = 3;
  SimResult pin;
  pin.injected_packets = 7;
  pin.delivered_packets = 7;
  pin.avg_latency = 0x1.db6db6db6db6ep+3;
  pin.p50_latency = 0x1.cp+3;
  pin.p99_latency = 0x1.9a3d70a3d70a3p+4;
  pin.avg_hops = 0x1.a492492492492p+1;
  pin.min_hops_ratio = 0x1p+0;
  pin.throughput = 0x1.53d0f8cb48704p-10;
  pin.avg_latency_direct = 0x1.db6db6db6db6ep+3;
  pin.avg_decision_steps = 0x1p+0;
  pin.cycles_run = 800;
  expect_pinned(run_scenario(sc, 1, 0), pin, 8, "fault-free shards=1");
}

}  // namespace
}  // namespace flexrouter
