// Tests for the routing algorithms: candidate correctness, the paper's
// conditions 1-3, propagated fault states, decision-step accounting, and
// mechanical deadlock-freedom checks via channel dependency graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <string>

#include "routing/cdg.hpp"
#include "routing/dor.hpp"
#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "routing/route_c.hpp"
#include "routing/spanning_tree.hpp"
#include "routing/updown.hpp"
#include "sim/fault_injector.hpp"
#include "topology/graph_algo.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

namespace flexrouter {
namespace {

RouteContext ctx_of(NodeId node, NodeId dest, PortId in_port = kInvalidPort,
                    VcId in_vc = 0) {
  RouteContext ctx;
  ctx.node = node;
  ctx.dest = dest;
  ctx.src = node;
  ctx.in_port = in_port;
  ctx.in_vc = in_vc;
  return ctx;
}

std::set<PortId> candidate_ports(const RouteDecision& d) {
  std::set<PortId> out;
  for (const RouteCandidate& c : d.candidates) out.insert(c.port);
  return out;
}

// ---------------------------------------------------------------------- DOR
TEST(Dor, XYOrderOnMesh) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  DimensionOrderMesh dor;
  dor.attach(m, f);
  // x first:
  auto d = dor.route(ctx_of(m.at(0, 0), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{port_of(Compass::East)});
  // then y:
  d = dor.route(ctx_of(m.at(2, 0), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{port_of(Compass::North)});
  // arrived:
  d = dor.route(ctx_of(m.at(2, 3), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{m.degree()});
}

TEST(Dor, FullCdgAcyclic) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  DimensionOrderMesh dor;
  dor.attach(m, f);
  const CdgReport rep = check_full_cdg(m, f, dor);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

TEST(ECube, AscendingDimensionOrder) {
  Hypercube h(4);
  FaultSet f(h);
  ECubeHypercube ecube;
  ecube.attach(h, f);
  const auto d = ecube.route(ctx_of(0b0000, 0b1010));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{1});  // lowest differing bit
  const CdgReport rep = check_full_cdg(h, f, ecube);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// --------------------------------------------------------------------- NARA
TEST(NaraTest, FullyAdaptiveMinimal) {
  // Condition 1: every minimal direction is offered when fault-free.
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto d = nara.route(ctx_of(s, t));
      std::set<PortId> expect;
      if (m.x_of(t) > m.x_of(s)) expect.insert(port_of(Compass::East));
      if (m.x_of(t) < m.x_of(s)) expect.insert(port_of(Compass::West));
      if (m.y_of(t) > m.y_of(s)) expect.insert(port_of(Compass::North));
      if (m.y_of(t) < m.y_of(s)) expect.insert(port_of(Compass::South));
      EXPECT_EQ(candidate_ports(d), expect);
      EXPECT_EQ(d.steps, 1);
    }
  }
}

TEST(NaraTest, VirtualNetworkDiscipline) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  // Going north: all candidates on VC 1.
  auto d = nara.route(ctx_of(m.at(2, 2), m.at(4, 5)));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, 1);
  // Going south: VC 0.
  d = nara.route(ctx_of(m.at(2, 2), m.at(0, 0)));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, 0);
  // Pure x: both VCs offered.
  d = nara.route(ctx_of(m.at(2, 2), m.at(5, 2)));
  std::set<VcId> vcs;
  for (const auto& c : d.candidates) vcs.insert(c.vc);
  EXPECT_EQ(vcs, (std::set<VcId>{0, 1}));
}

TEST(NaraTest, FullCdgAcyclic) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  const CdgReport rep = check_full_cdg(m, f, nara);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// ----------------------------------------------------------------- up*/down*
TEST(UpDown, DeliversEverywhereUnderFaults) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Mesh m = Mesh::two_d(6, 6);
    FaultSet f(m);
    inject_random_link_faults(f, 10, rng);
    UpDownTable table;
    table.rebuild(f);
    // Walk from every source to every dest following the table; phase must
    // stay legal and the walk must terminate within the legal distance.
    for (NodeId s = 0; s < m.num_nodes(); ++s) {
      for (NodeId t = 0; t < m.num_nodes(); ++t) {
        if (s == t) continue;
        ASSERT_TRUE(table.reachable(s, t));
        NodeId at = s;
        auto phase = UpDownTable::Phase::Up;
        int steps = 0;
        while (at != t) {
          const auto hops = table.next_hops(at, t, phase);
          ASSERT_FALSE(hops.empty());
          const PortId p = hops[0];
          phase = table.phase_after(at, p);
          at = m.neighbor(at, p);
          ASSERT_LE(++steps, 4 * m.num_nodes());
        }
        EXPECT_EQ(steps, table.distance(s, t, UpDownTable::Phase::Up));
      }
    }
  }
}

TEST(UpDown, DownPhaseNeverGoesUp) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  for (NodeId n = 0; n < m.num_nodes(); ++n) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (n == t || !table.reachable(n, t)) continue;
      if (table.distance(n, t, UpDownTable::Phase::Down) < 0) continue;
      for (const PortId p : table.next_hops(n, t, UpDownTable::Phase::Down))
        EXPECT_FALSE(table.is_up_move(n, p));
    }
  }
}

TEST(UpDown, LegalDistanceAtLeastTopological) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      EXPECT_GE(table.distance(s, t, UpDownTable::Phase::Up),
                m.distance(s, t));
    }
}

TEST(UpDown, CdgAcyclicUnderRandomFaults) {
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    Mesh m = Mesh::two_d(5, 5);
    FaultSet f(m);
    UpDownRouting algo;
    algo.attach(m, f);
    inject_random_link_faults(f, 2 * trial, rng);
    algo.reconfigure();
    const CdgReport rep = check_full_cdg(m, f, algo);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
  }
}

// The dense per-destination BFS that UpDownTable replaced, kept as a test
// oracle: int distances, a std::deque FIFO, and topology and fault-set
// queries on every step. Only the rows of `dests` are computed, so a sample
// of a 4096-node fabric stays cheap.
class DenseUpDownOracle {
 public:
  static constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

  DenseUpDownOracle(const FaultSet& faults, const std::vector<NodeId>& dests)
      : topo_(faults.topology()),
        faults_(faults),
        n_(static_cast<std::size_t>(topo_.num_nodes())),
        row_of_(n_, -1) {
    const SpanningTree tree =
        bfs_spanning_tree(faults, choose_tree_root(faults));
    order_ = tree.order;
    up_.assign(dests.size() * n_, kUnreachable);
    down_.assign(dests.size() * n_, kUnreachable);
    for (std::size_t r = 0; r < dests.size(); ++r) {
      const NodeId dest = dests[r];
      row_of_[static_cast<std::size_t>(dest)] = static_cast<int>(r);
      if (faults.node_faulty(dest)) continue;
      auto up = [&](NodeId v) -> int& { return up_[r * n_ + idx(v)]; };
      auto down = [&](NodeId v) -> int& { return down_[r * n_ + idx(v)]; };
      std::deque<std::pair<NodeId, int>> queue;
      up(dest) = 0;
      down(dest) = 0;
      queue.emplace_back(dest, 0);
      queue.emplace_back(dest, 1);
      while (!queue.empty()) {
        const auto [v, phase] = queue.front();
        queue.pop_front();
        const int dv = phase == 0 ? up(v) : down(v);
        for (PortId pv = 0; pv < topo_.degree(); ++pv) {
          if (!faults.link_usable(v, pv)) continue;
          const NodeId u = topo_.neighbor(v, pv);
          if (order_[idx(v)] < order_[idx(u)]) {
            if (phase == 0 && up(u) > dv + 1) {
              up(u) = dv + 1;
              queue.emplace_back(u, 0);
            }
          } else if (phase == 1) {
            if (down(u) > dv + 1) {
              down(u) = dv + 1;
              queue.emplace_back(u, 1);
            }
            if (up(u) > dv + 1) {
              up(u) = dv + 1;
              queue.emplace_back(u, 0);
            }
          }
        }
      }
    }
    int usable_links = 0;
    for (NodeId u = 0; u < topo_.num_nodes(); ++u)
      for (PortId p = 0; p < topo_.degree(); ++p)
        if (faults.link_usable(u, p)) ++usable_links;
    int levels = 0;
    for (const int l : tree.level) levels = std::max(levels, l);
    exchanges_ = usable_links * std::max(1, levels);
  }

  int exchanges() const { return exchanges_; }

  int distance(NodeId from, NodeId to, UpDownTable::Phase phase) const {
    const int d = raw(from, to, phase == UpDownTable::Phase::Up);
    return d >= kUnreachable ? -1 : d;
  }

  bool is_up_move(NodeId from, PortId port) const {
    return order_[idx(topo_.neighbor(from, port))] < order_[idx(from)];
  }

  std::vector<PortId> next_hops(NodeId node, NodeId dest,
                                UpDownTable::Phase phase) const {
    std::vector<PortId> out;
    if (node == dest) return out;
    const bool in_up = phase == UpDownTable::Phase::Up;
    const int here = raw(node, dest, in_up);
    if (here >= kUnreachable) return out;
    for (PortId p = 0; p < topo_.degree(); ++p) {
      if (!faults_.link_usable(node, p)) continue;
      const bool up_move = is_up_move(node, p);
      if (!in_up && up_move) continue;
      if (raw(topo_.neighbor(node, p), dest, up_move) == here - 1)
        out.push_back(p);
    }
    return out;
  }

 private:
  static std::size_t idx(NodeId v) { return static_cast<std::size_t>(v); }
  int raw(NodeId node, NodeId dest, bool up) const {
    const int r = row_of_[idx(dest)];
    EXPECT_GE(r, 0) << "oracle row " << dest << " was not computed";
    const std::size_t i = static_cast<std::size_t>(r) * n_ + idx(node);
    return up ? up_[i] : down_[i];
  }

  const Topology& topo_;
  const FaultSet& faults_;
  std::size_t n_;
  std::vector<int> row_of_;
  std::vector<int> order_;
  std::vector<int> up_;
  std::vector<int> down_;
  int exchanges_ = 0;
};

std::vector<NodeId> all_nodes(const Topology& topo) {
  std::vector<NodeId> out(static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    out[static_cast<std::size_t>(n)] = n;
  return out;
}

std::vector<PortId> as_vector(const StaticVector<PortId, 16>& v) {
  return {v.begin(), v.end()};
}

// Every distance, reachability, next-hop set and first hop of `table` over
// all nodes, both phases and the oracle's destinations; plus the arrival
// phase through every connected port.
void expect_matches_oracle(const UpDownTable& table,
                           const DenseUpDownOracle& oracle,
                           const Topology& topo,
                           const std::vector<NodeId>& dests,
                           const std::string& label) {
  int mismatches = 0;
  for (const NodeId dest : dests)
    for (NodeId node = 0; node < topo.num_nodes(); ++node)
      for (const auto phase :
           {UpDownTable::Phase::Up, UpDownTable::Phase::Down}) {
        const int want = oracle.distance(node, dest, phase);
        const auto hops = oracle.next_hops(node, dest, phase);
        mismatches += table.distance(node, dest, phase) != want;
        mismatches += as_vector(table.next_hops(node, dest, phase)) != hops;
        if (phase == UpDownTable::Phase::Up)
          mismatches += table.reachable(node, dest) != (want >= 0);
        if (!hops.empty())
          mismatches += table.first_hop(node, dest, phase) != hops[0];
        ASSERT_EQ(mismatches, 0) << label << ": node " << node << " dest "
                                 << dest << " phase "
                                 << (phase == UpDownTable::Phase::Up ? "up"
                                                                     : "down");
      }
  for (NodeId node = 0; node < topo.num_nodes(); ++node)
    for (PortId p = 0; p < topo.degree(); ++p) {
      const NodeId prev = topo.neighbor(node, p);
      if (prev == kInvalidNode) continue;
      const bool arrived_up =
          oracle.is_up_move(prev, topo.reverse_port(node, p));
      ASSERT_EQ(table.arrival_phase(node, p) == UpDownTable::Phase::Up,
                arrived_up)
          << label << ": node " << node << " port " << p;
      ASSERT_EQ(table.is_up_move(node, p), oracle.is_up_move(node, p))
          << label << ": node " << node << " port " << p;
    }
}

void check_fabric_against_oracle(const Topology& topo,
                                 const std::string& name) {
  for (int trial = 0; trial < 4; ++trial) {
    FaultSet f(topo);
    Rng rng(1000 + static_cast<std::uint64_t>(trial));
    // Trial 0 is fault-free; the others carry 1..3 link faults and one
    // node fault.
    if (trial > 0) {
      inject_random_link_faults(f, trial, rng);
      inject_random_node_faults(f, 1, rng);
    }
    const std::string label = name + " trial " + std::to_string(trial);
    const auto dests = all_nodes(topo);
    const DenseUpDownOracle oracle(f, dests);
    UpDownTable table;
    EXPECT_EQ(table.rebuild(f), oracle.exchanges()) << label;
    expect_matches_oracle(table, oracle, topo, dests, label);
  }
}

TEST(UpDownOracle, Mesh8x8MatchesDenseBfs) {
  check_fabric_against_oracle(Mesh::two_d(8, 8), "8x8 mesh");
}

TEST(UpDownOracle, Torus8x8MatchesDenseBfs) {
  check_fabric_against_oracle(Torus::two_d(8, 8), "8x8 torus");
}

TEST(UpDownOracle, Hypercube6MatchesDenseBfs) {
  check_fabric_against_oracle(Hypercube(6), "6-cube");
}

TEST(UpDownOracle, PartitionedMeshMatchesDenseBfs) {
  // A healthy 2x2 corner cut off from the tree root: its nodes keep order
  // -1, so links inside it join equal orders, which the orientation must
  // treat exactly as the dense table did.
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  auto in_corner = [&](NodeId n) { return m.x_of(n) < 2 && m.y_of(n) < 2; };
  for (NodeId n = 0; n < m.num_nodes(); ++n)
    for (PortId p = 0; p < m.degree(); ++p) {
      const NodeId other = m.neighbor(n, p);
      if (in_corner(n) && other != kInvalidNode && !in_corner(other))
        f.fail_link(n, p);
    }
  const auto dests = all_nodes(m);
  const DenseUpDownOracle oracle(f, dests);
  UpDownTable table;
  EXPECT_EQ(table.rebuild(f), oracle.exchanges());
  expect_matches_oracle(table, oracle, m, dests, "partitioned 8x8 mesh");
}

TEST(UpDownOracle, Mesh64SampledRowsMatchDenseBfs) {
  Mesh m = Mesh::two_d(64, 64);
  FaultSet f(m);
  Rng rng(64);
  ASSERT_EQ(inject_random_link_faults(f, 1, rng), 1);
  std::vector<NodeId> dests;
  for (int i = 0; i < 256; ++i)
    dests.push_back(static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(m.num_nodes()))));
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  const DenseUpDownOracle oracle(f, dests);
  UpDownTable table;
  EXPECT_EQ(table.rebuild(f), oracle.exchanges());
  expect_matches_oracle(table, oracle, m, dests, "64x64 mesh, one dead link");
}

TEST(UpDown, RebuildAfterKillAndRepairEqualsFreshBuild) {
  Torus t = Torus::two_d(8, 8);
  FaultSet f(t);
  UpDownTable reused;
  reused.rebuild(f);
  f.fail_link(t.num_nodes() / 2, 0);
  f.fail_node(9);
  reused.rebuild(f);
  f.repair_link(t.num_nodes() / 2, 0);
  f.repair_node(9);
  const int exchanges = reused.rebuild(f);
  UpDownTable fresh;
  EXPECT_EQ(fresh.rebuild(f), exchanges);
  for (NodeId dest = 0; dest < t.num_nodes(); ++dest)
    for (NodeId node = 0; node < t.num_nodes(); ++node)
      for (const auto phase :
           {UpDownTable::Phase::Up, UpDownTable::Phase::Down}) {
        ASSERT_EQ(reused.distance(node, dest, phase),
                  fresh.distance(node, dest, phase));
        ASSERT_EQ(as_vector(reused.next_hops(node, dest, phase)),
                  as_vector(fresh.next_hops(node, dest, phase)));
      }
}

TEST(UpDown, OversizedFabricIsAContractError) {
  // 182 x 181 = 32942 nodes: 2 * N no longer fits below the 16-bit
  // distance sentinel, so the rebuild must refuse before allocating.
  Mesh m = Mesh::two_d(182, 181);
  FaultSet f(m);
  UpDownTable table;
  EXPECT_THROW(table.rebuild(f), ContractViolation);
  EXPECT_FALSE(table.ready());
}

// ------------------------------------------------------------ spanning tree
TEST(SpanningTreeAlgo, UsesOnlyTreeLinks) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  // Collect tree edges.
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (NodeId v = 0; v < m.num_nodes(); ++v) {
    const NodeId parent = st.tree().parent[static_cast<std::size_t>(v)];
    if (parent == kInvalidNode) continue;
    tree_edges.emplace(v, parent);
    tree_edges.emplace(parent, v);
  }
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto d = st.route(ctx_of(s, t));
      ASSERT_EQ(d.candidates.size(), 1u);
      const NodeId next = m.neighbor(s, d.candidates[0].port);
      EXPECT_TRUE(tree_edges.count({s, next}))
          << "non-tree link used " << s << "->" << next;
    }
}

TEST(SpanningTreeAlgo, WastesMostLinks) {
  // The paper's Section 2 claim, quantified: a spanning tree uses N-1 of the
  // 2*W*H-W-H mesh links.
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  EXPECT_NEAR(st.link_usage_fraction(), 63.0 / 112.0, 1e-9);
}

TEST(SpanningTreeAlgo, SurvivesFaultsViaRecompute) {
  Rng rng(5);
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  inject_random_link_faults(f, 6, rng);
  const int exchanges = st.reconfigure();
  EXPECT_GT(exchanges, 0);
  const CdgReport rep = check_full_cdg(m, f, st);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// The N x N next-hop table SpanningTreeRouting used to keep, rebuilt here
// as an oracle: a per-destination BFS over tree edges. Tree paths are
// unique, so route() must name exactly this port.
std::vector<PortId> dense_tree_next_hops(const Topology& topo,
                                         const SpanningTree& tree) {
  const NodeId n = topo.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  std::vector<PortId> next_hop(un * un, kInvalidPort);
  std::vector<std::vector<std::pair<NodeId, PortId>>> adj(un);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId parent = tree.parent[static_cast<std::size_t>(v)];
    if (parent == kInvalidNode) continue;
    const PortId up = tree.parent_port[static_cast<std::size_t>(v)];
    adj[static_cast<std::size_t>(v)].emplace_back(parent, up);
    adj[static_cast<std::size_t>(parent)].emplace_back(
        v, topo.reverse_port(v, up));
  }
  for (NodeId dest = 0; dest < n; ++dest) {
    if (!tree.reaches(dest)) continue;
    std::deque<NodeId> queue{dest};
    std::vector<char> seen(un, 0);
    seen[static_cast<std::size_t>(dest)] = 1;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const auto& [u, port_from_v] : adj[static_cast<std::size_t>(v)]) {
        if (seen[static_cast<std::size_t>(u)]) continue;
        seen[static_cast<std::size_t>(u)] = 1;
        next_hop[static_cast<std::size_t>(u) * un +
                 static_cast<std::size_t>(dest)] =
            topo.reverse_port(v, port_from_v);
        queue.push_back(u);
      }
    }
  }
  return next_hop;
}

TEST(SpanningTreeAlgo, MatchesDenseTableUnderFaults) {
  for (int trial = 0; trial < 8; ++trial) {
    Mesh m = Mesh::two_d(6, 6);
    FaultSet f(m);
    Rng rng(700 + static_cast<std::uint64_t>(trial));
    // Odd trials may disconnect the mesh, so unreachable pairs are covered.
    const bool keep_connected = trial % 2 == 0;
    inject_random_link_faults(f, 2 + trial, rng, keep_connected);
    inject_random_node_faults(f, trial / 2, rng, keep_connected);
    SpanningTreeRouting st(2);
    st.attach(m, f);
    const auto dense = dense_tree_next_hops(m, st.tree());
    for (NodeId s = 0; s < m.num_nodes(); ++s)
      for (NodeId t = 0; t < m.num_nodes(); ++t) {
        if (s == t) continue;
        const PortId want =
            dense[static_cast<std::size_t>(s) *
                      static_cast<std::size_t>(m.num_nodes()) +
                  static_cast<std::size_t>(t)];
        const auto d = st.route(ctx_of(s, t));
        if (want == kInvalidPort) {
          EXPECT_TRUE(d.candidates.empty()) << "trial " << trial;
          continue;
        }
        ASSERT_EQ(d.candidates.size(), 2u) << "trial " << trial;
        for (const RouteCandidate& c : d.candidates)
          EXPECT_EQ(c.port, want)
              << "trial " << trial << ": " << s << " -> " << t;
      }
  }
}

// -------------------------------------------------------------------- NAFTA
TEST(NaftaTest, FaultFreeEqualsNara) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  Nara nara;
  nafta.attach(m, f);
  nara.attach(m, f);
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto dn = nafta.route(ctx_of(s, t));
      const auto dr = nara.route(ctx_of(s, t));
      EXPECT_EQ(candidate_ports(dn), candidate_ports(dr));
      EXPECT_EQ(dn.steps, 1);  // one interpretation, fault-free
    }
}

TEST(NaftaTest, StepsClimbWithFaults) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // Fault far away: decisions still need the fault-state lookup (2 steps).
  f.fail_link(m.at(4, 4), port_of(Compass::East));
  nafta.reconfigure();
  const auto d = nafta.route(ctx_of(m.at(0, 0), m.at(2, 0)));
  EXPECT_EQ(d.steps, 2);
  // A message whose every minimal link is broken needs the third step
  // (dest due east, east link broken, north detour remains usable).
  f.fail_link(m.at(0, 0), port_of(Compass::East));
  nafta.reconfigure();
  const auto d2 = nafta.route(ctx_of(m.at(0, 0), m.at(2, 0)));
  EXPECT_EQ(d2.steps, 3);
  EXPECT_TRUE(d2.mark_misrouted);
  EXPECT_FALSE(d2.candidates.empty());
}

TEST(NaftaTest, DeadEndFlagsMatchDefinition) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // Faults in columns 5 and 7: columns east of x=4 are NOT all faulty
  // (column 6 is clean), east of x=6 they are not either... dead-end-east
  // requires EVERY column to the east to contain a fault.
  f.fail_node(m.at(5, 3));
  f.fail_node(m.at(7, 6));
  nafta.reconfigure();
  EXPECT_FALSE(nafta.dead_end(m.at(4, 0), Compass::East));  // col 6 clean
  EXPECT_FALSE(nafta.dead_end(m.at(5, 0), Compass::East));
  EXPECT_TRUE(nafta.dead_end(m.at(6, 0), Compass::East));   // only col 7 east
  // Now break column 6 too: everything east of 4 is dead.
  f.fail_link(m.at(6, 2), port_of(Compass::North));
  nafta.reconfigure();
  EXPECT_TRUE(nafta.dead_end(m.at(4, 0), Compass::East));
  EXPECT_FALSE(nafta.dead_end(m.at(4, 0), Compass::West));
}

TEST(NaftaTest, ConcaveRegionsAreCompleted) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // An L-shaped fault: block minus its north-east quadrant. The pocket
  // nodes (healthy, inside the L) must be deactivated.
  inject_concave_faults(f, m, 2, 2, 5, 5);
  nafta.reconfigure();
  EXPECT_GT(nafta.num_deactivated(), 0);
  // The inner corner of the pocket is deactivated...
  EXPECT_TRUE(nafta.deactivated(m.at(4, 4)));
  // ...but healthy nodes far away are not.
  EXPECT_FALSE(nafta.deactivated(m.at(0, 0)));
  EXPECT_FALSE(nafta.deactivated(m.at(7, 7)));
}

TEST(NaftaTest, EscapeCdgAcyclicUnderRandomFaults) {
  Rng rng(321);
  for (int trial = 0; trial < 8; ++trial) {
    Mesh m = Mesh::two_d(5, 5);
    FaultSet f(m);
    Nafta nafta;
    nafta.attach(m, f);
    inject_random_link_faults(f, 1 + trial, rng);
    nafta.reconfigure();
    const CdgReport rep = check_escape_cdg(m, f, nafta);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
    EXPECT_GT(rep.num_channels, 0);
  }
}

TEST(NaftaTest, Condition3ViaEscape) {
  // Every connected pair still gets at least one candidate with faults.
  Rng rng(77);
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  inject_random_link_faults(f, 12, rng);
  inject_random_node_faults(f, 2, rng);
  nafta.reconfigure();
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t || f.node_faulty(s) || f.node_faulty(t)) continue;
      if (!connected(f, s, t)) continue;
      const auto d = nafta.route(ctx_of(s, t));
      EXPECT_FALSE(d.candidates.empty())
          << "no candidate from " << s << " to " << t;
    }
  }
}

// ------------------------------------------------------------------ ROUTE_C
TEST(RouteCTest, StrippedIsMinimalKon90) {
  Hypercube h(4);
  FaultSet f(h);
  StrippedRouteC nft;
  nft.attach(h, f);
  // 0 -> 0b0110: ascending flips bits 1 and 2 on VC 0.
  auto d = nft.route(ctx_of(0b0000, 0b0110));
  EXPECT_EQ(candidate_ports(d), (std::set<PortId>{1, 2}));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kAscVc);
  // 0b0110 -> 0: only descending corrections remain, VC 1.
  d = nft.route(ctx_of(0b0110, 0b0000));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kDescVc);
  // Mixed: ascending first.
  d = nft.route(ctx_of(0b0100, 0b0011));
  EXPECT_EQ(candidate_ports(d), (std::set<PortId>{0, 1}));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kAscVc);
}

TEST(RouteCTest, StrippedCdgAcyclic) {
  Hypercube h(4);
  FaultSet f(h);
  StrippedRouteC nft;
  nft.attach(h, f);
  const CdgReport rep = check_full_cdg(h, f, nft);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

TEST(RouteCTest, FaultFreeMatchesStripped) {
  Hypercube h(5);
  FaultSet f(h);
  RouteC ft;
  StrippedRouteC nft;
  ft.attach(h, f);
  nft.attach(h, f);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(32));
    const auto t = static_cast<NodeId>(rng.next_below(32));
    if (s == t) continue;
    EXPECT_EQ(candidate_ports(ft.route(ctx_of(s, t))),
              candidate_ports(nft.route(ctx_of(s, t))));
  }
}

TEST(RouteCTest, AlwaysTwoInterpretations) {
  Hypercube h(4);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  EXPECT_EQ(ft.route(ctx_of(0, 5)).steps, 2);
  f.fail_node(3);
  ft.reconfigure();
  EXPECT_EQ(ft.route(ctx_of(0, 5)).steps, 2);
}

TEST(RouteCTest, UnsafeStatesFollowDefinition) {
  Hypercube h(3);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  // Node 3 (011) has neighbours 2 (010), 1 (001), 7 (111). Fail 2 and 1:
  // node 3 has two faulty neighbours -> strongly unsafe.
  f.fail_node(2);
  f.fail_node(1);
  ft.reconfigure();
  EXPECT_EQ(ft.state(3), NodeState::StronglyUnsafe);
  EXPECT_EQ(ft.state(2), NodeState::Faulty);
  // Node 0 (000) has neighbours 1 (faulty), 2 (faulty), 4 -> also >= 2 hard.
  EXPECT_EQ(ft.state(0), NodeState::StronglyUnsafe);
  // Node 7 (111): neighbours 3 (sunsafe), 5 (safe?), 6 -> check ordinarily
  // unsafe propagation settled monotonically.
  EXPECT_GE(ft.num_unsafe(), 2);
  EXPECT_FALSE(ft.totally_unsafe());
}

TEST(RouteCTest, TotallyUnsafeDetection) {
  Hypercube h(2);  // 4 nodes in a ring
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  f.fail_node(0);
  f.fail_node(3);  // opposite corners: both remaining nodes get 2 faulty nbrs
  ft.reconfigure();
  EXPECT_TRUE(ft.totally_unsafe());
}

TEST(RouteCTest, EscapeCdgAcyclicUnderRandomFaults) {
  Rng rng(444);
  for (int trial = 0; trial < 8; ++trial) {
    Hypercube h(4);
    FaultSet f(h);
    RouteC ft;
    ft.attach(h, f);
    inject_random_node_faults(f, trial % 4, rng);
    inject_random_link_faults(f, trial % 5, rng);
    ft.reconfigure();
    const CdgReport rep = check_escape_cdg(h, f, ft);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
  }
}

TEST(RouteCTest, Condition3WhileNotTotallyUnsafe) {
  Rng rng(888);
  Hypercube h(4);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  inject_random_node_faults(f, 2, rng);
  inject_random_link_faults(f, 3, rng);
  ft.reconfigure();
  ASSERT_FALSE(ft.totally_unsafe());
  for (NodeId s = 0; s < h.num_nodes(); ++s)
    for (NodeId t = 0; t < h.num_nodes(); ++t) {
      if (s == t || f.node_faulty(s) || f.node_faulty(t)) continue;
      if (!connected(f, s, t)) continue;
      EXPECT_FALSE(ft.route(ctx_of(s, t)).candidates.empty())
          << s << " -> " << t;
    }
}

// ------------------------------------------------------------------ factory
TEST(Factory, AllNamesConstruct) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_NE(make_algorithm(name), nullptr) << name;
  }
  EXPECT_THROW(make_algorithm("bogus"), ContractViolation);
}

}  // namespace
}  // namespace flexrouter
