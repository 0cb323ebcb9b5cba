// Up*/down* routing on a BFS spanning tree of the healthy subgraph.
//
// Links are oriented by BFS visit order: a move u -> v is "up" when
// order(v) < order(u). Legal paths are zero or more up moves followed by
// zero or more down moves; the down->up turn is forbidden, which makes the
// channel dependency graph acyclic (up chains strictly decrease the order,
// down chains strictly increase it, and no edge leads from a down channel
// to an up channel).
//
// This serves two roles: a standalone deadlock-free fault-tolerant
// algorithm (the spanning-tree flavoured baseline done right — it uses ALL
// healthy links, not just tree edges), and the escape layer of the
// NAFTA/ROUTE_C reconstructions (Duato methodology; see DESIGN.md). It is
// recomputed during the quiescent diagnosis phase that fault assumption iv
// grants.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

class UpDownTable {
 public:
  enum class Phase { Up, Down };

  /// Rebuild tree, orientation and next-hop tables for the current fault
  /// state. Returns the number of node-to-node information exchanges the
  /// distributed construction would need (tree building is a BFS wave:
  /// one exchange per usable directed link, plus one wave round per level).
  /// Every query answers for the fault state seen by the last rebuild.
  /// Contract: 2 * num_nodes fits below the 16-bit distance sentinel
  /// (at most 32767 nodes); checked before anything is allocated.
  int rebuild(const FaultSet& faults);

  bool ready() const { return !order_.empty(); }
  std::uint64_t built_for_epoch() const { return epoch_; }

  /// All ports at `node` that advance toward `dest` along a shortest legal
  /// path from the given phase. Empty iff dest is unreachable.
  StaticVector<PortId, 16> next_hops(NodeId node, NodeId dest,
                                    Phase phase) const;

  /// The lowest-numbered port of next_hops(node, dest, phase): the
  /// deterministic escape hop. Contract: that set is non-empty.
  PortId first_hop(NodeId node, NodeId dest, Phase phase) const;

  /// Phase of a packet that reached `node` through its port `in_port`: the
  /// move prev -> node is up iff order(node) < order(prev).
  Phase arrival_phase(NodeId node, PortId in_port) const;

  /// Phase after traversing `port` from `from`.
  Phase phase_after(NodeId from, PortId port) const;

  /// True if the move from `from` via `port` is an up move.
  bool is_up_move(NodeId from, PortId port) const;

  int order(NodeId n) const { return order_[static_cast<std::size_t>(n)]; }
  bool reachable(NodeId from, NodeId to) const;

  /// Legal-path distance (may exceed the topological distance). -1 when
  /// unreachable.
  int distance(NodeId from, NodeId to, Phase phase) const;

 private:
  /// Shortest legal path lengths from one node to one destination,
  /// starting in Up phase (`up`) or Down phase (`down`, only down moves
  /// remain). kNoPath when unreachable.
  struct Dist {
    std::uint16_t up;
    std::uint16_t down;
  };
  static constexpr std::uint16_t kNoPath = 0xFFFF;

  /// One network port as seen at rebuild: the topology neighbour, whether
  /// a message can traverse the link, and whether the move is up. `to` is
  /// kept for unusable links too: arrival_phase answers for a packet that
  /// crossed a link before it died.
  struct Port {
    NodeId to;
    bool usable;
    bool up;
  };

  /// Row of `dest`: entry `node` holds the distances from node to dest.
  const Dist* row(NodeId dest) const {
    const auto n = static_cast<std::size_t>(num_nodes_);
    return dist_.data() + static_cast<std::size_t>(dest) * n;
  }
  const Dist& at(NodeId node, NodeId dest) const {
    return row(dest)[static_cast<std::size_t>(node)];
  }
  const Port* ports(NodeId node) const {
    const auto deg = static_cast<std::size_t>(degree_);
    return ports_.data() + static_cast<std::size_t>(node) * deg;
  }
  /// Topology neighbour via a connected port (contract-checked).
  NodeId neighbor(NodeId node, PortId port) const;
  void require_node(NodeId n) const {
    FR_REQUIRE(ready());
    FR_REQUIRE(n >= 0 && n < num_nodes_);
  }

  std::uint64_t epoch_ = 0;
  int num_nodes_ = 0;
  PortId degree_ = 0;
  std::vector<int> order_;
  /// ports_[node * degree + port], filled at rebuild.
  std::vector<Port> ports_;
  /// Destination-major distance table: dist_[dest * N + node]. The BFS for
  /// one destination writes one contiguous row, and next_hops reads a node
  /// and its neighbours from that same row.
  std::vector<Dist> dist_;
  /// Rebuild scratch, kept so a rebuild reuses it. Predecessors of v are
  /// pred_[pred_begin_[v] .. pred_begin_[v + 1]): first those that reach v
  /// by an up move, then (from pred_mid_[v]) those that reach it by a down
  /// move. queue_ is the BFS FIFO of (node << 1 | phase) states.
  std::vector<NodeId> pred_;
  std::vector<std::uint32_t> pred_begin_;
  std::vector<std::uint32_t> pred_mid_;
  std::vector<std::uint32_t> queue_;
};

/// Standalone up*/down* routing algorithm (single virtual channel).
class UpDownRouting final : public RoutingAlgorithm {
 public:
  explicit UpDownRouting(int num_vcs = 1) : vcs_(num_vcs) {}

  std::string name() const override { return "updown"; }
  int num_vcs() const override { return vcs_; }

  void attach(const Topology& topo, const FaultSet& faults) override {
    topo_ = &topo;
    faults_ = &faults;
    reconfigure();
  }

  int reconfigure() override { return table_.rebuild(*faults_); }

  RouteDecision route(const RouteContext& ctx) const override;

  const UpDownTable& table() const { return table_; }

 private:
  const Topology* topo_ = nullptr;
  const FaultSet* faults_ = nullptr;
  UpDownTable table_;
  int vcs_;
};

}  // namespace flexrouter
