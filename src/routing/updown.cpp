#include "routing/updown.hpp"

#include <algorithm>

namespace flexrouter {

int UpDownTable::rebuild(const FaultSet& faults) {
  const Topology& topo = faults.topology();
  const NodeId n_nodes = topo.num_nodes();
  // BFS distances over the (node, phase) automaton stay below 2 * N, and
  // 0xFFFF marks "no path": refuse a fabric whose distances could wrap.
  FR_REQUIRE_MSG(2 * static_cast<std::int64_t>(n_nodes) < kNoPath,
                 "up*/down* distances are 16-bit: at most 32767 nodes");
  epoch_ = faults.epoch();
  num_nodes_ = n_nodes;
  degree_ = topo.degree();
  const auto n = static_cast<std::size_t>(n_nodes);
  const auto deg = static_cast<std::size_t>(degree_);

  const SpanningTree tree = bfs_spanning_tree(faults, choose_tree_root(faults));
  order_ = tree.order;

  // The port table is the only place the rebuild consults the topology and
  // the fault set; lookups afterwards read it instead.
  ports_.resize(n * deg);
  for (NodeId u = 0; u < n_nodes; ++u) {
    Port* const pu = ports_.data() + static_cast<std::size_t>(u) * deg;
    for (PortId p = 0; p < degree_; ++p) {
      const NodeId v = topo.neighbor(u, p);
      pu[p] = {v, faults.link_usable(u, p),
               v != kInvalidNode && order(v) < order(u)};
    }
  }

  // Flat predecessor lists: u reaches v by the move u -> v, which is up iff
  // order(v) < order(u). Up-move predecessors first, then down-move ones.
  pred_.clear();
  pred_.reserve(n * deg);
  pred_begin_.resize(n + 1);
  pred_mid_.resize(n);
  for (NodeId v = 0; v < n_nodes; ++v) {
    const Port* pv = ports(v);
    pred_begin_[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(pred_.size());
    for (PortId p = 0; p < degree_; ++p)
      if (pv[p].usable && order(v) < order(pv[p].to)) pred_.push_back(pv[p].to);
    pred_mid_[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(pred_.size());
    for (PortId p = 0; p < degree_; ++p)
      if (pv[p].usable && !(order(v) < order(pv[p].to)))
        pred_.push_back(pv[p].to);
  }
  pred_begin_[n] = static_cast<std::uint32_t>(pred_.size());

  // Backward BFS per destination over the phase automaton. A router in
  // state (node, Up) may take an up move (stay Up) or a down move (enter
  // Down); in state (node, Down) only down moves remain. We therefore walk
  // predecessors: who can reach `dest` next? Each state is queued at most
  // once, so the FIFO holds at most 2 * N entries of (node << 1 | phase),
  // phase 0 = Up, 1 = Down.
  dist_.resize(n * n);
  queue_.resize(2 * n);
  std::uint32_t* const queue = queue_.data();
  for (NodeId dest = 0; dest < n_nodes; ++dest) {
    Dist* const d = dist_.data() + static_cast<std::size_t>(dest) * n;
    std::fill(d, d + n, Dist{kNoPath, kNoPath});
    if (faults.node_faulty(dest)) continue;
    d[dest] = {0, 0};
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    queue[tail++] = static_cast<std::uint32_t>(dest) << 1;
    queue[tail++] = static_cast<std::uint32_t>(dest) << 1 | 1u;
    while (head < tail) {
      const std::uint32_t state = queue[head++];
      const std::uint32_t v = state >> 1;
      if ((state & 1u) == 0) {
        // An up move keeps the walker in Up phase, so it only explains
        // state (u, Up) reaching (v, Up).
        const auto next = static_cast<std::uint16_t>(d[v].up + 1);
        for (std::uint32_t i = pred_begin_[v]; i < pred_mid_[v]; ++i) {
          const auto u = static_cast<std::uint32_t>(pred_[i]);
          if (d[u].up != kNoPath) continue;
          d[u].up = next;
          queue[tail++] = u << 1;
        }
      } else {
        // A down move: u may have been in Up (entering Down) or Down. At
        // v == dest both seeds exist; using the Down seed is correct
        // because the walk ends there.
        const auto next = static_cast<std::uint16_t>(d[v].down + 1);
        for (std::uint32_t i = pred_mid_[v]; i < pred_begin_[v + 1]; ++i) {
          const auto u = static_cast<std::uint32_t>(pred_[i]);
          if (d[u].down == kNoPath) {
            d[u].down = next;
            queue[tail++] = u << 1 | 1u;
          }
          if (d[u].up == kNoPath) {
            d[u].up = next;
            queue[tail++] = u << 1;
          }
        }
      }
    }
  }

  // Distributed construction cost: one BFS wave round per tree level, one
  // exchange per usable directed link per wave.
  const int usable_links = static_cast<int>(pred_.size());
  const int levels = *std::max_element(tree.level.begin(), tree.level.end());
  return usable_links * std::max(1, levels);
}

StaticVector<PortId, 16> UpDownTable::next_hops(NodeId node, NodeId dest,
                                                Phase phase) const {
  require_node(node);
  require_node(dest);
  StaticVector<PortId, 16> out;
  if (node == dest) return out;
  const Dist* const d = row(dest);
  const bool down_only = phase == Phase::Down;
  const int here = down_only ? d[node].down : d[node].up;
  if (here == kNoPath) return out;
  const Port* const port = ports(node);
  for (PortId p = 0; p < degree_; ++p) {
    if (!port[p].usable || (down_only && port[p].up)) continue;
    const Dist& there = d[port[p].to];
    const int next = port[p].up ? there.up : there.down;
    if (next == here - 1 && !out.full()) out.push_back(p);
  }
  FR_ENSURE_MSG(!out.empty(), "up*/down* table inconsistent: no next hop");
  return out;
}

PortId UpDownTable::first_hop(NodeId node, NodeId dest, Phase phase) const {
  const auto hops = next_hops(node, dest, phase);
  FR_REQUIRE_MSG(!hops.empty(), "no escape hop toward dest in this phase");
  return hops[0];
}

UpDownTable::Phase UpDownTable::arrival_phase(NodeId node,
                                              PortId in_port) const {
  const NodeId prev = neighbor(node, in_port);
  return order(node) < order(prev) ? Phase::Up : Phase::Down;
}

UpDownTable::Phase UpDownTable::phase_after(NodeId from, PortId port) const {
  return is_up_move(from, port) ? Phase::Up : Phase::Down;
}

bool UpDownTable::is_up_move(NodeId from, PortId port) const {
  neighbor(from, port);
  return ports(from)[port].up;
}

NodeId UpDownTable::neighbor(NodeId node, PortId port) const {
  require_node(node);
  FR_REQUIRE(port >= 0 && port < degree_);
  const NodeId to = ports(node)[port].to;
  FR_REQUIRE(to != kInvalidNode);
  return to;
}

bool UpDownTable::reachable(NodeId from, NodeId to) const {
  require_node(from);
  require_node(to);
  return at(from, to).up != kNoPath;
}

int UpDownTable::distance(NodeId from, NodeId to, Phase phase) const {
  require_node(from);
  require_node(to);
  const Dist& d = at(from, to);
  const std::uint16_t v = phase == Phase::Up ? d.up : d.down;
  return v == kNoPath ? -1 : v;
}

RouteDecision UpDownRouting::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(table_.ready(), "route() before attach()");
  FR_REQUIRE_MSG(table_.built_for_epoch() == faults_->epoch(),
                 "stale up*/down* table: reconfigure() missed an epoch");
  RouteDecision d;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({topo_->degree(), 0, 0});
    return d;
  }
  const bool from_network = ctx.in_port >= 0 && ctx.in_port < topo_->degree();
  // Phase tracking: a packet that arrived via a down move may only continue
  // down. Injected packets start in Up phase.
  const UpDownTable::Phase phase =
      from_network ? table_.arrival_phase(ctx.node, ctx.in_port)
                   : UpDownTable::Phase::Up;
  for (const PortId p : table_.next_hops(ctx.node, ctx.dest, phase)) {
    for (VcId v = 0; v < vcs_; ++v) d.candidates.push_back({p, v, 0});
  }
  return d;
}

}  // namespace flexrouter
