#include "routing/nafta.hpp"

namespace flexrouter {

void Nafta::attach(const Topology& topo, const FaultSet& faults) {
  mesh_ = dynamic_cast<const Mesh*>(&topo);
  FR_REQUIRE_MSG(mesh_ != nullptr && mesh_->dims() == 2,
                 "NAFTA requires a 2-D mesh");
  faults_ = &faults;
  max_path_len_ = 2 * (mesh_->radix(0) + mesh_->radix(1)) + 8;
  reconfigure();
}

int Nafta::reconfigure() {
  int exchanges = escape_.rebuild(*faults_);
  exchanges += compute_dead_ends();
  exchanges += compute_deactivation();
  epoch_ = faults_->epoch();
  return exchanges;
}

int Nafta::compute_dead_ends() {
  const int w = mesh_->radix(0);
  const int h = mesh_->radix(1);
  const auto n = static_cast<std::size_t>(mesh_->num_nodes());
  for (auto& v : dead_end_) v.assign(n, 0);

  // A column/row "has a fault" if it contains a faulty node or an endpoint
  // of a faulty link.
  std::vector<char> col_fault(static_cast<std::size_t>(w), 0);
  std::vector<char> row_fault(static_cast<std::size_t>(h), 0);
  for (const NodeId bad : faults_->faulty_nodes()) {
    col_fault[static_cast<std::size_t>(mesh_->x_of(bad))] = 1;
    row_fault[static_cast<std::size_t>(mesh_->y_of(bad))] = 1;
  }
  for (const LinkRef& l : faults_->faulty_links()) {
    const NodeId a = l.node;
    const NodeId b = mesh_->neighbor(a, l.port);
    for (const NodeId e : {a, b}) {
      col_fault[static_cast<std::size_t>(mesh_->x_of(e))] = 1;
      row_fault[static_cast<std::size_t>(mesh_->y_of(e))] = 1;
    }
  }

  // Suffix/prefix conjunctions, computed as the wave propagation would be:
  // dead-end-east at column c <=> every column > c has a fault.
  std::vector<char> dee(static_cast<std::size_t>(w)), dew(dee), den, des;
  den.resize(static_cast<std::size_t>(h));
  des.resize(static_cast<std::size_t>(h));
  dee[static_cast<std::size_t>(w - 1)] = 1;  // vacuous: nothing further east
  for (int c = w - 2; c >= 0; --c)
    dee[static_cast<std::size_t>(c)] =
        col_fault[static_cast<std::size_t>(c + 1)] &&
        dee[static_cast<std::size_t>(c + 1)];
  dew[0] = 1;
  for (int c = 1; c < w; ++c)
    dew[static_cast<std::size_t>(c)] =
        col_fault[static_cast<std::size_t>(c - 1)] &&
        dew[static_cast<std::size_t>(c - 1)];
  den[static_cast<std::size_t>(h - 1)] = 1;
  for (int r = h - 2; r >= 0; --r)
    den[static_cast<std::size_t>(r)] =
        row_fault[static_cast<std::size_t>(r + 1)] &&
        den[static_cast<std::size_t>(r + 1)];
  des[0] = 1;
  for (int r = 1; r < h; ++r)
    des[static_cast<std::size_t>(r)] =
        row_fault[static_cast<std::size_t>(r - 1)] &&
        des[static_cast<std::size_t>(r - 1)];

  for (NodeId node = 0; node < mesh_->num_nodes(); ++node) {
    const auto x = static_cast<std::size_t>(mesh_->x_of(node));
    const auto y = static_cast<std::size_t>(mesh_->y_of(node));
    dead_end_[static_cast<std::size_t>(port_of(Compass::East))]
             [static_cast<std::size_t>(node)] = dee[x];
    dead_end_[static_cast<std::size_t>(port_of(Compass::West))]
             [static_cast<std::size_t>(node)] = dew[x];
    dead_end_[static_cast<std::size_t>(port_of(Compass::North))]
             [static_cast<std::size_t>(node)] = den[y];
    dead_end_[static_cast<std::size_t>(port_of(Compass::South))]
             [static_cast<std::size_t>(node)] = des[y];
  }
  // Wave cost: the flags ripple one column/row per round; each boundary
  // crossing is one exchange per node in that column/row.
  return 2 * (w - 1) * h + 2 * (h - 1) * w;
}

int Nafta::compute_deactivation() {
  const auto n = static_cast<std::size_t>(mesh_->num_nodes());
  deactivated_.assign(n, 0);
  // A connected port is "blocked" if its link is unusable or it leads into a
  // faulty/deactivated node. A healthy node with two blocked ports forming a
  // corner (E+N, E+S, W+N, W+S) lies in a concave pocket and is deactivated;
  // iterating completes fault regions to convex (rectangular) shapes.
  int exchanges = 0;
  bool changed = true;
  settle_rounds_ = 0;
  while (changed) {
    changed = false;
    ++settle_rounds_;
    for (NodeId node = 0; node < mesh_->num_nodes(); ++node) {
      if (deactivated_[static_cast<std::size_t>(node)] ||
          faults_->node_faulty(node))
        continue;
      auto blocked = [&](Compass c) {
        const PortId p = port_of(c);
        const NodeId m = mesh_->neighbor(node, p);
        if (m == kInvalidNode) return false;  // borders are not faults
        if (!faults_->link_usable(node, p)) return true;
        return deactivated_[static_cast<std::size_t>(m)] != 0;
      };
      const bool e = blocked(Compass::East), w = blocked(Compass::West);
      const bool s = blocked(Compass::South), no = blocked(Compass::North);
      if ((e && no) || (e && s) || (w && no) || (w && s)) {
        deactivated_[static_cast<std::size_t>(node)] = 1;
        changed = true;
      }
    }
    exchanges += faults_->fault_free() ? 0 : mesh_->num_nodes();
    if (faults_->fault_free()) break;
  }
  return exchanges;
}

int Nafta::num_deactivated() const {
  int c = 0;
  for (const char d : deactivated_) c += d != 0;
  return c;
}

bool Nafta::transit_ok(NodeId neighbor, NodeId dest) const {
  if (neighbor == dest) return true;  // destinations are always approachable
  return !deactivated_[static_cast<std::size_t>(neighbor)];
}

void Nafta::add_escape(const RouteContext& ctx, RouteDecision& d) const {
  const bool arrived_on_escape =
      ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
      ctx.in_port < mesh_->degree();
  const UpDownTable::Phase phase =
      arrived_on_escape ? escape_.arrival_phase(ctx.node, ctx.in_port)
                        : UpDownTable::Phase::Up;
  if (!escape_.reachable(ctx.node, ctx.dest)) return;
  // Fault-aware adaptivity ranks the escape layer last; a fault-blind
  // measure treats it like any other output and may drag traffic onto the
  // slow tree paths.
  const int prio = fault_aware_ ? -3 : 0;
  for (const PortId p : escape_.next_hops(ctx.node, ctx.dest, phase))
    d.candidates.push_back({p, kEscapeVc, prio});
}

RouteDecision Nafta::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(mesh_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(epoch_ == faults_->epoch(),
                 "stale NAFTA state: reconfigure() missed an epoch");
  RouteDecision d;
  const bool fault_free = faults_->fault_free();
  // Every decision — including local delivery — consults the fault state
  // once faults are known.
  d.steps = fault_free ? 1 : 2;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({mesh_->degree(), 0, 0});
    return d;
  }

  // Once a message is on the escape layer it stays there: allowing it back
  // onto adaptive channels would let blocked adaptive traffic occupy escape
  // buffers (an indirect dependency that breaks the Duato argument).
  if (ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
      ctx.in_port < mesh_->degree()) {
    add_escape(ctx, d);
    return d;
  }

  // Minimal adaptive layer (identical to NARA), filtered by link health and
  // node deactivation.
  RouteDecision minimal;
  const bool from_network =
      ctx.in_port >= 0 && ctx.in_port < mesh_->degree();
  const VcId arrival_vc =
      from_network && (ctx.in_vc == 0 || ctx.in_vc == 1) ? ctx.in_vc
                                                         : kInvalidVc;
  Nara::minimal_candidates(*mesh_, ctx.node, ctx.dest, arrival_vc, minimal);
  for (const RouteCandidate& c : minimal.candidates) {
    if (!faults_->link_usable(ctx.node, c.port)) continue;
    if (!transit_ok(mesh_->neighbor(ctx.node, c.port), ctx.dest)) continue;
    d.candidates.push_back(c);
  }

  if (d.candidates.empty() && !fault_free) {
    // Misroute: third interpretation; mark the header (lifelock handling).
    d.steps = 3;
    d.mark_misrouted = true;
    const int dx = mesh_->x_of(ctx.dest) - mesh_->x_of(ctx.node);
    const int dy = mesh_->y_of(ctx.dest) - mesh_->y_of(ctx.node);
    const VcId net_vc = dy > 0 ? 1 : 0;
    for (PortId p = 0; p < mesh_->degree(); ++p) {
      if (p == ctx.in_port) continue;  // no immediate reversal
      if (!faults_->link_usable(ctx.node, p)) continue;
      const NodeId m = mesh_->neighbor(ctx.node, p);
      if (!transit_ok(m, ctx.dest)) continue;
      // Prefer detours that do not lead into a dead-end region relative to
      // the goal direction (fault-aware adaptivity only).
      int prio = -1;
      if (fault_aware_ &&
          ((dx > 0 && dead_end(m, Compass::East)) ||
           (dx < 0 && dead_end(m, Compass::West)) ||
           (dy > 0 && dead_end(m, Compass::North)) ||
           (dy < 0 && dead_end(m, Compass::South))))
        prio = -2;
      d.candidates.push_back({p, net_vc, prio});
    }
  }

  // The escape channel is only consulted in fault mode — fault-free NAFTA
  // behaves exactly like NARA (one interpretation, same candidates).
  if (!fault_free) add_escape(ctx, d);
  return d;
}

}  // namespace flexrouter
