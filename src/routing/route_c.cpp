#include "routing/route_c.hpp"

namespace flexrouter {

const char* to_string(NodeState s) {
  switch (s) {
    case NodeState::Safe: return "safe";
    case NodeState::OrdinarilyUnsafe: return "ounsafe";
    case NodeState::StronglyUnsafe: return "sunsafe";
    case NodeState::Faulty: return "faulty";
  }
  return "?";
}

void RouteC::attach(const Topology& topo, const FaultSet& faults) {
  cube_ = dynamic_cast<const Hypercube*>(&topo);
  FR_REQUIRE_MSG(cube_ != nullptr, "ROUTE_C requires a hypercube");
  faults_ = &faults;
  max_path_len_ = 4 * cube_->dimension() + 8;
  reconfigure();
}

int RouteC::reconfigure() {
  int exchanges = escape_.rebuild(*faults_);
  const auto n = static_cast<std::size_t>(cube_->num_nodes());
  states_.assign(n, NodeState::Safe);
  for (NodeId v = 0; v < cube_->num_nodes(); ++v)
    if (faults_->node_faulty(v))
      states_[static_cast<std::size_t>(v)] = NodeState::Faulty;

  // Monotone fixed point over the state lattice safe < ounsafe < sunsafe:
  // each round every node exchanges states with its neighbours (the wave
  // propagation of the update_state rule base, Figure 4).
  settle_rounds_ = 0;
  bool changed = !faults_->fault_free();
  while (changed) {
    changed = false;
    ++settle_rounds_;
    for (NodeId v = 0; v < cube_->num_nodes(); ++v) {
      auto& st = states_[static_cast<std::size_t>(v)];
      if (st == NodeState::Faulty) continue;
      int hard = 0;    // faulty neighbours or faulty incident links
      int unsafe = 0;  // neighbours that are faulty or strongly unsafe
      for (PortId p = 0; p < cube_->degree(); ++p) {
        const NodeId m = cube_->neighbor(v, p);
        const NodeState ms = states_[static_cast<std::size_t>(m)];
        const bool link_bad = faults_->link_marked_faulty(v, p);
        if (ms == NodeState::Faulty || link_bad) ++hard;
        // Ordinarily-unsafe neighbours do NOT count here — unbounded
        // cascades would declare nearly fault-free networks "totally
        // unsafe". Only hard faults and strongly unsafe nodes propagate.
        if (ms == NodeState::Faulty || ms == NodeState::StronglyUnsafe ||
            link_bad)
          ++unsafe;
      }
      NodeState next = NodeState::Safe;
      if (hard >= 2) next = NodeState::StronglyUnsafe;
      else if (unsafe >= 2) next = NodeState::OrdinarilyUnsafe;
      if (next > st) {  // monotone: states only climb the lattice
        st = next;
        changed = true;
      }
      exchanges += faults_->fault_free() ? 0 : cube_->degree();
    }
  }
  epoch_ = faults_->epoch();
  return exchanges;
}

bool RouteC::totally_unsafe() const {
  for (NodeId v = 0; v < cube_->num_nodes(); ++v)
    if (states_[static_cast<std::size_t>(v)] == NodeState::Safe) return false;
  return true;
}

int RouteC::num_unsafe() const {
  int c = 0;
  for (const NodeState s : states_)
    c += s == NodeState::OrdinarilyUnsafe || s == NodeState::StronglyUnsafe;
  return c;
}

bool RouteC::transit_ok(NodeId neighbor, NodeId dest) const {
  if (neighbor == dest) return true;
  return states_[static_cast<std::size_t>(neighbor)] == NodeState::Safe;
}

void RouteC::add_escape(const RouteContext& ctx, RouteDecision& d) const {
  const bool on_escape = ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
                         ctx.in_port < cube_->degree();
  const UpDownTable::Phase phase =
      on_escape ? escape_.arrival_phase(ctx.node, ctx.in_port)
                : UpDownTable::Phase::Up;
  if (!escape_.reachable(ctx.node, ctx.dest)) return;
  for (const PortId p : escape_.next_hops(ctx.node, ctx.dest, phase))
    d.candidates.push_back({p, kEscapeVc, -3});
}

RouteDecision RouteC::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(cube_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(epoch_ == faults_->epoch(),
                 "stale ROUTE_C state: reconfigure() missed an epoch");
  RouteDecision d;
  d.steps = 2;  // decide_dir + decide_vc, always (Section 5)
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({cube_->degree(), 0, 0});
    return d;
  }

  // Escape stickiness (see Nafta::route for the rationale).
  if (ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
      ctx.in_port < cube_->degree()) {
    add_escape(ctx, d);
    return d;
  }

  const bool fault_free = faults_->fault_free();
  const auto diff = Hypercube::differing_dims(ctx.node, ctx.dest);
  FR_ASSERT(diff != 0);

  // Kon90 order: ascending phase corrects 0->1 dimensions on VC 0; once
  // none remain, descending corrections run on VC 1.
  std::uint32_t asc = 0, desc = 0;
  for (int b = 0; b < cube_->dimension(); ++b) {
    if (!(diff & (1u << b))) continue;
    if (ctx.node & (NodeId{1} << b)) desc |= 1u << b;
    else asc |= 1u << b;
  }
  const std::uint32_t phase_dims = asc != 0 ? asc : desc;
  const VcId phase_vc = asc != 0 ? kAscVc : kDescVc;
  for (int b = 0; b < cube_->dimension(); ++b) {
    if (!(phase_dims & (1u << b))) continue;
    const PortId p = static_cast<PortId>(b);
    if (!fault_free) {
      if (!faults_->link_usable(ctx.node, p)) continue;
      if (!transit_ok(cube_->neighbor(ctx.node, p), ctx.dest)) continue;
    }
    d.candidates.push_back({p, phase_vc, 0});
  }
  // Minimal moves of the other phase, on the misroute channels: the hops-so-
  // far extension channels give extra adaptivity under faults.
  if (!fault_free && d.candidates.empty() && asc != 0 && desc != 0) {
    for (int b = 0; b < cube_->dimension(); ++b) {
      if (!(desc & (1u << b))) continue;
      const PortId p = static_cast<PortId>(b);
      if (!faults_->link_usable(ctx.node, p)) continue;
      if (!transit_ok(cube_->neighbor(ctx.node, p), ctx.dest)) continue;
      d.candidates.push_back({p, kMisrouteVc0, -1});
    }
  }

  if (!fault_free && d.candidates.empty()) {
    // Misroute: flip a non-minimal dimension (no immediate reversal),
    // preferring safe neighbours; alternate the two extension channels by
    // hop parity (the hops-so-far scheme).
    d.mark_misrouted = true;
    const VcId mis_vc = (ctx.path_len % 2 == 0) ? kMisrouteVc0 : kMisrouteVc1;
    for (PortId p = 0; p < cube_->degree(); ++p) {
      if (p == ctx.in_port) continue;
      if (!faults_->link_usable(ctx.node, p)) continue;
      const NodeId m = cube_->neighbor(ctx.node, p);
      const int prio = transit_ok(m, ctx.dest) ? -1 : -2;
      if (states_[static_cast<std::size_t>(m)] == NodeState::StronglyUnsafe &&
          m != ctx.dest)
        continue;
      d.candidates.push_back({p, mis_vc, prio});
    }
  }

  if (!fault_free) add_escape(ctx, d);
  return d;
}

void StrippedRouteC::attach(const Topology& topo, const FaultSet& faults) {
  cube_ = dynamic_cast<const Hypercube*>(&topo);
  FR_REQUIRE_MSG(cube_ != nullptr, "route_c_nft requires a hypercube");
  (void)faults;
}

void StrippedRouteC::minimal_candidates(const Hypercube& cube, NodeId node,
                                        NodeId dest, RouteDecision& d) {
  const auto diff = Hypercube::differing_dims(node, dest);
  std::uint32_t asc = 0, desc = 0;
  for (int b = 0; b < cube.dimension(); ++b) {
    if (!(diff & (1u << b))) continue;
    if (node & (NodeId{1} << b)) desc |= 1u << b;
    else asc |= 1u << b;
  }
  const std::uint32_t dims = asc != 0 ? asc : desc;
  const VcId vc = asc != 0 ? RouteC::kAscVc : RouteC::kDescVc;
  for (int b = 0; b < cube.dimension(); ++b)
    if (dims & (1u << b)) d.candidates.push_back({static_cast<PortId>(b), vc, 0});
}

RouteDecision StrippedRouteC::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(cube_ != nullptr, "route() before attach()");
  RouteDecision d;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({cube_->degree(), 0, 0});
    return d;
  }
  minimal_candidates(*cube_, ctx.node, ctx.dest, d);
  FR_ENSURE(!d.candidates.empty());
  return d;
}

}  // namespace flexrouter
