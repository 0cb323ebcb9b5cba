#include "routing/planar_adaptive.hpp"

namespace flexrouter {

void PlanarAdaptive::attach(const Topology& topo, const FaultSet& faults) {
  mesh_ = dynamic_cast<const Mesh*>(&topo);
  FR_REQUIRE_MSG(mesh_ != nullptr && mesh_->dims() >= 2,
                 "planar-adaptive requires a mesh with >= 2 dimensions");
  faults_ = &faults;
  int per = 0;
  for (int d = 0; d < mesh_->dims(); ++d) per += mesh_->radix(d);
  max_path_len_ = 2 * per + 8;
  reconfigure();
}

int PlanarAdaptive::reconfigure() {
  epoch_ = faults_->epoch();
  if (!fault_tolerant_) return 0;
  return escape_.rebuild(*faults_);
}

int PlanarAdaptive::active_plane(NodeId node, NodeId dest) const {
  for (int d = 0; d < mesh_->dims(); ++d)
    if (mesh_->coord(node, d) != mesh_->coord(dest, d))
      return std::min(d, mesh_->dims() - 2);
  return -1;
}

void PlanarAdaptive::add_escape(const RouteContext& ctx,
                                RouteDecision& d) const {
  const bool on_escape = ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
                         ctx.in_port < mesh_->degree();
  const UpDownTable::Phase phase =
      on_escape ? escape_.arrival_phase(ctx.node, ctx.in_port)
                : UpDownTable::Phase::Up;
  if (!escape_.reachable(ctx.node, ctx.dest)) return;
  for (const PortId p : escape_.next_hops(ctx.node, ctx.dest, phase))
    d.candidates.push_back({p, kEscapeVc, -3});
}

RouteDecision PlanarAdaptive::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(mesh_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(epoch_ == faults_->epoch(), "stale planar-adaptive state");
  RouteDecision d;
  const bool fault_free = faults_->fault_free();
  if (fault_tolerant_) d.steps = fault_free ? 1 : 2;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({mesh_->degree(), 0, 0});
    return d;
  }
  if (fault_tolerant_ && ctx.in_vc == kEscapeVc && ctx.in_port >= 0 &&
      ctx.in_port < mesh_->degree()) {
    add_escape(ctx, d);  // escape stickiness, see Nafta::route
    return d;
  }

  const int plane = active_plane(ctx.node, ctx.dest);
  FR_ASSERT(plane >= 0);
  const int dx_dim = plane;       // "x" role of this plane
  const int dy_dim = plane + 1;   // "y" role
  const int dx = mesh_->coord(ctx.dest, dx_dim) - mesh_->coord(ctx.node, dx_dim);
  const int dy = mesh_->coord(ctx.dest, dy_dim) - mesh_->coord(ctx.node, dy_dim);

  auto usable = [&](PortId p) {
    return !fault_tolerant_ || fault_free || faults_->link_usable(ctx.node, p);
  };
  auto add = [&](PortId p, VcId v) {
    if (usable(p)) d.candidates.push_back({p, v, 0});
  };

  // Double-network discipline within the plane: network 1 serves dy >= 0
  // traffic (y moves on VC 1, x moves on VC 3), network 0 serves dy <= 0
  // (VC 0 / VC 2). dy == 0 packets stay on the network their arrival VC
  // encodes — switching networks mid-plane would bridge the two otherwise
  // acyclic halves (the same cycle the NARA CDG test caught). Packets
  // injected here or entering from an earlier plane may pick either.
  const PortId x_pos = Mesh::port_toward(dx_dim, false);
  const PortId x_neg = Mesh::port_toward(dx_dim, true);
  const PortId y_pos = Mesh::port_toward(dy_dim, false);
  const PortId y_neg = Mesh::port_toward(dy_dim, true);
  if (dy > 0) {
    add(y_pos, 1);
    if (dx > 0) add(x_pos, 3);
    if (dx < 0) add(x_neg, 3);
  } else if (dy < 0) {
    add(y_neg, 0);
    if (dx > 0) add(x_pos, 2);
    if (dx < 0) add(x_neg, 2);
  } else {
    const PortId p = dx > 0 ? x_pos : x_neg;
    const bool in_plane_arrival =
        ctx.in_port >= 0 && ctx.in_port < mesh_->degree() &&
        (Mesh::dim_of_port(ctx.in_port) == dx_dim ||
         Mesh::dim_of_port(ctx.in_port) == dy_dim) &&
        ctx.in_vc >= 0 && ctx.in_vc <= 3;
    if (in_plane_arrival) {
      add(p, ctx.in_vc <= 1 ? ctx.in_vc + 2 : ctx.in_vc);
    } else {
      add(p, 2);
      add(p, 3);
    }
  }

  if (fault_tolerant_ && !fault_free) {
    if (d.candidates.empty()) {
      // In-plane misroute: any usable direction within the active plane,
      // marked, one more interpretation (the NAFTA pattern).
      d.steps = 3;
      d.mark_misrouted = true;
      const VcId y_vc = dy > 0 ? 1 : 0;
      const VcId x_vc = dy > 0 ? 3 : 2;
      for (const PortId p : {x_pos, x_neg, y_pos, y_neg}) {
        if (p == ctx.in_port) continue;
        if (!faults_->link_usable(ctx.node, p)) continue;
        const bool is_y = Mesh::dim_of_port(p) == dy_dim;
        d.candidates.push_back({p, is_y ? y_vc : x_vc, -1});
      }
    }
    add_escape(ctx, d);
  }
  return d;
}

}  // namespace flexrouter
