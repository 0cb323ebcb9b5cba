#include "routing/dynamic_escape.hpp"

namespace flexrouter {

void DynamicEscape::attach(const Topology& topo, const FaultSet& faults) {
  mesh_ = dynamic_cast<const Mesh*>(&topo);
  FR_REQUIRE_MSG(mesh_ != nullptr && mesh_->dims() == 2,
                 "dynamic-escape requires a 2-D mesh");
  faults_ = &faults;
  reconfigure();
}

int DynamicEscape::reconfigure() {
  epoch_ = faults_->epoch();
  use_reconf_escape_ = false;
  if (reconfigurable_ && !faults_->fault_free()) {
    // The paper's consequence: a single fault forces reconfiguration of the
    // static layer. We rebuild it as up*/down* over the healthy graph.
    use_reconf_escape_ = true;
    return reconf_escape_.rebuild(*faults_);
  }
  return 0;
}

void DynamicEscape::add_static_escape(const RouteContext& ctx,
                                      RouteDecision& d) const {
  if (use_reconf_escape_) {
    const bool on_escape = ctx.in_vc == kStaticVc && ctx.in_port >= 0 &&
                           ctx.in_port < mesh_->degree();
    const UpDownTable::Phase phase =
        on_escape ? reconf_escape_.arrival_phase(ctx.node, ctx.in_port)
                  : UpDownTable::Phase::Up;
    if (!reconf_escape_.reachable(ctx.node, ctx.dest)) return;
    for (const PortId p : reconf_escape_.next_hops(ctx.node, ctx.dest, phase))
      d.candidates.push_back({p, kStaticVc, -1});
    return;
  }
  // The vulnerable static layer: XY dimension order computed as if the
  // network were fault-free. A faulty link on the XY path silently removes
  // the packet's only guaranteed escape.
  const int dx = mesh_->x_of(ctx.dest) - mesh_->x_of(ctx.node);
  const int dy = mesh_->y_of(ctx.dest) - mesh_->y_of(ctx.node);
  PortId p;
  if (dx != 0) p = Mesh::port_toward(0, dx < 0);
  else p = Mesh::port_toward(1, dy < 0);
  if (faults_->link_usable(ctx.node, p))
    d.candidates.push_back({p, kStaticVc, -1});
}

RouteDecision DynamicEscape::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(mesh_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(epoch_ == faults_->epoch(), "stale dynamic-escape state");
  RouteDecision d;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({mesh_->degree(), 0, 0});
    return d;
  }
  // Escape stickiness (see Nafta::route).
  if (ctx.in_vc == kStaticVc && ctx.in_port >= 0 &&
      ctx.in_port < mesh_->degree()) {
    add_static_escape(ctx, d);
    return d;
  }
  // Dynamic layer: fully adaptive minimal over usable links, any order.
  const int dx = mesh_->x_of(ctx.dest) - mesh_->x_of(ctx.node);
  const int dy = mesh_->y_of(ctx.dest) - mesh_->y_of(ctx.node);
  auto try_add = [&](PortId p) {
    if (faults_->link_usable(ctx.node, p))
      d.candidates.push_back({p, kDynamicVc, 0});
  };
  if (dx > 0) try_add(port_of(Compass::East));
  if (dx < 0) try_add(port_of(Compass::West));
  if (dy > 0) try_add(port_of(Compass::North));
  if (dy < 0) try_add(port_of(Compass::South));
  add_static_escape(ctx, d);
  return d;
}

}  // namespace flexrouter
