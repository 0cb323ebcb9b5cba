#include "routing/spanning_tree.hpp"

#include <utility>

namespace flexrouter {

int SpanningTreeRouting::reconfigure() {
  const NodeId n = topo_->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  tree_ = bfs_spanning_tree(*faults_, choose_tree_root(*faults_));
  epoch_ = faults_->epoch();
  auto at = [](auto& v, NodeId i) -> auto& {
    return v[static_cast<std::size_t>(i)];
  };

  // Children of every tree node in CSR form, and the parent's port toward
  // each child.
  child_begin_.assign(un + 1, 0);
  down_port_.assign(un, kInvalidPort);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId parent = at(tree_.parent, v);
    if (parent == kInvalidNode) continue;
    ++at(child_begin_, parent + 1);
    at(down_port_, v) = topo_->reverse_port(v, at(tree_.parent_port, v));
  }
  for (std::size_t i = 0; i < un; ++i) child_begin_[i + 1] += child_begin_[i];
  child_.assign(static_cast<std::size_t>(child_begin_[un]), kInvalidNode);
  std::vector<int> fill(child_begin_.begin(), child_begin_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId parent = at(tree_.parent, v);
    if (parent != kInvalidNode) at(child_, at(fill, parent)++) = v;
  }

  // Iterative DFS from the root: enter_ numbers nodes in pre-order, leave_
  // is one past the last number inside the subtree. Unreachable nodes keep
  // -1.
  enter_.assign(un, -1);
  leave_.assign(un, -1);
  int clock = 0;
  at(enter_, tree_.root) = clock++;
  std::vector<std::pair<NodeId, int>> stack;
  stack.emplace_back(tree_.root, at(child_begin_, tree_.root));
  while (!stack.empty()) {
    const NodeId v = stack.back().first;
    const int next = stack.back().second;
    if (next < at(child_begin_, v + 1)) {
      ++stack.back().second;
      const NodeId c = at(child_, next);
      at(enter_, c) = clock++;
      stack.emplace_back(c, at(child_begin_, c));
    } else {
      at(leave_, v) = clock;
      stack.pop_back();
    }
  }

  // Reconfiguration cost: the full tree rebuild touches every usable link.
  int usable = 0;
  for (NodeId u = 0; u < n; ++u)
    for (PortId p = 0; p < topo_->degree(); ++p)
      if (faults_->link_usable(u, p)) ++usable;
  return usable;
}

RouteDecision SpanningTreeRouting::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(!enter_.empty(), "route() before attach()");
  FR_REQUIRE_MSG(epoch_ == faults_->epoch(), "stale spanning tree");
  RouteDecision d;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({topo_->degree(), 0, 0});
    return d;
  }
  const auto node = static_cast<std::size_t>(ctx.node);
  const int target = enter_[static_cast<std::size_t>(ctx.dest)];
  if (enter_[node] < 0 || target < 0) return d;  // unreachable destination
  PortId p = tree_.parent_port[node];
  if (target > enter_[node] && target < leave_[node]) {
    // dest lies below node: descend into the child whose interval holds
    // it. Children's intervals are consecutive in child_ order.
    const NodeId* c = child_.data() + child_begin_[node];
    while (target >= leave_[static_cast<std::size_t>(*c)]) ++c;
    p = down_port_[static_cast<std::size_t>(*c)];
  }
  for (VcId v = 0; v < vcs_; ++v) d.candidates.push_back({p, v, 0});
  return d;
}

double SpanningTreeRouting::link_usage_fraction() const {
  FR_REQUIRE(!enter_.empty());
  int healthy_links = 0;
  for (const LinkRef& l : topo_->undirected_links())
    if (faults_->link_usable(l.node, l.port)) ++healthy_links;
  int tree_links = 0;
  for (NodeId v = 0; v < topo_->num_nodes(); ++v)
    if (tree_.parent[static_cast<std::size_t>(v)] != kInvalidNode) ++tree_links;
  return healthy_links == 0
             ? 0.0
             : static_cast<double>(tree_links) / healthy_links;
}

}  // namespace flexrouter
