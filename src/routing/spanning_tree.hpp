// The paper's Section 2 strawman: "compute a spanning tree for the network
// graph every time new faults occur; route messages by only using edges of
// the tree". Trivially fault-tolerant and deadlock-free, but it "uses only
// a small fraction of the network links" and almost never takes minimal
// paths — bench/spanning_tree_baseline quantifies exactly that claim.
#pragma once

#include <vector>

#include "routing/routing.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

class SpanningTreeRouting final : public RoutingAlgorithm {
 public:
  explicit SpanningTreeRouting(int num_vcs = 1) : vcs_(num_vcs) {}

  std::string name() const override { return "spanning-tree"; }
  int num_vcs() const override { return vcs_; }

  void attach(const Topology& topo, const FaultSet& faults) override {
    topo_ = &topo;
    faults_ = &faults;
    reconfigure();
  }

  int reconfigure() override;

  RouteDecision route(const RouteContext& ctx) const override;

  /// Fraction of the topology's healthy links the tree uses (the paper's
  /// wasted-links argument).
  double link_usage_fraction() const;

  const SpanningTree& tree() const { return tree_; }

 private:
  const Topology* topo_ = nullptr;
  const FaultSet* faults_ = nullptr;
  SpanningTree tree_;
  /// DFS pre-order interval of each tree node: the subtree of v holds
  /// exactly the nodes d with enter_[v] <= enter_[d] < leave_[v]. Tree
  /// paths are unique, so these intervals route in O(N) memory.
  std::vector<int> enter_;
  std::vector<int> leave_;
  /// Children of v: child_[child_begin_[v] .. child_begin_[v + 1]).
  std::vector<int> child_begin_;
  std::vector<NodeId> child_;
  /// down_port_[c] — the port on c's parent whose link leads to c.
  std::vector<PortId> down_port_;
  std::uint64_t epoch_ = 0;
  int vcs_;
};

}  // namespace flexrouter
