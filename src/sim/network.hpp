// Network assembly: routers wired by links per the topology, packet
// book-keeping, injection queues, and the quiescent fault-reconfiguration
// protocol of fault assumption iv.
#pragma once

#include <memory>
#include <vector>

#include "common/ring_buffer.hpp"
#include "router/router.hpp"
#include "sim/shard_pool.hpp"
#include "topology/shard_plan.hpp"

namespace flexrouter {

struct NetworkConfig {
  RouterConfig router;
  int link_latency = 1;
  /// Reserve hint: packets the workload expects to create (pre-sizes the
  /// record table and the step scratch so injection-heavy benches don't pay
  /// reallocation churn).
  std::size_t expected_packets = 0;
  /// Reserve hint: peak simultaneously in-flight packets (pre-sizes the
  /// PacketStore slab). Zero lets the slab grow to the observed peak.
  std::size_t expected_in_flight = 0;
  /// Spatial shards stepped in parallel (plan_shards tiles the topology).
  /// Every count produces bit-identical SimResults — the cycle barrier
  /// exchanges cross-shard traffic in canonical link order.
  int shards = 1;
  /// Worker threads for the shard pool, including the stepping thread
  /// (0 = one per shard, capped at hardware_concurrency). Thread count
  /// never affects results, only wall clock.
  int shard_threads = 0;
};

struct PacketRecord {
  PacketId id = -1;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  int length = 0;
  Cycle created = -1;
  Cycle injected = -1;   // head flit entered the source router
  Cycle delivered = -1;  // tail flit ejected at the destination
  int hops = 0;          // path length from the delivered header
  bool misrouted = false;
  /// This attempt was truncated by a live fault (or killed by the
  /// watchdog) — its flits were dropped, it will never be delivered.
  bool lost = false;
  /// Retransmission chain: a resent attempt points at the original
  /// (root) packet; the root tracks how many retries it has consumed and
  /// which attempt is current. -1 on packets outside any chain.
  PacketId retry_of = -1;
  PacketId last_attempt = -1;
  int retries = 0;
  /// Store slot while the attempt is in flight (recycled afterwards).
  PacketSlot slot = kInvalidPacketSlot;

  bool done() const { return delivered >= 0; }
};

class Network {
 public:
  Network(const Topology& topo, RoutingAlgorithm& algo,
          const NetworkConfig& cfg = {});

  const Topology& topology() const { return *topo_; }
  FaultSet& faults() { return faults_; }
  const FaultSet& faults() const { return faults_; }
  RoutingAlgorithm& algorithm() { return *algo_; }
  /// Slab of in-flight packet headers; shared by every router of this
  /// network (replicas never share one).
  PacketStore& packet_store() { return store_; }
  const PacketStore& packet_store() const { return store_; }

  /// Queue a packet for injection at `src`. Contract: src and dest healthy,
  /// src != dest (fault assumption iii is the caller's responsibility, but
  /// violations are rejected here).
  PacketId send(NodeId src, NodeId dest, int length, Cycle now);

  /// Source-side abort-and-retransmit: queue a fresh copy of a lost
  /// attempt. The new packet joins the original's retry chain (retry_of /
  /// last_attempt / retries on the root record). The caller enforces the
  /// retry budget and endpoint health.
  PacketId resend(PacketId prior, Cycle now);

  /// Advance one cycle.
  void step(Cycle now);

  /// No queued, buffered or in-flight flits anywhere.
  bool idle() const;

  /// Cheap certificate that step() would be a provable no-op this cycle:
  /// every worklist is empty — no queued injections, no buffered flits, no
  /// busy links (a busy link keeps both endpoints on the active list).
  /// O(shards), not O(nodes).
  bool inert() const;
  /// Stand-in for step() on an inert cycle: clears the delivered-last-cycle
  /// list (its only observable per-cycle effect) and nothing else.
  void skip_cycle();

  /// Quiescent reconfiguration (fault assumption iv): the caller must have
  /// drained the network (idle()); `mutate` edits the fault set, then the
  /// routing algorithm recomputes its propagated state. Returns the number
  /// of neighbour exchanges the reconfiguration needed. Accepts any
  /// callable taking FaultSet& (kept a template so this header needs no
  /// <functional>).
  template <typename Mutate>
  int apply_faults(Mutate&& mutate) {
    begin_fault_mutation();
    mutate(faults_);
    return finish_fault_mutation();
  }

  // --- Live fault lifecycle (fault assumption v) ------------------------
  //
  // A live kill damages the data plane immediately — the link's in-flight
  // flits are destroyed, worms cut by the fault are poisoned and truncate
  // hop by hop — but the control-plane mutation (FaultSet + reconfigure)
  // is deferred until the network has quiesced, matching the paper's
  // diagnosis phase (assumption iv): stateful routing algorithms keep
  // serving survivors against their current epoch in between.

  /// Kill the undirected channel between `node` and its neighbour on
  /// `port`, while traffic is in flight. Idempotent.
  void kill_link_live(NodeId node, PortId port);
  /// Kill `node` while traffic is in flight: its buffered flits and
  /// injection queue are destroyed, all adjacent channels die, and every
  /// live packet sourced at or destined to it is orphaned. Idempotent.
  void kill_node_live(NodeId node);
  /// Watchdog victim kill: orphan one in-flight worm so its buffers, VCs
  /// and crossbar claims free up hop by hop.
  void kill_packet(PacketId id);

  /// Queue a repair of the undirected channel at (node, port): the link
  /// hardware rejoins service at the next quiescent commit — repairs ride
  /// the same detect -> drain -> reconfigure path as kills, because
  /// re-adopting a channel also invalidates propagated routing state. The
  /// data plane is untouched until the commit. Returns false (and queues
  /// nothing) when the link is not projected dead at commit time, so
  /// repairing a healthy channel never opens a recovery window.
  bool repair_link_live(NodeId node, PortId port);
  /// Queue a node repair (same commit semantics). The node's injection
  /// queue and router return to service at the commit. Returns false when
  /// the node is not projected faulty.
  bool repair_node_live(NodeId node);
  /// Fail-slow: throttle both directions of the channel at (node, port) to
  /// one flit per `factor` cycles, effective immediately — degradation
  /// destroys nothing and needs no drain, no reconfiguration, no epoch
  /// bump. factor == 1 restores full bandwidth.
  void degrade_link_live(NodeId node, PortId port, int factor);

  /// Damage recorded by live kills (or queued repairs) but not yet applied
  /// to the FaultSet.
  bool recovery_pending() const { return !pending_mutations_.empty(); }
  /// Node killed live (dead hardware), whether or not the FaultSet has
  /// caught up yet. Traffic sources must treat it as faulty immediately.
  bool node_live_killed(NodeId node) const {
    return live_killed_[static_cast<std::size_t>(node)] != 0;
  }
  /// Quiescent diagnosis step: fold the pending live damage into the
  /// FaultSet (bumping the fault epoch) and reconfigure the routing
  /// algorithm. Requires idle(). Returns the neighbour-exchange count.
  int commit_pending_faults();

  /// Append-only log of lost packets (truncated or killed attempts), in
  /// the order their last flit left the network. The simulator consumes
  /// it with a monotonic cursor; it is never cleared mid-run.
  const std::vector<PacketId>& lost_log() const { return lost_log_; }
  std::int64_t packets_lost() const {
    return static_cast<std::int64_t>(lost_log_.size());
  }

  /// Watchdog diagnostics: every input VC in the network still holding
  /// flits (node, port, vc, front packet), ascending by node.
  struct BlockedChannel {
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    PacketId packet = -1;
    PacketSlot slot = kInvalidPacketSlot;
    bool active = false;
    PortId out_port = kInvalidPort;
    VcId out_vc = kInvalidVc;
  };
  std::vector<BlockedChannel> blocked_channels() const;
  /// Follow the wait-for chain from the lowest blocked channel across
  /// routers (committed output -> downstream input VC) until it ends or
  /// closes a cycle; the classic deadlock dump. Deterministic.
  std::vector<BlockedChannel> blocked_chain() const;

  const PacketRecord& record(PacketId id) const;
  std::int64_t packets_created() const {
    return static_cast<std::int64_t>(records_.size());
  }
  std::int64_t packets_delivered() const { return delivered_count_; }
  std::size_t in_flight() const;

  /// Movement counter for the deadlock watchdog: total flits that crossed
  /// any crossbar this cycle history.
  std::int64_t total_flit_movements() const;

  Router& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }
  const Router& router(NodeId n) const {
    return *routers_[static_cast<std::size_t>(n)];
  }

  /// No flit buffered in this node's router and nothing queued for
  /// injection there. Sound commit point for a per-node program flip: a
  /// routing decision only ever happens for a flit buffered at the node,
  /// so a quiet node has no decision in flight — flits still on incoming
  /// links will be decided by whatever program is installed on arrival.
  bool node_quiet(NodeId n) const {
    return routers_[static_cast<std::size_t>(n)]->empty() &&
           injection_queues_[static_cast<std::size_t>(n)].empty();
  }

  /// Aggregate router statistics over all nodes.
  RouterStats aggregate_stats() const;

  /// Per-directed-link utilisation: flits carried per elapsed cycle, from
  /// the link information units (Figure 3). Sorted descending.
  struct LinkLoad {
    NodeId from = kInvalidNode;
    PortId port = kInvalidPort;
    double utilization = 0.0;
    /// Fail-slow factor from the link hardware (1 == full speed), so the
    /// load-measurement units expose degradation alongside utilisation.
    int degrade = 1;
  };
  std::vector<LinkLoad> link_utilization(Cycle elapsed) const;
  /// Summary over all links: (max, mean) utilisation.
  std::pair<double, double> utilization_summary(Cycle elapsed) const;

  /// Packets delivered during step(); cleared and refilled each cycle.
  const std::vector<PacketId>& delivered_last_cycle() const {
    return delivered_last_cycle_;
  }

 private:
  /// apply_faults helpers (out of line so the template stays minimal).
  void begin_fault_mutation();
  int finish_fault_mutation();

  /// One queued control-plane mutation. Kills and repairs are kept in one
  /// ordered list and replayed in arrival order at the commit, so
  /// interleaved kill/repair/kill sequences on one resource (a flapping
  /// link firing faster than the network can drain) resolve to the state
  /// of the *last* event, not whichever queue happened to replay second.
  struct PendingMutation {
    enum class Op { KillLink, KillNode, RepairLink, RepairNode };
    Op op;
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;  // link ops only
  };
  /// Projected control-plane state at the next commit: current FaultSet
  /// state with the pending mutation queue replayed on top. Used to decide
  /// whether a new kill/repair is a no-op.
  bool projected_link_marked(NodeId node, PortId port) const;
  bool projected_node_faulty(NodeId node) const;

  /// Index into links_ for the directed channel (u, p); kInvalidNode-free
  /// lookup built at construction. -1 when no link exists.
  std::ptrdiff_t link_index(NodeId u, PortId p) const {
    return link_lookup_[static_cast<std::size_t>(u) *
                            static_cast<std::size_t>(topo_->degree()) +
                        static_cast<std::size_t>(p)];
  }
  /// Poison a live slot (no-op when already poisoned / not live).
  void poison_slot(PacketSlot s);
  /// A flit left the network without being delivered: decrement the
  /// packet's flit budget and finalise the loss if it was the last.
  void account_dropped_flit(PacketSlot s);
  /// Last flit of a poisoned packet is gone: mark the record lost, append
  /// to the lost log, release the slot.
  void finalize_lost(PacketSlot s);

  /// Per-shard execution state: the shard's slice of the worklists plus
  /// deferred-event buffers the serial epilogue replays in canonical order.
  struct Shard {
    std::vector<NodeId> pending_list;
    bool pending_sorted = true;
    std::vector<NodeId> active_list;
    bool active_sorted = true;
    /// Non-idle in-shard links (both endpoints in this shard); each link
    /// appends itself when it turns busy (Link::watch_busy).
    std::vector<std::int32_t> busy_links;
    /// Deferred source-side purge drops: flits in pop order, grouped per
    /// node (pending_list order is ascending, so groups are too).
    std::vector<Flit> purge_drops;
    struct PurgeSpan {
      NodeId node;
      std::uint32_t begin, end;
    };
    std::vector<PurgeSpan> purges;
    /// Deferred router step events, grouped per router in step order.
    std::vector<Flit> ejects;
    std::vector<Flit> drops;
    struct RouterSpan {
      NodeId node;
      std::uint32_t eject_begin, eject_end, drop_begin, drop_end;
    };
    std::vector<RouterSpan> spans;
    /// Flit movements of the shard's routers (their set_movement_counter
    /// target), on its own cache line: shards step concurrently.
    alignas(64) std::int64_t flit_movements = 0;
  };

  /// Parallel phase of one shard: inject, step routers, maintain the
  /// shard's busy-link list. Touches only shard-local state, per-node /
  /// per-packet slots of shared tables, and boundary-link staging slots.
  void shard_phase(int s, Cycle now, bool purge);

  /// Put `u` on its shard's active worklist (idempotent via the flag);
  /// callers inside shard_phase only ever activate nodes of their own shard.
  void activate(NodeId u) {
    if (!router_active_[static_cast<std::size_t>(u)]) {
      router_active_[static_cast<std::size_t>(u)] = 1;
      Shard& sh = shards_[static_cast<std::size_t>(plan_.shard(u))];
      sh.active_list.push_back(u);
      sh.active_sorted = false;
    }
  }

  /// Queue `u` on its shard's injection worklist (idempotent via the flag).
  void mark_pending(NodeId u) {
    if (!injection_pending_[static_cast<std::size_t>(u)]) {
      injection_pending_[static_cast<std::size_t>(u)] = 1;
      Shard& sh = shards_[static_cast<std::size_t>(plan_.shard(u))];
      sh.pending_list.push_back(u);
      sh.pending_sorted = false;
    }
  }

  const Topology* topo_;
  RoutingAlgorithm* algo_;
  NetworkConfig cfg_;
  FaultSet faults_;
  PacketStore store_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Link> links_;
  std::vector<LinkRef> link_sources_;  // parallel to links_
  std::vector<NodeId> link_dests_;     // parallel to links_
  std::vector<PacketRecord> records_;
  /// Flits waiting to enter each source router (one pooled ring per node).
  std::vector<RingBuffer<Flit>> injection_queues_;
  /// Nodes with a non-empty injection queue. Invariant:
  /// injection_pending_[u] != 0 iff u appears exactly once on its shard's
  /// pending_list; each list is sorted ascending unless its pending_sorted
  /// is false (new sources appended since the last step).
  std::vector<char> injection_pending_;
  /// Routers that may do work this cycle: holding flits, injecting, or on
  /// either end of a busy link. Everything else is provably a no-op step.
  /// Same invariant as above: router_active_[u] != 0 iff u is on its
  /// shard's active_list exactly once.
  std::vector<char> router_active_;
  std::int64_t delivered_count_ = 0;
  std::vector<PacketId> delivered_last_cycle_;
  /// Live-fault state: directed-link lookup, damage pending control-plane
  /// commit, loss accounting, and kill-time scratch.
  std::vector<std::ptrdiff_t> link_lookup_;  // (node, port) -> links_ index
  std::vector<PendingMutation> pending_mutations_;
  std::vector<char> live_killed_;  // per node
  std::vector<PacketId> lost_log_;
  std::int64_t network_dropped_flits_ = 0;  // destroyed in links/queues/nodes
  std::vector<Flit> destroyed_scratch_;
  std::vector<PacketSlot> orphan_scratch_;

  /// Sharded execution state (at shards == 1, one shard holds every node).
  ShardPlan plan_;
  std::vector<Shard> shards_;
  /// Directed links whose endpoints live in different shards, ascending by
  /// link id — the canonical cross-shard exchange order.
  std::vector<std::int32_t> boundary_links_;
  /// Per-shard merge cursors for the epilogue (scratch, reused).
  std::vector<std::size_t> merge_pos_;
  std::unique_ptr<ShardPool> pool_;
};

}  // namespace flexrouter
