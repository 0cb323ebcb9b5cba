// Cycle-level wormhole router.
//
// Pipeline per head flit: RC (routing computation, possibly several rule
// interpretations — the paper's fault-tolerance time overhead appears here
// as extra stall cycles), VA (virtual-channel allocation), then per flit SA
// (switch allocation through the Connection Unit) and ST/LT (switch/link
// traversal). Credit-based flow control across links; tail flits release
// their output VC.
//
// The router never consults global network state: routing algorithms see
// only the header and their own propagated per-node state, exactly like the
// hardware control unit of Figure 3.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/packet_store.hpp"
#include "common/stats.hpp"
#include "router/arbiter.hpp"
#include "router/buffer.hpp"
#include "router/crossbar.hpp"
#include "router/link.hpp"
#include "router/message_interface.hpp"
#include "routing/routing.hpp"

namespace flexrouter {

/// Credit count reported for the local (ejection) port by
/// Router::output_credits. Ejection is modelled as an infinite sink, so the
/// value only has to dominate every real score input: it must exceed any
/// physical buffer depth and the VA load-score clamp (1023), and it must
/// never be decremented — credits on the local port are not tracked, there
/// is no OutputVc state behind them. Callers treat it as "always room";
/// forwarding asserts that the decrement path is never reached for the
/// local port.
inline constexpr int kEjectionSinkCredits = 1 << 20;

/// VC-allocation adaptivity criterion (Section 2.2: NAFTA exploits that
/// "it is known how long the remainder of a message is" and uses "the
/// amount of data that still has to pass a node" to rank outputs).
enum class AdaptivityCriterion {
  Credits,       // free downstream buffer space only
  AssignedData,  // least data already committed to the output (the paper's)
};

struct RouterConfig {
  int buffer_depth = 4;     // flits per VC FIFO
  int injection_depth = 16; // local input buffer depth
  /// Extra SA priority for misrouted messages ("it may be desirable to favor
  /// messages misrouted due to faults", Section 3).
  int misroute_priority_boost = 1;
  AdaptivityCriterion adaptivity = AdaptivityCriterion::Credits;
};

struct RouterStats {
  std::int64_t flits_forwarded = 0;   // network-to-network + injected
  std::int64_t flits_ejected = 0;
  std::int64_t flits_dropped = 0;     // truncated worm flits (live faults)
  std::int64_t packets_routed = 0;    // RC decisions taken
  std::int64_t decision_steps = 0;    // total rule interpretations
  std::int64_t rc_no_candidates = 0;  // RC retries (no usable output yet)
  std::int64_t va_retries = 0;
  std::int64_t header_updates = 0;    // message-interface modifications
};

class Router {
 public:
  /// `store` holds the headers of every in-flight packet in this router's
  /// network replica; the router only reads/updates headers through it.
  Router(NodeId id, const Topology& topo, const FaultSet& faults,
         const RoutingAlgorithm& algo, PacketStore& store,
         const RouterConfig& cfg);

  NodeId id() const { return id_; }
  int num_vcs() const { return vcs_; }
  PortId local_port() const { return degree_; }

  /// Wiring (done by the Network): links are owned elsewhere.
  void connect_output(PortId port, Link* link);
  void connect_input(PortId port, Link* link);

  /// Injection interface: free space in the local input buffer.
  int injection_space() const;
  void inject(const Flit& flit);

  /// One simulation cycle. Ejected flits are appended to `ejected`;
  /// truncated flits of poisoned worms are appended to `dropped` (the
  /// network accounts each against the packet's flit budget).
  void step(Cycle now, std::vector<Flit>& ejected, std::vector<Flit>& dropped);
  /// Convenience overload for unit tests driving a router directly: drops
  /// land in an internal scratch (there are none unless a test poisons).
  void step(Cycle now, std::vector<Flit>& ejected) {
    drop_scratch_.clear();
    step(now, ejected, drop_scratch_);
  }

  /// True if no flit is buffered anywhere in this router.
  bool empty() const;

  /// Abort all in-flight state (used between quiesced reconfigurations in
  /// tests; the normal simulator drains instead).
  void flush();

  /// Live link fault on output `port`: release the worm committed to each
  /// of its VCs and report the worm's slot so the caller can poison it.
  /// The link object itself is failed by the network (it is shared with
  /// the neighbour's input side).
  void kill_output_port(PortId port, std::vector<PacketSlot>& orphaned);

  /// Live node fault on this router: destroy every buffered flit (appended
  /// to `destroyed` for accounting) and reset all pipeline state.
  void destroy_all_flits(std::vector<Flit>& destroyed);

  /// Watchdog diagnostics: one record per input VC that holds flits.
  struct StalledVc {
    PortId in_port = kInvalidPort;
    VcId in_vc = kInvalidVc;
    PacketSlot slot = kInvalidPacketSlot;  // packet at the buffer front
    bool active = false;                   // committed to an output VC
    PortId out_port = kInvalidPort;        // valid when active
    VcId out_vc = kInvalidVc;
  };
  void collect_stalled(std::vector<StalledVc>& out) const;

  const RouterStats& stats() const { return stats_; }
  /// A running total this router also adds every flit movement to
  /// (forwarded, ejected and dropped flits, as counted in stats()). The
  /// network points it at the router's shard, so the total stays exact
  /// without walking every router.
  void set_movement_counter(std::int64_t* counter) { movements_ = counter; }

  /// Local occupancy view used as the adaptivity criterion (buffer
  /// exploitation as load measure, Section 4.1).
  int output_credits(PortId port, VcId vc) const;
  bool output_vc_free(PortId port, VcId vc) const;
  /// Data committed to an output port across its VCs (paper: out_queue).
  int output_assigned_data(PortId port) const;

 private:
  enum class VcStatus { Idle, Routing, Active };

  struct InputVc {
    FlitBuffer buffer;
    RouteDecision decision;
    int rc_wait = 0;        // remaining stall cycles for multi-step decisions
    PortId out_port = kInvalidPort;
    VcId out_vc = kInvalidVc;
    /// Flits of the current worm still owed to the committed output —
    /// the exact amount to roll back from assigned_flits when a live
    /// fault truncates the worm mid-transfer.
    int committed = 0;
    bool mark_misrouted = false;

    explicit InputVc(int depth) : buffer(depth) {}
  };

  struct OutputVc {
    bool owned = false;
    PortId owner_port = kInvalidPort;
    VcId owner_vc = kInvalidVc;
    /// Worm holding the VC (valid while owned): live faults poison it.
    PacketSlot owner_slot = kInvalidPacketSlot;
    int credits = 0;
    /// Flits committed to this output but not yet transmitted — the
    /// paper's out_queue adaptivity measure.
    int assigned_flits = 0;
  };

  /// Compact per-input-VC scan record. The pipeline stages sweep every VC
  /// every cycle, and InputVc itself is cache-hostile (it embeds the
  /// RouteDecision candidate array), so the scanned state — status and
  /// buffer occupancy — is mirrored here at two bytes per VC: the whole
  /// sweep reads one or two cache lines. `occ` tracks buffer.size() and is
  /// updated at every push/pop site.
  struct VcMeta {
    std::uint8_t status = 0;  // VcStatus
    std::uint8_t occ = 0;     // flits buffered (== buffer.size())
  };

  int in_index(PortId port, VcId vc) const { return port * vcs_ + vc; }
  InputVc& ivc(PortId port, VcId vc) {
    return inputs_[static_cast<std::size_t>(in_index(port, vc))];
  }
  OutputVc& ovc(PortId port, VcId vc) {
    return outputs_[static_cast<std::size_t>(in_index(port, vc))];
  }
  const OutputVc& ovc(PortId port, VcId vc) const {
    return outputs_[static_cast<std::size_t>(in_index(port, vc))];
  }

  void accept_arrivals(Cycle now);
  void stage_drain_poisoned(Cycle now, std::vector<Flit>& dropped);
  void stage_rc(Cycle now);
  void stage_va();
  void stage_sa_st(Cycle now, std::vector<Flit>& ejected);
  /// Undo a truncated worm's VA commitment (output ownership + assigned
  /// data); safe to call for VCs that never committed.
  void release_commitment(InputVc& in);

  NodeId id_;
  const Topology* topo_;
  const FaultSet* faults_;
  const RoutingAlgorithm* algo_;
  PacketStore* store_;
  RouterConfig cfg_;
  int degree_;
  int vcs_;

  std::vector<InputVc> inputs_;    // (degree_+1) x vcs_
  std::vector<VcMeta> meta_;       // mirrors inputs_' status/occupancy
  std::vector<OutputVc> outputs_;  // (degree_+1) x vcs_ (local row unused for
                                   // ownership; its credits are infinite)
  std::vector<Link*> out_links_;   // degree_ entries (nullptr = no link)
  std::vector<Link*> in_links_;
  Crossbar crossbar_;
  std::vector<RoundRobinArbiter> sa_arbiters_;  // one per output port
  /// SA gather scratch: per-output request buckets, flat (degree_+1 rows
  /// of (degree_+1)*vcs_ slots), filled and consumed every cycle without
  /// touching the heap.
  std::vector<ArbCandidate> sa_bucket_;
  std::vector<int> sa_count_;  // candidates per output this cycle
  std::vector<Flit> drop_scratch_;  // backs the two-argument step overload
  /// Latched at step() entry: any poisoned worms alive in this replica?
  bool poison_active_ = false;
  RouterStats stats_;
  std::int64_t* movements_ = nullptr;
  void count_movement() {
    if (movements_ != nullptr) ++*movements_;
  }
};

}  // namespace flexrouter
