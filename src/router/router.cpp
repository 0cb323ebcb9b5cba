#include "router/router.hpp"

#include <algorithm>
#include <bit>

namespace flexrouter {

Router::Router(NodeId id, const Topology& topo, const FaultSet& faults,
               const RoutingAlgorithm& algo, PacketStore& store,
               const RouterConfig& cfg)
    : id_(id),
      topo_(&topo),
      faults_(&faults),
      algo_(&algo),
      store_(&store),
      cfg_(cfg),
      degree_(topo.degree()),
      vcs_(algo.num_vcs()),
      crossbar_(degree_ + 1, degree_ + 1) {
  FR_REQUIRE(topo.valid_node(id));
  FR_REQUIRE(vcs_ >= 1);
  inputs_.reserve(static_cast<std::size_t>((degree_ + 1) * vcs_));
  for (PortId p = 0; p <= degree_; ++p)
    for (VcId v = 0; v < vcs_; ++v)
      inputs_.emplace_back(p == degree_ ? cfg.injection_depth
                                        : cfg.buffer_depth);
  meta_.assign(static_cast<std::size_t>((degree_ + 1) * vcs_), VcMeta{});
  outputs_.assign(static_cast<std::size_t>((degree_ + 1) * vcs_), OutputVc{});
  out_links_.assign(static_cast<std::size_t>(degree_), nullptr);
  in_links_.assign(static_cast<std::size_t>(degree_), nullptr);
  sa_arbiters_.reserve(static_cast<std::size_t>(degree_ + 1));
  for (PortId p = 0; p <= degree_; ++p)
    sa_arbiters_.emplace_back((degree_ + 1) * vcs_);
  sa_bucket_.assign(
      static_cast<std::size_t>((degree_ + 1) * (degree_ + 1) * vcs_),
      ArbCandidate{});
  sa_count_.assign(static_cast<std::size_t>(degree_ + 1), 0);
}

void Router::connect_output(PortId port, Link* link) {
  FR_REQUIRE(port >= 0 && port < degree_);
  FR_REQUIRE(link != nullptr && link->num_vcs() == vcs_);
  out_links_[static_cast<std::size_t>(port)] = link;
  // Initial credits = full downstream buffer.
  for (VcId v = 0; v < vcs_; ++v) ovc(port, v).credits = cfg_.buffer_depth;
}

void Router::connect_input(PortId port, Link* link) {
  FR_REQUIRE(port >= 0 && port < degree_);
  FR_REQUIRE(link != nullptr && link->num_vcs() == vcs_);
  in_links_[static_cast<std::size_t>(port)] = link;
}

int Router::injection_space() const {
  return inputs_[static_cast<std::size_t>(in_index(degree_, 0))]
      .buffer.free_slots();
}

void Router::inject(const Flit& flit) {
  ivc(degree_, 0).buffer.push(flit);
  ++meta_[static_cast<std::size_t>(in_index(degree_, 0))].occ;
}

bool Router::empty() const {
  for (const VcMeta& m : meta_)
    if (m.occ != 0) return false;
  return true;
}

void Router::flush() {
  for (InputVc& vc : inputs_) {
    while (!vc.buffer.empty()) vc.buffer.pop();
    vc.rc_wait = 0;
    vc.out_port = kInvalidPort;
    vc.out_vc = kInvalidVc;
    vc.committed = 0;
  }
  std::fill(meta_.begin(), meta_.end(), VcMeta{});
  for (OutputVc& vc : outputs_) {
    vc.owned = false;
    vc.owner_slot = kInvalidPacketSlot;
    vc.assigned_flits = 0;
  }
  // Restore credits to full: the network guarantees links are drained.
  for (PortId p = 0; p < degree_; ++p)
    if (out_links_[static_cast<std::size_t>(p)] != nullptr)
      for (VcId v = 0; v < vcs_; ++v) ovc(p, v).credits = cfg_.buffer_depth;
}

void Router::release_commitment(InputVc& in) {
  if (in.out_port != kInvalidPort && in.out_port != local_port()) {
    OutputVc& o = ovc(in.out_port, in.out_vc);
    o.owned = false;
    o.owner_slot = kInvalidPacketSlot;
    o.assigned_flits = std::max(0, o.assigned_flits - in.committed);
  }
  in.out_port = kInvalidPort;
  in.out_vc = kInvalidVc;
  in.committed = 0;
}

void Router::kill_output_port(PortId port, std::vector<PacketSlot>& orphaned) {
  FR_REQUIRE(port >= 0 && port < degree_);
  for (VcId v = 0; v < vcs_; ++v) {
    OutputVc& o = ovc(port, v);
    if (!o.owned) continue;
    orphaned.push_back(o.owner_slot);
    // Tear the commitment down on both sides now. The owner input VC goes
    // idle: its buffered flits of the worm drain as poisoned, and when it
    // holds none (the worm's tail was truncated upstream) it must not stay
    // aimed at the dead port for the next worm that arrives on it.
    const int owner = in_index(o.owner_port, o.owner_vc);
    InputVc& in = inputs_[static_cast<std::size_t>(owner)];
    FR_ASSERT_MSG(in.out_port == port && in.out_vc == v,
                  "output VC owner is not committed to it");
    release_commitment(in);
    meta_[static_cast<std::size_t>(owner)].status =
        static_cast<std::uint8_t>(VcStatus::Idle);
  }
}

void Router::destroy_all_flits(std::vector<Flit>& destroyed) {
  for (InputVc& vc : inputs_) {
    while (!vc.buffer.empty()) destroyed.push_back(vc.buffer.pop());
    vc.rc_wait = 0;
    vc.out_port = kInvalidPort;
    vc.out_vc = kInvalidVc;
    vc.committed = 0;
  }
  std::fill(meta_.begin(), meta_.end(), VcMeta{});
  for (OutputVc& vc : outputs_) {
    vc.owned = false;
    vc.owner_slot = kInvalidPacketSlot;
    vc.assigned_flits = 0;
  }
}

void Router::collect_stalled(std::vector<StalledVc>& out) const {
  const int ninputs = (degree_ + 1) * vcs_;
  for (int idx = 0; idx < ninputs; ++idx) {
    if (meta_[static_cast<std::size_t>(idx)].occ == 0) continue;
    const InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    StalledVc s;
    s.in_port = idx / vcs_;
    s.in_vc = idx % vcs_;
    s.slot = in.buffer.front().slot;
    s.active = meta_[static_cast<std::size_t>(idx)].status ==
               static_cast<std::uint8_t>(VcStatus::Active);
    if (s.active) {
      s.out_port = in.out_port;
      s.out_vc = in.out_vc;
    }
    out.push_back(s);
  }
}

int Router::output_credits(PortId port, VcId vc) const {
  FR_REQUIRE(port >= 0 && port <= degree_);
  FR_REQUIRE(vc >= 0 && vc < vcs_);
  if (port == degree_) return kEjectionSinkCredits;
  return ovc(port, vc).credits;
}

bool Router::output_vc_free(PortId port, VcId vc) const {
  if (port == degree_) return true;  // ejection VCs never block
  return !ovc(port, vc).owned;
}

int Router::output_assigned_data(PortId port) const {
  FR_REQUIRE(port >= 0 && port <= degree_);
  if (port == degree_) return 0;
  int total = 0;
  for (VcId v = 0; v < vcs_; ++v) total += ovc(port, v).assigned_flits;
  return total;
}

void Router::accept_arrivals(Cycle now) {
  for (PortId p = 0; p < degree_; ++p) {
    Link* link = in_links_[static_cast<std::size_t>(p)];
    if (link == nullptr) continue;
    if (auto arrival = link->receive_flit(now)) {
      auto& [vc, flit] = *arrival;
      ivc(p, vc).buffer.push(flit);
      ++meta_[static_cast<std::size_t>(in_index(p, vc))].occ;
    }
  }
  for (PortId p = 0; p < degree_; ++p) {
    Link* link = out_links_[static_cast<std::size_t>(p)];
    if (link == nullptr) continue;
    std::uint32_t mask = link->receive_credits(now);
    while (mask != 0) {
      const VcId vc = std::countr_zero(mask);
      mask &= mask - 1;
      OutputVc& o = ovc(p, vc);
      ++o.credits;
      FR_ASSERT_MSG(o.credits <= cfg_.buffer_depth, "credit overflow");
    }
  }
}

void Router::stage_drain_poisoned(Cycle now, std::vector<Flit>& dropped) {
  // Poisoned-tail semantics, hop by hop: each cycle, every input VC whose
  // front flit belongs to a truncated worm drops that flit, returns the
  // credit upstream, and (on the first drop) releases the worm's VA
  // commitment — output VC ownership, crossbar eligibility, assigned
  // data — exactly as a real poisoned tail flit would on its way through.
  // One flit per VC per cycle, matching the link's one-credit-per-VC
  // bitmask encoding.
  const int ninputs = (degree_ + 1) * vcs_;
  for (int idx = 0; idx < ninputs; ++idx) {
    VcMeta& m = meta_[static_cast<std::size_t>(idx)];
    if (m.occ == 0) continue;
    InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    if (!store_->poisoned(in.buffer.front().slot)) continue;
    const Flit f = in.buffer.pop();
    --m.occ;
    ++stats_.flits_dropped;
    count_movement();
    const PortId p = idx / vcs_;
    if (p < degree_ && in_links_[static_cast<std::size_t>(p)] != nullptr)
      in_links_[static_cast<std::size_t>(p)]->send_credit(now, idx % vcs_);
    if (m.status == static_cast<std::uint8_t>(VcStatus::Active))
      release_commitment(in);
    m.status = static_cast<std::uint8_t>(VcStatus::Idle);
    dropped.push_back(f);
  }
}

void Router::stage_rc(Cycle now) {
  (void)now;
  const int ninputs = (degree_ + 1) * vcs_;
  for (int idx = 0; idx < ninputs; ++idx) {
    VcMeta& m = meta_[static_cast<std::size_t>(idx)];
    if (m.status != static_cast<std::uint8_t>(VcStatus::Idle) || m.occ == 0)
      continue;
    InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    const Flit& flit = in.buffer.front();
    // A truncated worm's flits wait for the drain stage; they may be body
    // flits at the front of an idle VC, which is unreachable otherwise.
    if (poison_active_ && store_->poisoned(flit.slot)) continue;
    FR_ASSERT_MSG(flit.head(), "non-head flit at the head of an idle VC");

    RouteContext ctx;
    ctx.node = id_;
    ctx.in_port = idx / vcs_;
    ctx.in_vc = idx % vcs_;
    const Header& hdr = MessageInterface::extract(*store_, flit);
    ctx.src = hdr.src;
    ctx.dest = hdr.dest;
    ctx.path_len = hdr.path_len;
    ctx.misrouted = hdr.misrouted;

    RouteDecision decision = algo_->route(ctx);
    stats_.decision_steps += decision.steps;
    ++stats_.packets_routed;

    // Lifelock guard: over-budget messages are restricted to the escape
    // layer, whose deterministic routing always terminates.
    if (ctx.path_len > algo_->max_path_len()) {
      RouteDecision filtered;
      filtered.steps = decision.steps;
      filtered.mark_misrouted = decision.mark_misrouted;
      for (const RouteCandidate& c : decision.candidates)
        if (c.port == local_port() || algo_->is_escape_vc(c.vc))
          filtered.candidates.push_back(c);
      decision = filtered;
    }

    if (decision.candidates.empty()) {
      ++stats_.rc_no_candidates;  // retry next cycle
      continue;
    }
    in.decision = decision;
    in.rc_wait = decision.steps - 1;
    in.mark_misrouted = decision.mark_misrouted;
    m.status = static_cast<std::uint8_t>(VcStatus::Routing);
  }
}

void Router::stage_va() {
  const int ninputs = (degree_ + 1) * vcs_;
  for (int idx = 0; idx < ninputs; ++idx) {
    VcMeta& m = meta_[static_cast<std::size_t>(idx)];
    if (m.status != static_cast<std::uint8_t>(VcStatus::Routing)) continue;
    InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    if (in.rc_wait > 0) {
      --in.rc_wait;  // multi-interpretation decision still in progress
      continue;
    }
    // Sort candidates by (priority, free credits) and take the best free
    // output VC — the adaptivity selection. A VC is only granted when it
    // has at least one credit: committing a head to a credit-less channel
    // would strand it in a state where the escape option is gone, voiding
    // the Duato deadlock-freedom argument (a blocked head must always be
    // able to re-select, and with a credit the head is guaranteed to move
    // into the downstream buffer, where it routes afresh).
    const RouteCandidate* best = nullptr;
    int best_score = 0;
    for (const RouteCandidate& c : in.decision.candidates) {
      // Information Units report link faults to their endpoints at once
      // (Figure 3): a VC on a dead channel is never granted, even before
      // the control plane's quiescent reconfiguration catches up.
      if (c.port != local_port() &&
          (out_links_[static_cast<std::size_t>(c.port)] == nullptr ||
           out_links_[static_cast<std::size_t>(c.port)]->failed()))
        continue;
      if (!output_vc_free(c.port, c.vc)) continue;
      if (output_credits(c.port, c.vc) <= 0) continue;
      // Adaptivity selection: router-visible load ranks equal-priority
      // candidates. Credits = free downstream buffer space; AssignedData
      // additionally penalises outputs already committed to long worms
      // (the paper's out_queue criterion).
      int load_score = std::min(output_credits(c.port, c.vc), 1023);
      if (cfg_.adaptivity == AdaptivityCriterion::AssignedData)
        load_score -= 4 * std::min(output_assigned_data(c.port), 200);
      const int score = c.priority * 4096 + load_score;
      if (best == nullptr || score > best_score) {
        best = &c;
        best_score = score;
      }
    }
    if (best == nullptr) {
      ++stats_.va_retries;
      continue;
    }
    in.out_port = best->port;
    in.out_vc = best->vc;
    if (best->port != local_port()) {
      OutputVc& o = ovc(best->port, best->vc);
      o.owned = true;
      o.owner_port = idx / vcs_;
      o.owner_vc = idx % vcs_;
      o.owner_slot = in.buffer.front().slot;
      // The whole message is now committed to this output; wormhole
      // switching knows its length up front (Section 2.2). `committed`
      // mirrors the worm's share so a truncation can roll it back.
      const int length = store_->header(in.buffer.front().slot).length;
      o.assigned_flits += length;
      in.committed = length;
    }
    m.status = static_cast<std::uint8_t>(VcStatus::Active);
  }
}

void Router::stage_sa_st(Cycle now, std::vector<Flit>& ejected) {
  crossbar_.begin_cycle();
  const int ninputs = (degree_ + 1) * vcs_;
  // Gather: one ascending pass over the input VCs buckets SA requests by
  // their committed output (each active VC targets exactly one port, so
  // buckets partition the inputs and stay sorted by index). Credits and
  // the misroute boost are stable across this cycle's grants — an earlier
  // output's grant only decrements its own credit counter and only pops
  // the granted VC — so evaluating them here, before any grant, is
  // equivalent to the per-output rescan this replaces.
  std::fill(sa_count_.begin(), sa_count_.end(), 0);
  for (int idx = 0; idx < ninputs; ++idx) {
    const VcMeta& m = meta_[static_cast<std::size_t>(idx)];
    if (m.status != static_cast<std::uint8_t>(VcStatus::Active) || m.occ == 0)
      continue;
    InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    const PortId out = in.out_port;
    if (out != local_port() && ovc(out, in.out_vc).credits <= 0) continue;
    // Fail-slow: a throttled link refuses the wire until its duty cycle
    // allows another flit; the worm stalls in place (backpressure), it is
    // never destroyed.
    if (out != local_port() &&
        !out_links_[static_cast<std::size_t>(out)]->can_accept(now))
      continue;
    // Misroute boost applies to the head flit only. Pre-store flits
    // carried a header copy frozen at injection time, so body flits
    // always saw misrouted == false; keep that arbitration behaviour
    // even though the shared header may flip mid-flight.
    const Flit& front = in.buffer.front();
    const int prio = front.head() && store_->header(front.slot).misrouted
                         ? cfg_.misroute_priority_boost
                         : 0;
    sa_bucket_[static_cast<std::size_t>(out * ninputs + sa_count_[
        static_cast<std::size_t>(out)]++)] = {idx, prio};
  }
  // Arbitrate per output port in ascending order; misrouted messages got
  // their priority boost at gather time.
  for (PortId out = 0; out <= degree_; ++out) {
    int count = sa_count_[static_cast<std::size_t>(out)];
    if (count == 0 || !crossbar_.output_free(out)) continue;
    ArbCandidate* cands = &sa_bucket_[static_cast<std::size_t>(out * ninputs)];
    // Drop candidates whose input port was claimed by an earlier output
    // (another VC of the same port won there) — the original per-output
    // rescan filtered these at gather time, after those grants.
    int kept = 0;
    for (int i = 0; i < count; ++i)
      if (crossbar_.input_free(cands[i].idx / vcs_)) cands[kept++] = cands[i];
    count = kept;
    RoundRobinArbiter& arb = sa_arbiters_[static_cast<std::size_t>(out)];
    const int winner = arb.peek_sorted(cands, count);
    if (winner < 0) continue;
    const PortId p = winner / vcs_;
    const VcId v = winner % vcs_;
    InputVc& in = ivc(p, v);
    VcMeta& wm = meta_[static_cast<std::size_t>(winner)];
    // Only a consumed grant advances the round-robin pointer: a winner
    // that could not use its slot would keep its fairness turn.
    arb.consume(winner);
    crossbar_.connect(p, out);

    Flit flit = in.buffer.pop();
    --wm.occ;
    // Return a credit upstream for the freed buffer slot.
    if (p < degree_ && in_links_[static_cast<std::size_t>(p)] != nullptr)
      in_links_[static_cast<std::size_t>(p)]->send_credit(now, v);

    if (out == local_port()) {
      ++stats_.flits_ejected;
      count_movement();
      if (flit.tail()) {
        wm.status = static_cast<std::uint8_t>(VcStatus::Idle);
        in.out_port = kInvalidPort;
      }
      ejected.push_back(flit);
      continue;
    }

    if (flit.head())
      stats_.header_updates += MessageInterface::update_on_forward(
          *store_, flit, in.mark_misrouted);

    // The local port has no tracked credits (kEjectionSinkCredits is a
    // sentinel, never a counter) — it must never reach this decrement.
    FR_ASSERT_MSG(out != local_port(), "ejection sink credits decremented");
    OutputVc& o = ovc(out, in.out_vc);
    --o.credits;
    if (o.assigned_flits > 0) --o.assigned_flits;
    if (in.committed > 0) --in.committed;
    Link* link = out_links_[static_cast<std::size_t>(out)];
    FR_ASSERT_MSG(link != nullptr, "active VC aimed at an unconnected port");
    link->send_flit(now, in.out_vc, flit);
    ++stats_.flits_forwarded;
    count_movement();

    if (flit.tail()) {
      o.owned = false;
      o.owner_slot = kInvalidPacketSlot;
      wm.status = static_cast<std::uint8_t>(VcStatus::Idle);
      in.out_port = kInvalidPort;
      in.committed = 0;
    }
  }
}

void Router::step(Cycle now, std::vector<Flit>& ejected,
                  std::vector<Flit>& dropped) {
  // Truncation work is rare (only after a live fault), so the drain stage
  // is gated on the store's poisoned-live count and costs nothing in the
  // fault-free steady state.
  poison_active_ = store_->poisoned_live() != 0;
  accept_arrivals(now);
  if (poison_active_) stage_drain_poisoned(now, dropped);
  stage_sa_st(now, ejected);  // move established flows first
  stage_va();
  stage_rc(now);
}

}  // namespace flexrouter
