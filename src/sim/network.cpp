#include "sim/network.hpp"

#include <algorithm>
#include <thread>

#include "topology/graph_algo.hpp"

namespace flexrouter {

Network::Network(const Topology& topo, RoutingAlgorithm& algo,
                 const NetworkConfig& cfg)
    : topo_(&topo),
      algo_(&algo),
      cfg_(cfg),
      faults_(topo),
      store_(cfg.expected_in_flight) {
  algo_->attach(topo, faults_);

  const auto n = static_cast<std::size_t>(topo.num_nodes());
  routers_.reserve(n);
  for (NodeId i = 0; i < topo.num_nodes(); ++i)
    routers_.push_back(
        std::make_unique<Router>(i, topo, faults_, algo, store_, cfg.router));
  injection_queues_.resize(n);
  injection_pending_.assign(n, 0);
  router_active_.assign(n, 0);
  live_killed_.assign(n, 0);
  records_.reserve(cfg.expected_packets);
  // Deliveries per cycle cannot exceed the node count: sized to n so
  // steady-state step() never allocates.
  delivered_last_cycle_.reserve(n);
  destroyed_scratch_.reserve(64);
  orphan_scratch_.reserve(16);
  lost_log_.reserve(64);
  for (auto& q : injection_queues_) q.reserve(16);

  // One Link object per directed channel, stored contiguously so the
  // router phase walks link state in address order. Reserved up front:
  // routers keep pointers into the array.
  link_lookup_.assign(n * static_cast<std::size_t>(topo.degree()), -1);
  links_.reserve(topo.directed_links().size());
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (PortId p = 0; p < topo.degree(); ++p) {
      const NodeId v = topo.neighbor(u, p);
      if (v == kInvalidNode) continue;
      link_lookup_[static_cast<std::size_t>(u) *
                       static_cast<std::size_t>(topo.degree()) +
                   static_cast<std::size_t>(p)] =
          static_cast<std::ptrdiff_t>(links_.size());
      links_.emplace_back(algo.num_vcs(), cfg.link_latency);
      link_sources_.push_back({u, p});
      link_dests_.push_back(v);
      Link* link = &links_.back();
      routers_[static_cast<std::size_t>(u)]->connect_output(p, link);
      routers_[static_cast<std::size_t>(v)]->connect_input(
          topo.reverse_port(u, p), link);
    }
  }

  // Sharded execution state: per-shard worklists and event buffers.
  FR_REQUIRE(cfg_.shards >= 1);
  plan_ = plan_shards(topo, cfg_.shards);
  shards_.resize(static_cast<std::size_t>(cfg_.shards));
  merge_pos_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  for (int s = 0; s < cfg_.shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const std::size_t sn = plan_.nodes[static_cast<std::size_t>(s)].size();
    sh.pending_list.reserve(sn);
    sh.active_list.reserve(sn);
    sh.busy_links.reserve(links_.size());
    sh.purge_drops.reserve(32);
    sh.purges.reserve(32);
    // One ejection per router per cycle bounds the eject buffer; drops are
    // rare (fault cycles only) and may grow outside the steady state.
    sh.ejects.reserve(sn + 8);
    sh.drops.reserve(32);
    sh.spans.reserve(sn);
    for (const NodeId u : plan_.nodes[static_cast<std::size_t>(s)])
      routers_[static_cast<std::size_t>(u)]->set_movement_counter(
          &sh.flit_movements);
  }
  // In-shard links report themselves to their shard's busy list when they
  // turn busy. Boundary links (endpoints in different shards) stage their
  // sends and flush at the barrier, in ascending link id — the canonical
  // order — and are rescanned serially every cycle instead.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const int s = plan_.shard(link_sources_[i].node);
    if (s == plan_.shard(link_dests_[i])) {
      links_[i].watch_busy(&shards_[static_cast<std::size_t>(s)].busy_links,
                            static_cast<std::int32_t>(i));
      continue;
    }
    boundary_links_.push_back(static_cast<std::int32_t>(i));
    links_[i].set_deferred(true);
  }
  int threads = cfg_.shard_threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  threads = std::min(threads, cfg_.shards);
  if (threads > 1) pool_ = std::make_unique<ShardPool>(threads);
}

PacketId Network::send(NodeId src, NodeId dest, int length, Cycle now) {
  FR_REQUIRE(topo_->valid_node(src) && topo_->valid_node(dest));
  FR_REQUIRE_MSG(src != dest, "self-addressed packet");
  FR_REQUIRE_MSG(faults_.node_ok(src) && faults_.node_ok(dest),
                 "packet to/from a faulty node violates fault assumption iii");
  FR_REQUIRE_MSG(!node_live_killed(src) && !node_live_killed(dest),
                 "packet to/from a node killed live (diagnosis pending)");
  FR_REQUIRE(length >= 1);

  PacketRecord rec;
  rec.id = static_cast<PacketId>(records_.size());
  rec.src = src;
  rec.dest = dest;
  rec.length = length;
  rec.created = now;
  records_.push_back(rec);

  Header h;
  h.packet = rec.id;
  h.src = src;
  h.dest = dest;
  h.length = length;
  MessageInterface::seal(h);
  // One header per in-flight packet: the slot travels in the flit records
  // and is recycled when the tail flit ejects.
  const PacketSlot slot = store_.alloc(h);
  records_.back().slot = slot;

  // The ring's backing store is pooled, so pushing the whole flit train is
  // amortised one store per flit.
  auto& queue = injection_queues_[static_cast<std::size_t>(src)];
  queue.reserve(queue.size() + static_cast<std::size_t>(length));
  queue.push_back(make_head_flit(slot, length));
  for (int s = 1; s < length; ++s)
    queue.push_back(make_body_flit(slot, s, length));
  mark_pending(src);
  return rec.id;
}

PacketId Network::resend(PacketId prior, Cycle now) {
  FR_REQUIRE(prior >= 0 && static_cast<std::size_t>(prior) < records_.size());
  // Copy: send() below grows records_ and would invalidate a reference.
  const PacketRecord old = records_[static_cast<std::size_t>(prior)];
  FR_REQUIRE_MSG(old.lost, "resend of a packet that was not lost");
  const PacketId root_id = old.retry_of >= 0 ? old.retry_of : prior;
  const PacketId id = send(old.src, old.dest, old.length, now);
  records_[static_cast<std::size_t>(id)].retry_of = root_id;
  PacketRecord& root = records_[static_cast<std::size_t>(root_id)];
  ++root.retries;
  root.last_attempt = id;
  return id;
}

void Network::shard_phase(int s, Cycle now, bool purge) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  sh.purge_drops.clear();
  sh.purges.clear();
  sh.ejects.clear();
  sh.drops.clear();
  sh.spans.clear();

  // Injection: at most one flit per node per cycle (local link bandwidth),
  // visiting only nodes with queued flits, in ascending node order.
  // Source-side abort: queued flits of a truncated worm never enter the
  // network; the whole front run goes at once (dead flits consume no
  // injection bandwidth). Loss accounting is deferred: the shared store,
  // lost log and counters mutate only in the epilogue, in node order.
  if (!sh.pending_sorted) {
    std::sort(sh.pending_list.begin(), sh.pending_list.end());
    sh.pending_sorted = true;
  }
  std::size_t keep = 0;
  for (std::size_t i = 0; i < sh.pending_list.size(); ++i) {
    const NodeId u = sh.pending_list[i];
    auto& queue = injection_queues_[static_cast<std::size_t>(u)];
    Router& r = *routers_[static_cast<std::size_t>(u)];
    if (purge) {
      const auto begin = static_cast<std::uint32_t>(sh.purge_drops.size());
      while (!queue.empty() && store_.poisoned(queue.front().slot)) {
        sh.purge_drops.push_back(queue.front());
        queue.pop_front();
      }
      const auto end = static_cast<std::uint32_t>(sh.purge_drops.size());
      if (end != begin) sh.purges.push_back({u, begin, end});
    }
    if (!queue.empty() && r.injection_space() > 0) {
      const Flit f = queue.front();
      queue.pop_front();
      if (f.head()) {
        const Header& hdr = store_.header(f.slot);
        records_[static_cast<std::size_t>(hdr.packet)].injected = now;
      }
      r.inject(f);
      activate(u);
    }
    if (queue.empty())
      injection_pending_[static_cast<std::size_t>(u)] = 0;
    else
      sh.pending_list[keep++] = u;
  }
  sh.pending_list.resize(keep);

  // Routers, ascending node order within the shard. Ejects and drops are
  // recorded per router and replayed in the epilogue; everything a router
  // touches here is shard-local (the busy list included: a link turns busy
  // only through a send by one of its endpoints), a per-packet slot it
  // exclusively holds (the head flit lives in exactly one router), or a
  // boundary link's staging slot.
  if (!sh.active_sorted) {
    std::sort(sh.active_list.begin(), sh.active_list.end());
    sh.active_sorted = true;
  }
  std::size_t akeep = 0;
  for (std::size_t i = 0; i < sh.active_list.size(); ++i) {
    const NodeId u = sh.active_list[i];
    Shard::RouterSpan span;
    span.node = u;
    span.eject_begin = static_cast<std::uint32_t>(sh.ejects.size());
    span.drop_begin = static_cast<std::uint32_t>(sh.drops.size());
    routers_[static_cast<std::size_t>(u)]->step(now, sh.ejects, sh.drops);
    span.eject_end = static_cast<std::uint32_t>(sh.ejects.size());
    span.drop_end = static_cast<std::uint32_t>(sh.drops.size());
    if (span.eject_end != span.eject_begin || span.drop_end != span.drop_begin)
      sh.spans.push_back(span);
    if (routers_[static_cast<std::size_t>(u)]->empty())
      router_active_[static_cast<std::size_t>(u)] = 0;
    else
      sh.active_list[akeep++] = u;
  }
  sh.active_list.resize(akeep);

  // Busy in-shard links keep both endpoints live for the next cycle (both
  // endpoints are this shard's nodes); links that went idle drop off.
  std::size_t lkeep = 0;
  for (std::size_t i = 0; i < sh.busy_links.size(); ++i) {
    const std::int32_t l = sh.busy_links[i];
    Link& link = links_[static_cast<std::size_t>(l)];
    if (link.idle()) {
      link.clear_busy_mark();
      continue;
    }
    activate(link_sources_[static_cast<std::size_t>(l)].node);
    activate(link_dests_[static_cast<std::size_t>(l)]);
    sh.busy_links[lkeep++] = l;
  }
  sh.busy_links.resize(lkeep);
}

void Network::step(Cycle now) {
  delivered_last_cycle_.clear();
  const bool purge = store_.poisoned_live() > 0;

  const int num_shards = static_cast<int>(shards_.size());
  if (pool_ != nullptr) {
    struct Ctx {
      Network* net;
      Cycle now;
      bool purge;
    } ctx{this, now, purge};
    pool_->run(
        num_shards,
        [](void* c, int s) {
          auto* p = static_cast<Ctx*>(c);
          p->net->shard_phase(s, p->now, p->purge);
        },
        &ctx);
  } else {
    for (int s = 0; s < num_shards; ++s) shard_phase(s, now, purge);
  }

  // --- Serial epilogue -------------------------------------------------
  // 1. Cross-shard exchange: apply every boundary link's staged flit and
  // credits in ascending link id — the canonical order — and keep the
  // endpoints of non-idle boundary links on next cycle's active lists.
  // Link flushes touch no shared packet state, so their order relative to
  // the replays below is free; the replays themselves mutate shared state
  // in ascending node order at every shard count.
  for (const std::int32_t l : boundary_links_) {
    Link& link = links_[static_cast<std::size_t>(l)];
    link.flush_deferred(now);
    if (!link.idle()) {
      activate(link_sources_[static_cast<std::size_t>(l)].node);
      activate(link_dests_[static_cast<std::size_t>(l)]);
    }
  }

  // 2. Source-side purge accounting, ascending node order across shards
  // (each shard's groups are already ascending: k-way merge).
  if (purge) {
    std::fill(merge_pos_.begin(), merge_pos_.end(), 0);
    for (;;) {
      int best = -1;
      for (int s = 0; s < num_shards; ++s) {
        const auto& purges = shards_[static_cast<std::size_t>(s)].purges;
        const std::size_t pos = merge_pos_[static_cast<std::size_t>(s)];
        if (pos >= purges.size()) continue;
        if (best < 0 ||
            purges[pos].node <
                shards_[static_cast<std::size_t>(best)]
                    .purges[merge_pos_[static_cast<std::size_t>(best)]]
                    .node)
          best = s;
      }
      if (best < 0) break;
      Shard& sh = shards_[static_cast<std::size_t>(best)];
      const Shard::PurgeSpan& span =
          sh.purges[merge_pos_[static_cast<std::size_t>(best)]++];
      for (std::uint32_t i = span.begin; i < span.end; ++i) {
        ++network_dropped_flits_;
        account_dropped_flit(sh.purge_drops[i].slot);
      }
    }
  }

  // 3. Per-router drop/eject replay, ascending node order across shards,
  // so the lost log, the delivery order and the store's free-list state
  // are identical at any shard count.
  std::fill(merge_pos_.begin(), merge_pos_.end(), 0);
  for (;;) {
    int best = -1;
    for (int s = 0; s < num_shards; ++s) {
      const auto& spans = shards_[static_cast<std::size_t>(s)].spans;
      const std::size_t pos = merge_pos_[static_cast<std::size_t>(s)];
      if (pos >= spans.size()) continue;
      if (best < 0 ||
          spans[pos].node < shards_[static_cast<std::size_t>(best)]
                                .spans[merge_pos_[static_cast<std::size_t>(
                                    best)]]
                                .node)
        best = s;
    }
    if (best < 0) break;
    Shard& sh = shards_[static_cast<std::size_t>(best)];
    const Shard::RouterSpan& span =
        sh.spans[merge_pos_[static_cast<std::size_t>(best)]++];
    const NodeId u = span.node;
    for (std::uint32_t i = span.drop_begin; i < span.drop_end; ++i)
      account_dropped_flit(sh.drops[i].slot);
    for (std::uint32_t i = span.eject_begin; i < span.eject_end; ++i) {
      const Flit& f = sh.ejects[i];
      // Resolve the slot to the full record at the network boundary — the
      // last reader before the slot is recycled (head == tail for length-1
      // packets, so read before release).
      const Header& hdr = store_.header(f.slot);
      PacketRecord& rec = records_[static_cast<std::size_t>(hdr.packet)];
      FR_ASSERT_MSG(rec.dest == u, "flit ejected at the wrong node");
      const bool last = store_.note_flit_gone(f.slot);
      if (store_.poisoned(f.slot)) {
        // The worm was truncated after part of it reached the destination;
        // what does arrive is discarded, not delivered.
        if (last) finalize_lost(f.slot);
        continue;
      }
      if (f.head()) {
        rec.hops = hdr.path_len;
        rec.misrouted = hdr.misrouted;
      }
      if (f.tail()) {
        FR_ASSERT_MSG(last, "tail ejected with flits unaccounted");
        rec.delivered = now;
        rec.slot = kInvalidPacketSlot;
        ++delivered_count_;
        delivered_last_cycle_.push_back(rec.id);
        store_.release(f.slot);
      }
    }
  }
}

bool Network::inert() const {
  // Every router holding flits sits on an active list; every busy link
  // (boundary included) re-activates its endpoints each cycle; every
  // queued injection keeps its source on a pending list. Empty worklists
  // therefore certify that stepping would change nothing.
  for (const Shard& sh : shards_)
    if (!sh.pending_list.empty() || !sh.active_list.empty()) return false;
  return true;
}

void Network::skip_cycle() {
  FR_ASSERT_MSG(inert(), "skip_cycle on a non-inert network");
  delivered_last_cycle_.clear();
}

bool Network::idle() const {
  for (const auto& q : injection_queues_)
    if (!q.empty()) return false;
  for (const auto& r : routers_)
    if (!r->empty()) return false;
  for (const Link& l : links_)
    if (!l.idle()) return false;
  return true;
}

void Network::begin_fault_mutation() {
  FR_REQUIRE_MSG(idle(), "apply_faults requires a quiesced network "
                         "(fault assumption iv)");
}

int Network::finish_fault_mutation() {
  // A quiesced network has delivered every injected packet, so the store
  // must hold no live slots — flush() below cannot leak headers.
  FR_ASSERT_MSG(store_.live_count() == 0,
                "fault mutation with live packet slots");
  const int exchanges = algo_->reconfigure();
  for (const auto& r : routers_) r->flush();
  return exchanges;
}

void Network::poison_slot(PacketSlot s) {
  if (store_.live(s)) store_.poison(s);
}

void Network::account_dropped_flit(PacketSlot s) {
  if (store_.note_flit_gone(s)) finalize_lost(s);
}

void Network::finalize_lost(PacketSlot s) {
  const Header& h = store_.header(s);
  PacketRecord& rec = records_[static_cast<std::size_t>(h.packet)];
  FR_ASSERT_MSG(!rec.done(), "lost packet already delivered");
  FR_ASSERT_MSG(!rec.lost, "packet lost twice");
  rec.lost = true;
  rec.slot = kInvalidPacketSlot;
  lost_log_.push_back(rec.id);
  store_.release(s);
}

bool Network::projected_link_marked(NodeId node, PortId port) const {
  const NodeId peer = topo_->neighbor(node, port);
  FR_ASSERT(peer != kInvalidNode);
  const LinkRef key = node < peer
                          ? LinkRef{node, port}
                          : LinkRef{peer, topo_->reverse_port(node, port)};
  bool marked = faults_.link_marked_faulty(node, port);
  for (const PendingMutation& m : pending_mutations_) {
    if (m.op != PendingMutation::Op::KillLink &&
        m.op != PendingMutation::Op::RepairLink)
      continue;
    const NodeId mpeer = topo_->neighbor(m.node, m.port);
    const LinkRef mkey =
        m.node < mpeer ? LinkRef{m.node, m.port}
                       : LinkRef{mpeer, topo_->reverse_port(m.node, m.port)};
    if (mkey.node != key.node || mkey.port != key.port) continue;
    marked = m.op == PendingMutation::Op::KillLink;
  }
  return marked;
}

bool Network::projected_node_faulty(NodeId node) const {
  bool faulty = faults_.node_faulty(node);
  for (const PendingMutation& m : pending_mutations_) {
    if (m.node != node) continue;
    if (m.op == PendingMutation::Op::KillNode) faulty = true;
    if (m.op == PendingMutation::Op::RepairNode) faulty = false;
  }
  return faulty;
}

void Network::kill_link_live(NodeId node, PortId port) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "live kill of an unconnected port");
  const std::ptrdiff_t fwd = link_index(node, port);
  const PortId rport = topo_->reverse_port(node, port);
  const std::ptrdiff_t rev = link_index(peer, rport);
  FR_ASSERT(fwd >= 0 && rev >= 0);
  const bool hw_dead = links_[static_cast<std::size_t>(fwd)].failed() &&
                       links_[static_cast<std::size_t>(rev)].failed();
  if (hw_dead && (projected_link_marked(node, port) ||
                  projected_node_faulty(node) || projected_node_faulty(peer)))
    return;  // already dead and staying dead (e.g. via a node kill)

  if (!hw_dead) {
    // Damage the data plane: both directions die together (assumption i).
    // Flits inside the channel are destroyed; worms committed through the
    // dead channel on either side are orphaned, so their upstream fragments
    // truncate hop by hop and their buffers/VCs/slots come back.
    destroyed_scratch_.clear();
    links_[static_cast<std::size_t>(fwd)].fail(destroyed_scratch_);
    links_[static_cast<std::size_t>(rev)].fail(destroyed_scratch_);
    orphan_scratch_.clear();
    routers_[static_cast<std::size_t>(node)]->kill_output_port(
        port, orphan_scratch_);
    routers_[static_cast<std::size_t>(peer)]->kill_output_port(
        rport, orphan_scratch_);
    for (const PacketSlot s : orphan_scratch_) poison_slot(s);
    for (const Flit& f : destroyed_scratch_) poison_slot(f.slot);
    for (const Flit& f : destroyed_scratch_) {
      ++network_dropped_flits_;
      account_dropped_flit(f.slot);
    }
  }
  pending_mutations_.push_back(
      {PendingMutation::Op::KillLink, node, port});
  activate(node);
  activate(peer);
}

void Network::kill_node_live(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  const bool hw_dead = live_killed_[static_cast<std::size_t>(node)] != 0;
  if (hw_dead && projected_node_faulty(node))
    return;  // already dead and staying dead
  if (!hw_dead) {
    live_killed_[static_cast<std::size_t>(node)] = 1;

    destroyed_scratch_.clear();
    orphan_scratch_.clear();
    // Every live packet sourced at or destined to the dead node is orphaned
    // (fault assumption iii no longer holds for it).
    store_.for_each_live([&](PacketSlot s, const Header& h) {
      if (h.src == node || h.dest == node) orphan_scratch_.push_back(s);
    });
    // Adjacent channels die with the node; neighbours' worms committed
    // toward it are orphaned.
    for (PortId p = 0; p < topo_->degree(); ++p) {
      const NodeId peer = topo_->neighbor(node, p);
      if (peer == kInvalidNode) continue;
      const PortId rport = topo_->reverse_port(node, p);
      links_[static_cast<std::size_t>(link_index(node, p))].fail(
          destroyed_scratch_);
      links_[static_cast<std::size_t>(link_index(peer, rport))].fail(
          destroyed_scratch_);
      routers_[static_cast<std::size_t>(peer)]->kill_output_port(
          rport, orphan_scratch_);
      activate(peer);
    }
    // The dead router's buffered flits and its local injection queue vanish.
    routers_[static_cast<std::size_t>(node)]->destroy_all_flits(
        destroyed_scratch_);
    auto& queue = injection_queues_[static_cast<std::size_t>(node)];
    while (!queue.empty()) {
      destroyed_scratch_.push_back(queue.front());
      queue.pop_front();
    }

    for (const PacketSlot s : orphan_scratch_) poison_slot(s);
    for (const Flit& f : destroyed_scratch_) poison_slot(f.slot);
    for (const Flit& f : destroyed_scratch_) {
      ++network_dropped_flits_;
      account_dropped_flit(f.slot);
    }
  }
  pending_mutations_.push_back(
      {PendingMutation::Op::KillNode, node, kInvalidPort});
}

bool Network::repair_link_live(NodeId node, PortId port) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "live repair of an unconnected port");
  // Only a link that is (projected) marked faulty has anything to repair;
  // a channel dead solely because an endpoint node died is the node
  // repair's business.
  if (!projected_link_marked(node, port)) return false;
  pending_mutations_.push_back(
      {PendingMutation::Op::RepairLink, node, port});
  activate(node);
  activate(peer);
  return true;
}

bool Network::repair_node_live(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  if (!projected_node_faulty(node)) return false;
  pending_mutations_.push_back(
      {PendingMutation::Op::RepairNode, node, kInvalidPort});
  activate(node);
  return true;
}

void Network::degrade_link_live(NodeId node, PortId port, int factor) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "degrade of an unconnected port");
  faults_.degrade_link(node, port, factor);
  const std::ptrdiff_t fwd = link_index(node, port);
  const std::ptrdiff_t rev =
      link_index(peer, topo_->reverse_port(node, port));
  FR_ASSERT(fwd >= 0 && rev >= 0);
  links_[static_cast<std::size_t>(fwd)].set_throttle(factor);
  links_[static_cast<std::size_t>(rev)].set_throttle(factor);
}

void Network::kill_packet(PacketId id) {
  FR_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  PacketRecord& rec = records_[static_cast<std::size_t>(id)];
  FR_REQUIRE_MSG(!rec.done() && !rec.lost, "kill of a finished packet");
  FR_ASSERT(rec.slot != kInvalidPacketSlot);
  store_.poison(rec.slot);
}

int Network::commit_pending_faults() {
  FR_REQUIRE_MSG(recovery_pending(), "no pending live damage to commit");
  // Undirected links whose hardware state may change at this commit: the
  // links named by link mutations plus every link adjacent to a node
  // mutation. Only these are re-synced below — links made faulty by a
  // static apply_faults call keep their hardware untouched, as before.
  std::vector<LinkRef> touched;
  for (const PendingMutation& m : pending_mutations_) {
    switch (m.op) {
      case PendingMutation::Op::KillLink:
      case PendingMutation::Op::RepairLink:
        touched.push_back({m.node, m.port});
        break;
      case PendingMutation::Op::KillNode:
      case PendingMutation::Op::RepairNode:
        for (PortId p = 0; p < topo_->degree(); ++p)
          if (topo_->neighbor(m.node, p) != kInvalidNode)
            touched.push_back({m.node, p});
        break;
    }
  }
  const int exchanges = apply_faults([this](FaultSet& f) {
    // Replay in arrival order: interleaved kill/repair sequences on one
    // resource resolve to the state of the last event.
    for (const PendingMutation& m : pending_mutations_) {
      switch (m.op) {
        case PendingMutation::Op::KillLink:
          if (!f.link_marked_faulty(m.node, m.port))
            f.fail_link(m.node, m.port);
          break;
        case PendingMutation::Op::KillNode:
          if (!f.node_faulty(m.node)) f.fail_node(m.node);
          break;
        case PendingMutation::Op::RepairLink:
          if (f.link_marked_faulty(m.node, m.port))
            f.repair_link(m.node, m.port);
          break;
        case PendingMutation::Op::RepairNode:
          if (f.node_faulty(m.node)) f.repair_node(m.node);
          live_killed_[static_cast<std::size_t>(m.node)] = 0;
          break;
      }
    }
    pending_mutations_.clear();
  });
  // Hardware sync for the touched links: a channel whose endpoints are
  // both healthy and which carries no faulty mark rejoins service (the
  // network is idle, so the shift registers are already empty). Channels
  // that remain dead keep their failed state from the live kill.
  for (const LinkRef& l : touched) {
    const NodeId peer = topo_->neighbor(l.node, l.port);
    if (faults_.link_marked_faulty(l.node, l.port) ||
        faults_.node_faulty(l.node) || faults_.node_faulty(peer))
      continue;
    links_[static_cast<std::size_t>(link_index(l.node, l.port))].repair();
    links_[static_cast<std::size_t>(
               link_index(peer, topo_->reverse_port(l.node, l.port)))]
        .repair();
  }
  return exchanges;
}

std::vector<Network::BlockedChannel> Network::blocked_channels() const {
  std::vector<BlockedChannel> out;
  std::vector<Router::StalledVc> scratch;
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    scratch.clear();
    routers_[static_cast<std::size_t>(n)]->collect_stalled(scratch);
    for (const Router::StalledVc& s : scratch) {
      BlockedChannel b;
      b.node = n;
      b.port = s.in_port;
      b.vc = s.in_vc;
      b.slot = s.slot;
      b.packet = store_.header(s.slot).packet;
      b.active = s.active;
      b.out_port = s.out_port;
      b.out_vc = s.out_vc;
      out.push_back(b);
    }
  }
  return out;
}

std::vector<Network::BlockedChannel> Network::blocked_chain() const {
  const std::vector<BlockedChannel> all = blocked_channels();
  std::vector<BlockedChannel> chain;
  if (all.empty()) return chain;
  auto find = [&all](NodeId n, PortId p, VcId v) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].node == n && all[i].port == p && all[i].vc == v)
        return static_cast<std::ptrdiff_t>(i);
    return -1;
  };
  std::vector<char> visited(all.size(), 0);
  std::ptrdiff_t cur = 0;  // lowest blocked channel; deterministic start
  while (cur >= 0 && !visited[static_cast<std::size_t>(cur)]) {
    visited[static_cast<std::size_t>(cur)] = 1;
    const BlockedChannel& b = all[static_cast<std::size_t>(cur)];
    chain.push_back(b);
    if (!b.active ||
        b.out_port ==
            routers_[static_cast<std::size_t>(b.node)]->local_port())
      break;  // waiting on RC/VA or on the ejection sink: chain ends here
    const NodeId next = topo_->neighbor(b.node, b.out_port);
    if (next == kInvalidNode) break;
    cur = find(next, topo_->reverse_port(b.node, b.out_port), b.out_vc);
  }
  return chain;
}

const PacketRecord& Network::record(PacketId id) const {
  FR_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  return records_[static_cast<std::size_t>(id)];
}

std::size_t Network::in_flight() const {
  std::size_t pending = 0;
  for (const auto& q : injection_queues_) pending += q.size();
  for (const auto& rec : records_)
    if (rec.injected >= 0 && !rec.done() && !rec.lost) ++pending;
  return pending;
}

std::int64_t Network::total_flit_movements() const {
  // Dropped flits count as movement: truncation progress must reset the
  // deadlock watchdog's stall counter exactly like delivery progress.
  std::int64_t total = network_dropped_flits_;
  for (const Shard& sh : shards_) total += sh.flit_movements;
  return total;
}

std::vector<Network::LinkLoad> Network::link_utilization(Cycle elapsed) const {
  FR_REQUIRE(elapsed > 0);
  std::vector<LinkLoad> out;
  out.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkLoad l;
    l.from = link_sources_[i].node;
    l.port = link_sources_[i].port;
    l.utilization = static_cast<double>(links_[i].info().flits_total()) /
                    static_cast<double>(elapsed);
    l.degrade = links_[i].throttle();
    out.push_back(l);
  }
  std::sort(out.begin(), out.end(), [](const LinkLoad& a, const LinkLoad& b) {
    return a.utilization > b.utilization;
  });
  return out;
}

std::pair<double, double> Network::utilization_summary(Cycle elapsed) const {
  const auto loads = link_utilization(elapsed);
  if (loads.empty()) return {0.0, 0.0};
  double sum = 0.0;
  for (const LinkLoad& l : loads) sum += l.utilization;
  return {loads.front().utilization, sum / static_cast<double>(loads.size())};
}

RouterStats Network::aggregate_stats() const {
  RouterStats agg;
  for (const auto& r : routers_) {
    const RouterStats& s = r->stats();
    agg.flits_forwarded += s.flits_forwarded;
    agg.flits_ejected += s.flits_ejected;
    agg.flits_dropped += s.flits_dropped;
    agg.packets_routed += s.packets_routed;
    agg.decision_steps += s.decision_steps;
    agg.rc_no_candidates += s.rc_no_candidates;
    agg.va_retries += s.va_retries;
    agg.header_updates += s.header_updates;
  }
  return agg;
}

}  // namespace flexrouter
