// Unidirectional link channel: carries flits (tagged with their virtual
// channel) forward with a fixed pipeline latency, and credits backward.
// Each link has an Information Unit (Figure 3) producing link load and
// fault status for the control unit.
//
// Both directions are fixed-length shift registers sized by the latency —
// a circular array indexed by arrival cycle — so send/receive are array
// writes, never heap traffic. The register has latency+1 stages because a
// flit arriving at cycle t may be consumed only when its receiver steps at
// t, which (routers step in ascending node order) can be after the sender
// has already transmitted cycle t's flit. Credits travel as a per-cycle VC
// bitmask: at most one credit per VC can be issued per cycle (the crossbar
// pops at most one flit per input port), so one bit per VC is exact.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "router/flit.hpp"

namespace flexrouter {

/// Per-link measurement block ("Information Units generate information about
/// the links, like load ... and faults. For instance they could produce and
/// check heartbeat messages.").
class LinkInfoUnit {
 public:
  void record_transfer(Cycle now) {
    ++flits_total_;
    last_transfer_ = now;
  }
  /// Exponentially smoothed load in [0, 1]: fraction of recent cycles busy.
  void tick(Cycle now, bool busy) {
    (void)now;
    load_ = load_ * (1.0 - kAlpha) + (busy ? kAlpha : 0.0);
  }
  double load() const { return load_; }
  std::int64_t flits_total() const { return flits_total_; }
  Cycle last_transfer() const { return last_transfer_; }

 private:
  static constexpr double kAlpha = 1.0 / 64.0;
  double load_ = 0.0;
  std::int64_t flits_total_ = 0;
  Cycle last_transfer_ = -1;
};

class Link {
 public:
  /// Bitmask credit encoding caps the VCs a physical link can multiplex.
  static constexpr int kMaxVcs = 32;

  /// `latency` >= 1 cycles flit transport; credits return with the same
  /// latency.
  Link(int num_vcs, int latency);

  int num_vcs() const { return num_vcs_; }
  int latency() const { return latency_; }

  void send_flit(Cycle now, VcId vc, const Flit& flit) {
    FR_REQUIRE(vc >= 0 && vc < num_vcs_);
    FR_REQUIRE_MSG(!failed_, "flit sent on a failed link");
    if (deferred_) {
      // Shard-boundary staging: park the flit in a slot only the sending
      // shard touches; flush_deferred applies it at the cycle barrier. A
      // send at cycle t is first observable at t+latency >= t+1, so the
      // deferral is invisible to every same-cycle reader.
      FR_REQUIRE_MSG(pending_vc_ < 0,
                     "two flits sent on one link in one cycle");
      pending_vc_ = vc;
      pending_flit_ = flit;
      return;
    }
    FlitStage& s = flits_[stage_index(now + latency_)];
    // One flit per cycle: an occupied stage means either a second send in
    // the same cycle or an earlier flit the receiver never picked up.
    FR_REQUIRE_MSG(s.arrive < 0, "two flits sent on one link in one cycle");
    s.arrive = now + latency_;
    s.vc = vc;
    s.flit = flit;
    note_busy();
    ++flits_in_flight_;
    if (throttle_ > 1) next_free_ = now + throttle_;
    info_.record_transfer(now);
  }

  /// Flit arriving at `now`, if any (at most one per cycle per link).
  std::optional<std::pair<VcId, Flit>> receive_flit(Cycle now) {
    // Idle links answer from the object itself, without touching the
    // stage array: routers poll every port every cycle.
    if (flits_in_flight_ == 0) return std::nullopt;
    FlitStage& s = flits_[stage_index(now)];
    if (s.arrive < 0) return std::nullopt;
    FR_ASSERT_MSG(s.arrive == now, "link delivery missed a cycle");
    s.arrive = -1;
    --flits_in_flight_;
    return std::make_pair(s.vc, s.flit);
  }

  void send_credit(Cycle now, VcId vc) {
    FR_REQUIRE(vc >= 0 && vc < num_vcs_);
    // A failed link swallows credits: the upstream output VC is dead anyway
    // and its counters are rebuilt by Router::flush at reconfiguration.
    if (failed_) return;
    if (deferred_) {
      const std::uint32_t bit = 1u << static_cast<unsigned>(vc);
      FR_ASSERT_MSG((pending_credit_mask_ & bit) == 0,
                    "two credits for one VC in one cycle");
      pending_credit_mask_ |= bit;
      return;
    }
    CreditStage& s = credits_[stage_index(now + latency_)];
    const std::uint32_t bit = 1u << static_cast<unsigned>(vc);
    note_busy();
    if (s.arrive == now + latency_) {
      FR_ASSERT_MSG((s.mask & bit) == 0,
                    "two credits for one VC in one cycle");
      s.mask |= bit;
    } else {
      FR_REQUIRE_MSG(s.arrive < 0, "credit delivery missed a cycle");
      s.arrive = now + latency_;
      s.mask = bit;
    }
    ++credits_in_flight_;
  }

  /// All credits arriving at `now`, one bit per VC (bit v == VC v).
  std::uint32_t receive_credits(Cycle now) {
    if (credits_in_flight_ == 0) return 0;
    CreditStage& s = credits_[stage_index(now)];
    if (s.arrive < 0) return 0;
    FR_ASSERT_MSG(s.arrive == now, "credit delivery missed a cycle");
    const std::uint32_t mask = s.mask;
    credits_in_flight_ -= std::popcount(mask);
    s.arrive = -1;
    s.mask = 0;
    return mask;
  }

  bool idle() const {
    return flits_in_flight_ == 0 && credits_in_flight_ == 0 &&
           pending_vc_ < 0 && pending_credit_mask_ == 0;
  }

  /// Busy-link worklist hook: while a list is registered, the first flit or
  /// credit sent on an unmarked link marks it and appends `id` to `list`,
  /// so the owner never scans idle links to find busy ones. The owner
  /// calls clear_busy_mark() when it drops the link from the list. Sends
  /// on one link come only from its two endpoint routers, so a list shared
  /// by the routers of one shard is written by one thread.
  void watch_busy(std::vector<std::int32_t>* list, std::int32_t id) {
    busy_list_ = list;
    busy_id_ = id;
  }
  void clear_busy_mark() { busy_marked_ = false; }

  /// Shard-boundary mode: sends stage into pending slots instead of the
  /// shift registers until flush_deferred applies them (canonical link
  /// order, at the network's cycle barrier).
  void set_deferred(bool on) { deferred_ = on; }
  bool deferred() const { return deferred_; }

  /// Apply this cycle's staged send/credits. Serial-context only; replays
  /// exactly what the direct send paths would have written at cycle `now`.
  void flush_deferred(Cycle now) {
    if (pending_vc_ >= 0) {
      FlitStage& s = flits_[stage_index(now + latency_)];
      FR_REQUIRE_MSG(s.arrive < 0, "two flits sent on one link in one cycle");
      s.arrive = now + latency_;
      s.vc = pending_vc_;
      s.flit = pending_flit_;
      ++flits_in_flight_;
      if (throttle_ > 1) next_free_ = now + throttle_;
      info_.record_transfer(now);
      pending_vc_ = kInvalidVc;
    }
    if (pending_credit_mask_ != 0) {
      CreditStage& s = credits_[stage_index(now + latency_)];
      FR_REQUIRE_MSG(s.arrive < 0, "credit delivery missed a cycle");
      s.arrive = now + latency_;
      s.mask = pending_credit_mask_;
      credits_in_flight_ += std::popcount(pending_credit_mask_);
      pending_credit_mask_ = 0;
    }
  }

  /// Live fault (assumption v): the channel dies mid-operation. Every flit
  /// in the pipeline is destroyed — appended to `destroyed` so the caller
  /// can poison the owning worms and keep the per-packet flit accounting
  /// exact — and in-flight credits vanish with the wire. Idempotent.
  void fail(std::vector<Flit>& destroyed) {
    if (failed_) return;
    failed_ = true;
    if (pending_vc_ >= 0) {
      destroyed.push_back(pending_flit_);
      pending_vc_ = kInvalidVc;
    }
    pending_credit_mask_ = 0;
    for (FlitStage& s : flits_) {
      if (s.arrive >= 0) destroyed.push_back(s.flit);
      s.arrive = -1;
    }
    flits_in_flight_ = 0;
    for (CreditStage& s : credits_) {
      s.arrive = -1;
      s.mask = 0;
    }
    credits_in_flight_ = 0;
  }

  /// The Information Unit's fault status (Figure 3): both endpoints see a
  /// dead channel immediately, so VC allocation refuses it without waiting
  /// for the control plane's quiescent reconfiguration.
  bool failed() const { return failed_; }

  /// Live repair: the channel hardware rejoins service. The pipeline was
  /// emptied by fail(), so the shift registers are already clean; routing
  /// state re-adopts the channel at the next quiescent reconfiguration.
  void repair() { failed_ = false; }

  /// Fail-slow throttle (assumption i relaxed): a degraded channel still
  /// transmits without destruction but accepts at most one flit per
  /// `factor` cycles. factor == 1 is full speed. Orthogonal to failed() —
  /// the throttle persists across fail/repair, matching hardware whose
  /// degradation is physical (a dropped lane), not protocol state.
  void set_throttle(int factor) {
    FR_REQUIRE(factor >= 1);
    throttle_ = factor;
  }
  int throttle() const { return throttle_; }

  /// Can the sender put a flit on the wire at `now`? Full-speed links
  /// always can (the common path stays branch-predictable and untouched by
  /// the fail-slow feature); a throttled link enforces its duty cycle.
  bool can_accept(Cycle now) const {
    return throttle_ <= 1 || now >= next_free_;
  }

  LinkInfoUnit& info() { return info_; }
  const LinkInfoUnit& info() const { return info_; }

 private:
  struct FlitStage {
    Cycle arrive = -1;
    Flit flit;
    VcId vc = kInvalidVc;
  };
  struct CreditStage {
    Cycle arrive = -1;
    std::uint32_t mask = 0;
  };

  /// Stage count rounded up to a power of two (>= latency+1), so the
  /// cycle-to-stage map is a mask instead of an integer division. Any
  /// latency+1 consecutive cycles still map to distinct stages.
  std::size_t stage_index(Cycle arrival) const {
    return static_cast<std::size_t>(arrival) & stage_mask_;
  }

  void note_busy() {
    if (busy_list_ == nullptr || busy_marked_) return;
    busy_marked_ = true;
    busy_list_->push_back(busy_id_);
  }

  int num_vcs_;
  int latency_;
  std::size_t stage_mask_ = 0;
  std::vector<FlitStage> flits_;      // bit_ceil(latency_+1) stages
  std::vector<CreditStage> credits_;  // bit_ceil(latency_+1) stages
  int flits_in_flight_ = 0;
  int credits_in_flight_ = 0;
  bool failed_ = false;
  int throttle_ = 1;      // flits per `throttle_` cycles; 1 == full speed
  Cycle next_free_ = 0;   // earliest cycle a throttled link accepts again
  /// Shard-boundary staging (set_deferred): written only by the sending
  /// router's shard during the parallel phase, drained at the barrier.
  bool deferred_ = false;
  VcId pending_vc_ = kInvalidVc;
  Flit pending_flit_;
  std::uint32_t pending_credit_mask_ = 0;
  /// watch_busy registration (null: not tracked, e.g. boundary links).
  std::vector<std::int32_t>* busy_list_ = nullptr;
  std::int32_t busy_id_ = -1;
  bool busy_marked_ = false;
  LinkInfoUnit info_;
};

}  // namespace flexrouter
