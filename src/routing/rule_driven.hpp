// Rule-driven routing: executes a routing algorithm written in the rule
// language on the simulated router — the full loop the paper proposes
// (rule compiler -> rule tables -> rule interpreter in the control unit).
//
// Conventions for runnable routing programs:
//  * The decision rule base is named `route` (configurable). Firing it must
//    either RETURN one output (an integer port, or a symbol whose rank in
//    the RETURNS domain is the port index — declare the enum in Compass
//    order {east, west, north, south, local}), or emit one or more
//    `!cand(port, vc, priority)` events.
//  * Inputs are served from a fixed catalog, by name:
//      xpos, ypos, xdes, ydes      mesh coordinates (2-D meshes only)
//      node, dest, src             node ids
//      in_port, in_vc              arrival port / VC (degree = injection)
//      injected                    1 iff the packet was injected here
//      path_len, misrouted         header state
//      link_ok(dirs)               1 iff the local link is usable
//      dest_reachable              1 iff dest reachable from here
//    and, when an escape VC is configured (fault-tolerant programs):
//      escape_ok                   1 iff the escape layer reaches dest
//      escape_port                 the deterministic up*/down* next hop
//      on_escape                   1 iff the packet arrived on the escape VC
//  * Each router node owns an independent register file (one EventManager
//    per node), so stateful programs keep per-node state like real rule
//    bases. All mutable per-decision state (active context, candidate
//    sink, event scratch) lives in a per-node DecisionSlot, so concurrent
//    route() calls on *different* nodes — the sharded network step — never
//    share mutable state. Decisions on one node are never concurrent (a
//    node belongs to exactly one shard).
//
// Execution tiers:
//  * ExecMode::Interpret / Table run the reference interpreter (AST or
//    compiled rule tables) on every decision.
//  * ExecMode::Vm compiles the program to bytecode once (shared by all
//    nodes), serves inputs/candidate events through id-resolved fast paths
//    and runs the VM on every decision. Like Interpret it memoises nothing:
//    it is the reference the table tiers are checked against.
//  * ExecMode::Aot (default) serves decisions from tables. Tier selection
//    walks a ladder at fill time:
//      1. direct   — a flat LUT over the full premise space (node, dest,
//                    in_port, in_vc), when it fits the entry budget: every
//                    point pre-resolved through the VM, so route() is a
//                    strided load plus a candidate copy, bit-identical to
//                    the VM by construction.
//      2. compressed — when a dest-axis classifier applies (see
//                    ruleengine/aot_classify.hpp: xor-fold for e-cube
//                    programs, offset-sign for DOR/NARA-style mesh
//                    programs), the dest axis collapses to O(degree)
//                    classes and the table fits fabrics the direct layout
//                    cannot. Validated point-by-point against the VM during
//                    fill (exhaustive when the uncompressed space fits the
//                    budget, sampled witnesses beyond); any mismatch
//                    demotes to the kernel.
//      3. kernel   — the paper's RBR-kernel (ruleengine/kernel.hpp): the
//                    decision rule base compiled to its feature-axis table
//                    (CompiledRuleBase), whose size depends on the rule base
//                    only — 8192 entries for ft_mesh_rules at any mesh size.
//                    Premise processing evaluates the axes through lowered
//                    integer code over the input catalog, one lookup selects
//                    the rule, and the rule's candidate template is filled
//                    in. It reads every input live (link_ok, escape_* too),
//                    so it is built once per image, not per fault epoch, and
//                    it is read-only, so shards share it. The entry budget
//                    does not apply (the compiler caps the table instead).
//      4. VM       — programs the soundness analysis rejects, and programs
//                    the kernel cannot lower when 1-2 do not fit. The chosen
//                    tier and the reason are recorded on the image and
//                    surfaced through aot_tier_info() (rulelint
//                    --emit-table, flexsim).
//    One soundness analysis gates every tier: every reachable rule base is
//    stateless and reads only inputs determined by the premise point, the
//    topology and the fault set. The direct and compressed tables are
//    refilled for each FaultSet::epoch(). The VM answers, unmemoised, the
//    premise points a table cannot hold (out of range, or stored with
//    steps == 0), kernel decisions whose evaluation would raise (so errors
//    stay the VM's), every decision of a rolling-commit window, and every
//    decision after a machine() poke, which drops the tiers until the next
//    fill (the host may have changed rule registers the tables were filled
//    from).
//
// Hot swap: prepare_swap() parses, compiles and AOT-fills a complete
// pending execution image for a new program while the active image keeps
// serving traffic; commit_swap() installs it atomically between decisions.
// Everything program-scoped lives in the Image; the escape layer, which is
// a property of the host (topology + fault set), survives the swap.
//
// The decision cost (steps) is the number of rule interpretations the
// decision consumed — exactly the unit Section 5 reports. Table hits report
// the steps of the decision they replay and a kernel decision is one
// interpretation, keeping the paper's metric intact.
#pragma once

#include <memory>

#include "common/assert.hpp"
#include "ruleengine/aot.hpp"
#include "ruleengine/aot_classify.hpp"
#include "ruleengine/kernel.hpp"
#include "ruleengine/event_manager.hpp"
#include "routing/routing.hpp"
#include "routing/updown.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {

class RuleDrivenRouting final : public RoutingAlgorithm {
 public:
  /// Default AOT entry budget: the direct LUT or a compressed table must
  /// fit this many entries (the paper's exponential-blow-up discussion
  /// applies to the decision table exactly as to the ARON kernel, whose
  /// own cap is CompileOptions::max_entries). Tests and benches narrow it
  /// with set_aot_budget() to force the compressed / kernel tiers at small
  /// sizes.
  static constexpr std::uint64_t kAotMaxEntries = std::uint64_t{1} << 22;

  /// Which execution tier serves decisions after the last fill. Vm means no
  /// table at all — the reason is recorded in aot_tier_info().reason.
  enum class AotTier : std::uint8_t { Vm, Direct, Compressed, Kernel };
  static const char* tier_name(AotTier t) {
    switch (t) {
      case AotTier::Vm: return "vm";
      case AotTier::Direct: return "direct";
      case AotTier::Compressed: return "compressed";
      case AotTier::Kernel: return "kernel";
    }
    return "?";
  }

  /// Tier-selection report for rulelint --emit-table, flexsim and tests.
  struct AotTierInfo {
    AotTier tier = AotTier::Vm;
    rules::DestClassifier classifier = rules::DestClassifier::None;
    /// Why this tier: the classifier's applicability verdict, the budget
    /// arithmetic, or — for the VM tier — what kept the tables off.
    std::string reason;
    std::uint64_t full_entries = 0;   // uncompressed premise-space size
    /// Entries actually allocated: the table's, or the kernel's.
    std::uint64_t table_entries = 0;
    /// Kernel tier: feature axes and footprint (zero elsewhere).
    std::uint64_t kernel_axes = 0;
    std::uint64_t kernel_bytes = 0;
    /// full_entries / table_entries (1.0 for the direct tier).
    double compression_ratio = 1.0;
    /// Decisions route() handed to the unmemoised VM on the active image:
    /// every decision on the VM tier, the rest's fallbacks.
    std::int64_t vm_decisions = 0;
    /// Counters of the retired lazy memo tier, always zero; kept because
    /// perfbench reports them.
    std::uint64_t lazy_nodes_allocated = 0;
    std::int64_t lazy_hits = 0;
    std::int64_t lazy_misses = 0;
    std::int64_t lazy_evictions = 0;
    std::int64_t lazy_uncacheable = 0;
  };

  /// `escape_vc` >= 0 equips the rule program with a hardware escape layer
  /// (a deterministic up*/down* table rebuilt each diagnosis phase, exposed
  /// through the escape_* inputs) — the Duato construction that makes
  /// rule-programmed fault tolerance deadlock-free.
  RuleDrivenRouting(std::string program_source, int num_vcs,
                    rules::ExecMode mode = rules::ExecMode::Aot,
                    std::string route_base = "route", VcId escape_vc = -1);
  ~RuleDrivenRouting() override;

  std::string name() const override;
  int num_vcs() const override { return vcs_; }
  bool is_escape_vc(VcId vc) const override {
    return escape_vc_ < 0 || vc == escape_vc_;
  }

  void attach(const Topology& topo, const FaultSet& faults) override;
  int reconfigure() override;
  RouteDecision route(const RouteContext& ctx) const override;

  /// The execution image only exists once attached.
  const rules::Program& program() const {
    FR_ASSERT_MSG(img_ != nullptr, "program() before attach()");
    return *img_->program;
  }

  /// Per-node machine access (tests poke state / post events).
  rules::EventManager& machine(NodeId n) const;

  /// True when decisions are being served from an AOT tier (direct or
  /// compressed table, or the kernel; false also after a machine() poke
  /// dropped the tiers pending the next fill).
  bool aot_active() const {
    return aot_view_.entries != nullptr || aot_view_.kernel != nullptr;
  }
  /// Table statistics of the active image (empty stats when no table —
  /// fallback_fraction() reports 1.0 then). For rulelint and benches.
  rules::AotTable::Stats aot_stats() const;
  /// Tier report of the active image: which tier serves decisions, the
  /// classifier verdict, compression ratio and kernel size.
  AotTierInfo aot_tier_info() const;

  /// Narrow (or widen) the AOT entry budget; effective at the next fill
  /// (attach / reconfigure / prepare_swap). Tests force the compressed and
  /// kernel tiers at small fabric sizes this way.
  void set_aot_budget(std::uint64_t entries) { aot_budget_ = entries; }
  std::uint64_t aot_budget() const { return aot_budget_; }

  // --- hot swap -------------------------------------------------------------
  /// Build a complete execution image (parse, validate, compile and — in
  /// Aot mode — fill the decision table) for a new program while the active
  /// image keeps serving traffic. Throws on any error (parse, validation,
  /// unresolvable input), leaving the active image untouched. Requires
  /// attach().
  void prepare_swap(std::string program_source);
  bool swap_prepared() const { return pending_ != nullptr; }
  /// Whether static analysis proved the *prepared* program stateless — the
  /// soundness condition for an immediate (zero-downtime) commit.
  bool swap_target_stateless() const {
    FR_REQUIRE_MSG(pending_ != nullptr, "no swap prepared");
    return pending_->stateless;
  }
  /// Install the prepared image. The caller must guarantee no route() call
  /// is in flight (the simulator commits between cycles or at quiescence).
  void commit_swap();
  void abort_swap() { pending_.reset(); }

  // --- rolling swap commit --------------------------------------------------
  /// Per-shard rolling commit: instead of gating the whole network until
  /// quiescence, the simulator drains one ShardPlan shard at a time and
  /// flips its nodes to the prepared program as each goes quiet. Between
  /// begin and finish, route() serves every decision through the fallback
  /// path (the AOT view is dropped — tables are image-global and cannot
  /// represent a mixed network), picking the pending image for nodes
  /// already committed and the active one for the rest.
  void begin_rolling_commit();
  /// Flip one node to the prepared program (its decisions now come from the
  /// pending image). The caller must guarantee the node is quiet — no
  /// buffered flits, nothing in its injection queue.
  void commit_swap_node(NodeId n);
  /// All nodes flipped: install the pending image wholesale (commit_swap)
  /// and restore the table tiers.
  void finish_rolling_commit();
  bool rolling_commit_active() const { return rolling_; }

 private:
  /// Catalog slot of one declared input, resolved once at attach().
  enum class InCode : std::uint8_t {
    Node, Dest, Src, InPort, InVc, Injected, PathLen, Misrouted,
    LinkOk, DestReachable, OnEscape, EscapeOk, EscapePort,
    XPos, YPos, XDes, YDes,
    Unknown,  // not served by this host configuration: error on read
  };

  /// All mutable state one in-flight decision needs, owned per node: the
  /// VM callback context. route() on node n touches only slots_[n] (plus
  /// the node's machine), which is what makes
  /// concurrent decisions on distinct nodes race-free. The image-scoped
  /// fields the raw callbacks need (input codes and declarations, cand
  /// event id) are flattened in by value / data pointer so a slot never
  /// dereferences its Image — slots stay valid across image moves.
  struct DecisionSlot {
    const RuleDrivenRouting* owner = nullptr;
    const InCode* input_codes = nullptr;       // this image's resolved inputs
    const rules::InputDecl* inputs = nullptr;  // their declarations (names)
    std::int32_t cand_event_id = -1;           // this image's interned "cand"
    const RouteContext* ctx = nullptr;
    RouteDecision* decision = nullptr;
    std::vector<rules::EmittedEvent> scratch;
    rules::EventManager::HostHandlerFast cand_handler;
    /// Decisions route() handed to the VM on this node.
    std::int64_t vm_decisions = 0;
  };

  /// Everything scoped to one rule program: the unit of hot swap. The
  /// active image serves traffic; prepare_swap() builds a pending one on
  /// the side and commit_swap() exchanges the unique_ptrs. Host-scoped
  /// state — topology, fault set, the escape layer — lives outside and
  /// survives the swap.
  struct Image {
    std::string source;
    std::unique_ptr<rules::Program> program;
    std::shared_ptr<const rules::BytecodeProgram> bytecode;
    int route_rb = -1;                // index of the decision rule base
    std::int32_t cand_event_id = -1;  // interned "cand" (VM events)
    std::vector<InCode> input_codes;  // parallel to program->inputs
    /// Analysis verdict: no reachable rule writes registers. Gates the
    /// immediate (zero-downtime) swap policy.
    bool stateless = false;
    /// Stateless and every input read is premise-keyed — the soundness
    /// condition every AOT table tier shares.
    bool tabulable = false;
    std::vector<std::unique_ptr<rules::EventManager>> machines;
    std::vector<DecisionSlot> slots;  // one per node
    // AOT tier ladder (ExecMode::Aot + tabulable only). `aot` holds the
    // direct or compressed table; `kernel` the lowered RBR-kernel, built on
    // first need and kept for the image's lifetime. The chosen tier and why
    // are recorded for aot_tier_info().
    rules::AotTable aot;
    std::uint64_t aot_epoch = ~std::uint64_t{0};
    AotTier tier = AotTier::Vm;
    std::string tier_reason;
    rules::DestClassAnalysis classify;              // syntactic verdict
    rules::DestClassifier classifier_used = rules::DestClassifier::None;
    std::uint64_t full_entries = 0;  // uncompressed premise-space size
    std::unique_ptr<const rules::RuleKernel> kernel;
    std::string kernel_refusal;  // why the kernel could not be built
    bool kernel_active = false;  // false after a machine() poke
  };

  /// Snapshot of the active image's AOT table, flattened into the routing
  /// object: a table hit must not chase img_ -> Image -> vector storage
  /// (two extra dependent cache loads per decision). entries == nullptr
  /// means "no table serving" — absent, over budget, or dropped after a
  /// machine() poke. Refreshed at every point img_ or its table changes.
  struct AotView {
    const rules::AotEntry* entries = nullptr;
    const rules::AotCand* arena = nullptr;
    std::int32_t nodes = 0;
    std::int32_t dests = 0;
    std::int32_t ports = 0;
    std::int32_t vcs = 0;
    std::uint64_t node_stride = 0;
    std::uint64_t dest_stride = 0;
    std::uint64_t epoch = ~std::uint64_t{0};
    /// Compressed tier: how route() derives the dest-axis index. For
    /// XorFold nodes==1 (node axis collapsed; node_stride==0) and
    /// dests==the class count; id_bound carries the real node-id bound the
    /// dims no longer encode. xs/ys point at the host's coordinate arrays
    /// (OffsetSign2D sign computation without a Mesh call).
    rules::DestClassifier classifier = rules::DestClassifier::None;
    std::int32_t id_bound = 0;
    const std::int16_t* xs = nullptr;
    const std::int16_t* ys = nullptr;
    /// Kernel tier (mutually exclusive with entries != nullptr).
    const rules::RuleKernel* kernel = nullptr;
  };

  /// The host input catalog: serve one input as an integer (booleans are
  /// 0/1). `index` is link_ok's direction; other inputs take none. `code`
  /// is never Unknown (callers reject those first, naming the input).
  std::int64_t input_int(InCode code, const RouteContext& ctx,
                         std::int64_t index) const;
  /// Raw VM callbacks for the decision path (ctx = DecisionSlot*). input_raw
  /// wraps input_int; the name-keyed Interpret/Table provider resolves the
  /// name to its input id and calls input_raw too.
  static rules::Value input_raw(void* ctx, std::int32_t input_id,
                                const rules::Value* idx, std::size_t nidx);
  static void event_sink(void* ctx, std::int32_t name_id,
                         std::int32_t target_rb, const rules::Value* args,
                         std::size_t nargs);
  void add_candidate(RouteDecision& d, PortId port, VcId vc, int prio) const;
  std::unique_ptr<Image> build_image(std::string program_source) const;
  /// (Re)fill the image's AOT tier for the current fault epoch; no-op when
  /// the image is not AOT-eligible, its table is already fresh or the
  /// kernel serves it. Walks the tier ladder: direct -> compressed ->
  /// kernel -> VM.
  void fill_aot(Image& im) const;
  /// Fill `im.aot` as a direct LUT over the full premise space.
  void fill_direct(Image& im, const rules::AotTable::Dims& dims) const;
  /// Fill `im.aot` in the compressed layout for `im.classify.kind` and
  /// validate it against the VM. Returns false (leaving the table cleared)
  /// on any validation mismatch — caller demotes to the kernel.
  bool fill_compressed(Image& im, const rules::AotTable::Dims& full) const;
  /// Compile and lower the decision rule base into `im.kernel` unless that
  /// was done (or refused, reason in `im.kernel_refusal`) before. True when
  /// the image has a kernel.
  bool build_kernel(Image& im) const;
  /// Kernel tier: fill `d` (fresh) and return true, or return false when an
  /// evaluation would raise or the premise point is out of range — the
  /// caller then hands the decision to route_fallback().
  bool route_kernel(const RouteContext& ctx, RouteDecision& d) const;
  /// Re-point aot_view_ at the active image's table (null when it has
  /// none). Call after anything that changes img_ or its table.
  void refresh_aot_view() const;
  /// The unmemoised VM/interpreter path, out of line so route()'s AOT hit
  /// keeps NRVO (see the definition). Fills `d` in place.
  void route_fallback(const RouteContext& ctx, RouteDecision& d) const;
  RouteDecision compute_route(Image& im, const RouteContext& ctx) const;

  std::string source_;  // pre-attach program; updated on commit_swap()
  std::string route_base_;
  rules::ExecMode mode_;
  int vcs_;
  VcId escape_vc_;
  UpDownTable escape_;
  const Topology* topo_ = nullptr;
  int degree_ = 0;              // topo_->degree(), cached at attach()
  const Mesh* mesh_ = nullptr;  // non-null on 2-D meshes
  const FaultSet* faults_ = nullptr;
  std::uint64_t aot_budget_ = kAotMaxEntries;
  /// Node coordinates flattened for the OffsetSign2D hot path (2-D meshes
  /// only; empty otherwise). Host-scoped: rebuilt at attach().
  std::vector<std::int16_t> coords_x_;
  std::vector<std::int16_t> coords_y_;
  std::unique_ptr<Image> img_;      // active; null before attach()
  std::unique_ptr<Image> pending_;  // prepared swap target, if any
  /// Rolling-commit window: nodes flagged here route from pending_, the
  /// rest from img_. Only mutated in the simulator's serial swap phase.
  bool rolling_ = false;
  std::vector<char> node_on_pending_;
  /// Mutable: machine() (a const accessor) drops the view when it hands
  /// out mutable rule state. Only mutated in single-threaded phases
  /// (attach / reconfigure / commit / test pokes), never during stepping.
  mutable AotView aot_view_;
};

// Defined in the header so the network step and the benches inline the
// AOT hit: out of line, the loop-invariant view and epoch loads are
// reloaded on every decision behind an opaque call.
inline RouteDecision RuleDrivenRouting::route(const RouteContext& ctx) const {
  // Every return below names this one object — the only shape GCC applies
  // NRVO to. Without it each AOT hit pays a ~600-byte RouteDecision copy
  // into the caller's slot, which costs more than the table lookup itself.
  RouteDecision d;
  const AotView& av = aot_view_;
  const std::int32_t pa = ctx.in_port + 1;  // port axis: -1 collapses to 0
  const std::int32_t va = ctx.in_vc + 1;    // vc axis: likewise
  if (av.entries != nullptr) {
    // A non-null view implies attach() ran, and table freshness implies
    // escape-layer freshness (fill_aot asserts the escape table was
    // rebuilt for the same epoch before filling) — so this one check
    // subsumes the attach/escape preconditions route_fallback() enforces.
    FR_REQUIRE_MSG(av.epoch == faults_->epoch(),
                   "stale AOT table: reconfigure() missed an epoch");
    // The range test doubles as the bounds proof for the raw-indexed
    // lookup (and for the coordinate arrays the sign classifier reads);
    // anything outside the table is a VM premise point.
    if (static_cast<std::uint32_t>(ctx.node) <
            static_cast<std::uint32_t>(av.id_bound) &&
        static_cast<std::uint32_t>(ctx.dest) <
            static_cast<std::uint32_t>(av.id_bound) &&
        static_cast<std::uint32_t>(pa) < static_cast<std::uint32_t>(av.ports) &&
        static_cast<std::uint32_t>(va) < static_cast<std::uint32_t>(av.vcs)) {
      // Dest-axis index: the raw dest id (direct), the xor class (both id
      // axes collapse — node_stride is 0 then), or the 2-D offset-sign
      // class. Node ids < id_bound keep every class in range by
      // construction (xor of two k-bit ids is k-bit; signs yield 0..8).
      std::int32_t dc = ctx.dest;
      std::int32_t node_ax = ctx.node;
      if (av.classifier == rules::DestClassifier::XorFold) {
        dc = ctx.node ^ ctx.dest;
        node_ax = 0;
      } else if (av.classifier == rules::DestClassifier::OffsetSign2D) {
        const std::int32_t dx = av.xs[ctx.dest] - av.xs[ctx.node];
        const std::int32_t dy = av.ys[ctx.dest] - av.ys[ctx.node];
        dc = ((dy > 0) - (dy < 0) + 1) * 3 + ((dx > 0) - (dx < 0) + 1);
      }
      const std::uint64_t flat =
          static_cast<std::uint64_t>(node_ax) * av.node_stride +
          static_cast<std::uint64_t>(dc) * av.dest_stride +
          static_cast<std::uint64_t>(pa) * static_cast<std::uint64_t>(av.vcs) +
          static_cast<std::uint64_t>(va);
      const rules::AotEntry e = av.entries[flat];
      // steps == 0: premise point the fill left to the VM (or marked
      // unreachable — the VM reproduces the throw).
      if (e.steps != 0) {
        if (e.count & rules::AotEntry::kArenaFlag) {
          // Oversized / unpackable candidate set: overflow arena.
          const std::uint32_t n =
              e.count & (rules::AotEntry::kArenaFlag - 1u);
          const rules::AotCand* c = av.arena + e.first;
          RouteCandidate* dst = d.candidates.resize_for_overwrite(n);
          for (std::uint32_t i = 0; i < n; ++i) {
            dst[i].port = c[i].port;
            dst[i].vc = c[i].vc;
            dst[i].priority = c[i].priority;
          }
        } else {
          // Unpack every inline slot unconditionally — branch-free; slots
          // past `count` land in the container's unspecified tail.
          RouteCandidate* dst = d.candidates.resize_for_overwrite(e.count);
          for (std::uint32_t i = 0; i < rules::AotEntry::kInlineCands; ++i) {
            dst[i].port = e.inl[i].port;
            dst[i].vc = e.inl[i].vc;
            dst[i].priority = e.inl[i].priority;
          }
        }
        d.steps = e.steps;
        return d;
      }
    }
  } else if (av.kernel != nullptr) {
    // The kernel fills `d` in place; a decision whose evaluation would
    // raise falls through to the VM, which raises as it always has.
    if (route_kernel(ctx, d)) return d;
  }
  route_fallback(ctx, d);
  return d;
}

}  // namespace flexrouter
