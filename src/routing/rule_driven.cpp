#include "routing/rule_driven.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

using rules::Value;

namespace {

/// Inputs a tabulated decision may depend on: fully determined by the
/// premise point (dest, in_port, in_vc), the node, the topology and the
/// fault epoch. Notably absent: src, path_len, misrouted — they vary per
/// packet without being part of the premise. Every AOT table tier shares
/// this soundness condition.
bool premise_keyed_input(const std::string& name) {
  static const char* safe[] = {
      "dest",       "dest_reachable", "escape_ok", "escape_port",
      "in_port",    "in_vc",          "injected",  "link_ok",
      "node",       "on_escape",      "xdes",      "xpos",
      "ydes",       "ypos",
  };
  return std::find_if(std::begin(safe), std::end(safe), [&](const char* s) {
           return name == s;
         }) != std::end(safe);
}

}  // namespace

RuleDrivenRouting::RuleDrivenRouting(std::string program_source, int num_vcs,
                                     rules::ExecMode mode,
                                     std::string route_base, VcId escape_vc)
    : source_(std::move(program_source)),
      route_base_(std::move(route_base)),
      mode_(mode),
      vcs_(num_vcs),
      escape_vc_(escape_vc) {
  FR_REQUIRE(num_vcs >= 1);
  FR_REQUIRE(escape_vc < num_vcs);
}

RuleDrivenRouting::~RuleDrivenRouting() = default;

int RuleDrivenRouting::reconfigure() {
  int exchanges = 0;
  if (escape_vc_ >= 0) exchanges = escape_.rebuild(*faults_);
  // The direct and compressed tables are functions of the fault epoch
  // (link_ok, dest_reachable, escape_*): refill them during the same
  // quiescent phase that rebuilds the escape layer. Local recomputation —
  // no exchanges. The kernel reads those inputs live and needs nothing.
  if (img_ != nullptr) fill_aot(*img_);
  refresh_aot_view();
  return exchanges;
}

std::string RuleDrivenRouting::name() const {
  return img_ ? "rule:" + img_->program->name : "rule:<unattached>";
}

std::unique_ptr<RuleDrivenRouting::Image> RuleDrivenRouting::build_image(
    std::string program_source) const {
  FR_REQUIRE(topo_ != nullptr);
  auto im = std::make_unique<Image>();
  im->source = std::move(program_source);
  im->program =
      std::make_unique<rules::Program>(rules::parse_program(im->source));
  rules::require_valid(*im->program);  // reject kind errors before compiling
  const rules::RuleBase* route_rb = im->program->find_rule_base(route_base_);
  FR_REQUIRE_MSG(route_rb != nullptr,
                 "rule program lacks the decision rule base '" + route_base_ +
                     "'");
  im->route_rb = static_cast<int>(route_rb - im->program->rule_bases.data());

  // Resolve every declared input against the host catalog once; an input
  // the catalog does not serve (Unknown) errors at read time, naming it.
  const bool is_mesh2d = mesh_ != nullptr && mesh_->dims() == 2;
  im->input_codes.reserve(im->program->inputs.size());
  for (const rules::InputDecl& in : im->program->inputs) {
    InCode code = InCode::Unknown;
    if (in.name == "node") code = InCode::Node;
    else if (in.name == "dest") code = InCode::Dest;
    else if (in.name == "src") code = InCode::Src;
    else if (in.name == "in_port") code = InCode::InPort;
    else if (in.name == "in_vc") code = InCode::InVc;
    else if (in.name == "injected") code = InCode::Injected;
    else if (in.name == "path_len") code = InCode::PathLen;
    else if (in.name == "misrouted") code = InCode::Misrouted;
    else if (in.name == "link_ok") code = InCode::LinkOk;
    else if (in.name == "dest_reachable") code = InCode::DestReachable;
    else if (escape_vc_ >= 0 && in.name == "on_escape") code = InCode::OnEscape;
    else if (escape_vc_ >= 0 && in.name == "escape_ok") code = InCode::EscapeOk;
    else if (escape_vc_ >= 0 && in.name == "escape_port")
      code = InCode::EscapePort;
    else if (is_mesh2d && in.name == "xpos") code = InCode::XPos;
    else if (is_mesh2d && in.name == "ypos") code = InCode::YPos;
    else if (is_mesh2d && in.name == "xdes") code = InCode::XDes;
    else if (is_mesh2d && in.name == "ydes") code = InCode::YDes;
    im->input_codes.push_back(code);
  }

  const bool has_vm =
      mode_ == rules::ExecMode::Vm || mode_ == rules::ExecMode::Aot;
  im->bytecode = has_vm ? rules::compile_bytecode(*im->program) : nullptr;
  im->cand_event_id = im->bytecode ? im->bytecode->event_id("cand") : -1;

  // One DecisionSlot per node, allocated before the machines so the
  // callbacks can capture stable slot pointers. Everything a decision
  // mutates goes through its node's slot — route() calls on distinct
  // nodes (the sharded network step) share nothing mutable.
  im->slots.assign(static_cast<std::size_t>(topo_->num_nodes()),
                   DecisionSlot{});
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    DecisionSlot* slot = &im->slots[static_cast<std::size_t>(n)];
    slot->owner = this;
    slot->input_codes = im->input_codes.data();
    slot->inputs = im->program->inputs.data();
    slot->cand_event_id = im->cand_event_id;
    slot->cand_handler = [slot](const rules::EmittedEvent& ev) {
      const bool is_cand = ev.name_id >= 0
                               ? ev.name_id == slot->cand_event_id
                               : ev.name == "cand";
      if (!is_cand) return;
      // Other events (e.g. state propagation to neighbours) are dropped by
      // this adapter; dedicated tests exercise them through the machines.
      FR_REQUIRE_MSG(ev.args.size() == 3, "!cand needs (port, vc, priority)");
      FR_REQUIRE_MSG(slot->decision != nullptr,
                     "rule program emitted !cand outside a decision");
      slot->owner->add_candidate(*slot->decision,
                                 static_cast<PortId>(ev.args[0].as_int()),
                                 static_cast<VcId>(ev.args[1].as_int()),
                                 static_cast<int>(ev.args[2].as_int()));
    };
    auto em = std::make_unique<rules::EventManager>(
        *im->program, mode_, rules::CompileOptions{}, im->bytecode);
    // The input providers close over the node's slot; the active context is
    // installed there per decision. The name-keyed provider (Interpret and
    // Table modes) resolves the name among the declared inputs and then
    // reads the same catalog as the VM's raw provider.
    const rules::Program* prog = im->program.get();
    em->set_input_provider(
        [slot, prog](const std::string& input, const std::vector<Value>& idx) {
          const rules::InputDecl* decl = prog->find_input(input);
          FR_REQUIRE_MSG(decl != nullptr,
                         "rule program input '" + input + "' is not declared");
          const auto id = static_cast<std::int32_t>(decl - prog->inputs.data());
          return input_raw(slot, id, idx.data(), idx.size());
        });
    em->set_input_provider_raw(&RuleDrivenRouting::input_raw, slot);
    im->machines.push_back(std::move(em));
  }

  // Tabulation (the AOT tiers) is sound only if no reachable rule writes
  // registers and every input read is covered by the premise point + fault
  // epoch.
  const rules::RouteAnalysis analysis =
      rules::analyze_reachable(*im->program, route_base_);
  im->stateless = !analysis.writes_state;
  im->tabulable =
      im->stateless &&
      std::all_of(analysis.inputs_read.begin(), analysis.inputs_read.end(),
                  premise_keyed_input);
  // Dest-axis classification (syntactic; fill_aot applies host gates). The
  // verdict rides on the image so rulelint / flexsim can explain the tier.
  im->classify = rules::classify_dest_axis(*im->program, route_base_);
  return im;
}

void RuleDrivenRouting::attach(const Topology& topo, const FaultSet& faults) {
  topo_ = &topo;
  degree_ = topo.degree();
  mesh_ = dynamic_cast<const Mesh*>(&topo);
  faults_ = &faults;
  // Flattened coordinates for the offset-sign classifier's hot path (one
  // int16 load per axis instead of a divmod through the Mesh interface).
  coords_x_.clear();
  coords_y_.clear();
  if (mesh_ != nullptr && mesh_->dims() == 2) {
    const NodeId n_nodes = topo.num_nodes();
    coords_x_.resize(static_cast<std::size_t>(n_nodes));
    coords_y_.resize(static_cast<std::size_t>(n_nodes));
    for (NodeId n = 0; n < n_nodes; ++n) {
      coords_x_[static_cast<std::size_t>(n)] =
          static_cast<std::int16_t>(mesh_->x_of(n));
      coords_y_[static_cast<std::size_t>(n)] =
          static_cast<std::int16_t>(mesh_->y_of(n));
    }
  }
  if (escape_vc_ >= 0) escape_.rebuild(faults);
  pending_.reset();
  rolling_ = false;
  node_on_pending_.clear();
  img_ = build_image(source_);
  fill_aot(*img_);
  refresh_aot_view();
}

void RuleDrivenRouting::fill_aot(Image& im) const {
  if (mode_ != rules::ExecMode::Aot || !im.tabulable) {
    // Record why the VM tier stayed — this used to be silent, which made a
    // kept-alive VM indistinguishable from a deliberate one in rulelint
    // --emit-table and flexsim output.
    im.tier = AotTier::Vm;
    if (mode_ != rules::ExecMode::Aot)
      im.tier_reason = "exec mode is not Aot";
    else if (!im.stateless)
      im.tier_reason = "program writes rule state";
    else
      im.tier_reason = "reads inputs outside the premise point";
    return;
  }
  const rules::AotTable::Dims full{
      topo_->num_nodes(), topo_->num_nodes(),
      topo_->degree() + 2,  // in_port in -1 .. degree (degree = injection)
      vcs_ + 1,             // in_vc in -1 .. vcs-1
  };
  im.full_entries = full.entry_count();
  const std::uint64_t epoch = faults_->epoch();
  const bool table_fresh = !im.aot.empty() && im.aot_epoch == epoch;
  const bool kernel_serving = im.tier == AotTier::Kernel && im.kernel_active;
  if (table_fresh || kernel_serving) return;  // already fresh
  FR_ASSERT_MSG(escape_vc_ < 0 || escape_.built_for_epoch() == epoch,
                "AOT fill needs the escape table rebuilt first");

  // Tier ladder: direct -> compressed -> kernel -> VM.
  im.kernel_active = false;
  if (rules::AotTable::within_budget(full, aot_budget_)) {
    fill_direct(im, full);
    im.aot_epoch = epoch;
    im.tier = AotTier::Direct;
    im.classifier_used = rules::DestClassifier::None;
    im.tier_reason = "full premise space (" + std::to_string(im.full_entries) +
                     " entries) fits the budget";
    return;
  }
  if (im.classify.kind != rules::DestClassifier::None) {
    if (fill_compressed(im, full)) {
      im.aot_epoch = epoch;
      im.tier = AotTier::Compressed;
      im.classifier_used = im.classify.kind;
      return;  // fill_compressed recorded the classifier verdict as reason
    }
    // fill_compressed left its demotion reason in tier_reason; fall through.
  } else {
    im.tier_reason = im.classify.reason;
  }
  im.aot.clear();
  im.classifier_used = rules::DestClassifier::None;
  const std::string over = "full premise space (" +
                           std::to_string(im.full_entries) +
                           " entries) over budget (" +
                           std::to_string(aot_budget_) + "); " + im.tier_reason;
  if (build_kernel(im)) {
    im.tier = AotTier::Kernel;
    im.kernel_active = true;
    im.tier_reason = over + "; kernel: " +
                     std::to_string(im.kernel->entries()) + " entries over " +
                     std::to_string(im.kernel->num_axes()) + " feature axes";
    return;
  }
  im.tier = AotTier::Vm;
  im.tier_reason = over + "; no kernel: " + im.kernel_refusal;
}

void RuleDrivenRouting::fill_direct(Image& im,
                                    const rules::AotTable::Dims& dims) const {
  // Evaluate the decision once per premise point through the very engine
  // the fallback path uses — the table is bit-identical to the VM by
  // construction. Nearly every entry packs its candidates inline; the
  // arena only holds the rare oversized sets, so a token reservation
  // suffices.
  im.aot.reset(dims, 256);
  RouteContext ctx;
  ctx.path_len = 0;
  ctx.misrouted = false;
  rules::AotCand buf[kMaxCandidates];
  for (NodeId node = 0; node < dims.nodes; ++node) {
    ctx.node = node;
    ctx.src = node;
    for (NodeId dest = 0; dest < dims.dests; ++dest) {
      ctx.dest = dest;
      for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
        ctx.in_port = pa - 1;
        for (std::int32_t va = 0; va < dims.vcs; ++va) {
          ctx.in_vc = va - 1;
          const std::uint64_t flat = im.aot.flat_index(node, dest, pa, va);
          try {
            const RouteDecision d = compute_route(im, ctx);
            // steps == 0 is the fallback encoding and > 16 bits cannot be
            // stored; header-modifying decisions (none of the adapter's
            // today) are not representable either — all stay on the VM.
            if (d.steps < 1 || d.steps > 0xffff || d.mark_misrouted) continue;
            for (std::size_t i = 0; i < d.candidates.size(); ++i)
              buf[i] = {d.candidates[i].port, d.candidates[i].vc,
                        d.candidates[i].priority};
            im.aot.set_entry(flat, d.steps, buf, d.candidates.size());
          } catch (const std::exception& e) {
            // The exhaustive walk visits premise points no packet can
            // dynamically present — e.g. arrival through a nonexistent
            // boundary link, an escape-VC arrival whose up*/down* phase
            // has no legal move (ContractViolation), or a collapsed-axis
            // value like in_port = -1 outside a declared input domain
            // (EvalError). The engine throws on them exactly as the VM
            // would at runtime; record the point as unreachable and let
            // the fallback reproduce the throw should one ever
            // materialize. Anything else is a build bug: rethrow.
            if (dynamic_cast<const ContractViolation*>(&e) == nullptr &&
                dynamic_cast<const rules::EvalError*>(&e) == nullptr)
              throw;
            DecisionSlot& slot = im.slots[static_cast<std::size_t>(node)];
            slot.ctx = nullptr;
            slot.decision = nullptr;
            slot.scratch.clear();
            im.aot.mark_unreachable(flat);
          }
        }
      }
    }
  }
}

bool RuleDrivenRouting::fill_compressed(
    Image& im, const rules::AotTable::Dims& full) const {
  const NodeId n_nodes = topo_->num_nodes();
  const rules::DestClassifier kind = im.classify.kind;
  rules::AotTable::Dims dims;
  if (kind == rules::DestClassifier::XorFold) {
    // Both id axes collapse to one xor-class axis. bit_ceil keeps every
    // node ^ dest in range when the node count is not a power of two.
    dims = {1,
            static_cast<std::int32_t>(
                std::bit_ceil(static_cast<std::uint32_t>(n_nodes))),
            full.ports, full.vcs};
  } else {
    if (mesh_ == nullptr || mesh_->dims() != 2) {
      im.tier_reason = "offset-sign classifier needs a 2-D mesh host";
      return false;
    }
    dims = {n_nodes, 9, full.ports, full.vcs};
  }
  if (!rules::AotTable::within_budget(dims, aot_budget_)) {
    im.tier_reason = "compressed table (" +
                     std::to_string(dims.entry_count()) +
                     " entries) still over budget";
    return false;
  }

  im.aot.reset(dims, 256);
  RouteContext ctx;
  ctx.path_len = 0;
  ctx.misrouted = false;
  rules::AotCand buf[kMaxCandidates];

  // Reset the VM callback slot after a fill-time throw (same contract as
  // the direct fill: ContractViolation / EvalError mark the point
  // unreachable; anything else is a build bug).
  auto absorb_throw = [&](const std::exception& e, NodeId node) {
    if (dynamic_cast<const ContractViolation*>(&e) == nullptr &&
        dynamic_cast<const rules::EvalError*>(&e) == nullptr)
      throw;  // NOLINT(cert-err60-cpp) — rethrow of the active exception
    DecisionSlot& slot = im.slots[static_cast<std::size_t>(node)];
    slot.ctx = nullptr;
    slot.decision = nullptr;
    slot.scratch.clear();
  };

  // Fill one class row from its representative (node, dest) member.
  auto eval_into = [&](std::uint64_t flat, NodeId node, NodeId dest) {
    ctx.node = node;
    ctx.src = node;
    ctx.dest = dest;
    try {
      const RouteDecision d = compute_route(im, ctx);
      if (d.steps < 1 || d.steps > 0xffff || d.mark_misrouted) return;
      for (std::size_t i = 0; i < d.candidates.size(); ++i)
        buf[i] = {d.candidates[i].port, d.candidates[i].vc,
                  d.candidates[i].priority};
      im.aot.set_entry(flat, d.steps, buf, d.candidates.size());
    } catch (const std::exception& e) {
      absorb_throw(e, node);
      im.aot.mark_unreachable(flat);
    }
  };

  if (kind == rules::DestClassifier::XorFold) {
    for (std::int32_t c = 0; c < dims.dests; ++c) {
      // Any (n, n ^ c) pair is a member of class c; classes with no member
      // under the id bound (non-power-of-two fabrics) are unpresentable.
      NodeId rep = -1;
      for (NodeId n = 0; n < n_nodes; ++n)
        if ((n ^ c) < n_nodes) {
          rep = n;
          break;
        }
      for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
        ctx.in_port = pa - 1;
        for (std::int32_t va = 0; va < dims.vcs; ++va) {
          ctx.in_vc = va - 1;
          const std::uint64_t flat = im.aot.flat_index(0, c, pa, va);
          if (rep < 0)
            im.aot.mark_unreachable(flat);
          else
            eval_into(flat, rep, rep ^ c);
        }
      }
    }
  } else {
    const int w = mesh_->radix(0);
    const int h = mesh_->radix(1);
    for (NodeId node = 0; node < n_nodes; ++node) {
      const int x = mesh_->x_of(node);
      const int y = mesh_->y_of(node);
      for (std::int32_t cls = 0; cls < 9; ++cls) {
        const int sx = cls % 3 - 1;
        const int sy = cls / 3 - 1;
        // The nearest dest with these offset signs; a sign pair pointing
        // off the mesh edge has no member at all.
        const int dx = x + sx;
        const int dy = y + sy;
        const bool presentable = dx >= 0 && dx < w && dy >= 0 && dy < h;
        for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
          ctx.in_port = pa - 1;
          for (std::int32_t va = 0; va < dims.vcs; ++va) {
            ctx.in_vc = va - 1;
            const std::uint64_t flat = im.aot.flat_index(node, cls, pa, va);
            if (!presentable)
              im.aot.mark_unreachable(flat);
            else
              eval_into(flat, node, mesh_->at(dx, dy));
          }
        }
      }
    }
  }

  // Validate against the VM: the classifier proof says every member of a
  // class row decides like the representative; a proof bug must demote, not
  // mis-route. Only resolved rows need checking — unresolved rows fall back
  // to the VM per decision and are correct by construction. Exhaustive when
  // the uncompressed walk is small (the forced-compression test sizes);
  // sampled member witnesses per row beyond that.
  std::vector<rules::AotCand> dec_cands;
  auto matches = [&](std::uint64_t flat, NodeId node, NodeId dest,
                     std::int32_t pa, std::int32_t va) {
    int steps = 0;
    if (!im.aot.decode(flat, steps, dec_cands)) return true;
    ctx.node = node;
    ctx.src = node;
    ctx.dest = dest;
    ctx.in_port = pa - 1;
    ctx.in_vc = va - 1;
    try {
      const RouteDecision d = compute_route(im, ctx);
      if (d.steps != steps || d.mark_misrouted ||
          d.candidates.size() != dec_cands.size())
        return false;
      for (std::size_t i = 0; i < dec_cands.size(); ++i)
        if (d.candidates[i].port != dec_cands[i].port ||
            d.candidates[i].vc != dec_cands[i].vc ||
            d.candidates[i].priority != dec_cands[i].priority)
          return false;
      return true;
    } catch (const std::exception& e) {
      absorb_throw(e, node);
      return false;  // a member throws where the row stored a decision
    }
  };
  auto flat_of = [&](NodeId node, NodeId dest, std::int32_t pa,
                     std::int32_t va) {
    if (kind == rules::DestClassifier::XorFold)
      return im.aot.flat_index(0, node ^ dest, pa, va);
    const int ddx = mesh_->x_of(dest) - mesh_->x_of(node);
    const int ddy = mesh_->y_of(dest) - mesh_->y_of(node);
    const std::int32_t cls =
        ((ddy > 0) - (ddy < 0) + 1) * 3 + ((ddx > 0) - (ddx < 0) + 1);
    return im.aot.flat_index(node, cls, pa, va);
  };
  auto validate = [&]() {
    if (full.entry_count() <= kAotMaxEntries) {
      for (NodeId node = 0; node < n_nodes; ++node)
        for (NodeId dest = 0; dest < n_nodes; ++dest)
          for (std::int32_t pa = 0; pa < full.ports; ++pa)
            for (std::int32_t va = 0; va < full.vcs; ++va)
              if (!matches(flat_of(node, dest, pa, va), node, dest, pa, va))
                return false;
      return true;
    }
    // Sampled: up to two distinct members per class row, every (pa, va).
    if (kind == rules::DestClassifier::XorFold) {
      for (std::int32_t c = 0; c < dims.dests; ++c) {
        int picked = 0;
        for (NodeId n = 0; n < n_nodes && picked < 2; ++n) {
          if ((n ^ c) >= n_nodes) continue;
          ++picked;
          for (std::int32_t pa = 0; pa < dims.ports; ++pa)
            for (std::int32_t va = 0; va < dims.vcs; ++va)
              if (!matches(im.aot.flat_index(0, c, pa, va), n, n ^ c, pa, va))
                return false;
        }
      }
      return true;
    }
    const int w = mesh_->radix(0);
    const int h = mesh_->radix(1);
    for (NodeId node = 0; node < n_nodes; ++node) {
      const int x = mesh_->x_of(node);
      const int y = mesh_->y_of(node);
      for (std::int32_t cls = 0; cls < 9; ++cls) {
        const int sx = cls % 3 - 1;
        const int sy = cls / 3 - 1;
        if (x + sx < 0 || x + sx >= w || y + sy < 0 || y + sy >= h) continue;
        // Witness 1: the nearest member (the fill's representative).
        // Witness 2: two steps out along each nonzero axis where the mesh
        // allows — a member the fill never evaluated.
        const NodeId w1 = mesh_->at(x + sx, y + sy);
        const int x2 = sx == 0 || x + 2 * sx < 0 || x + 2 * sx >= w
                           ? x + sx
                           : x + 2 * sx;
        const int y2 = sy == 0 || y + 2 * sy < 0 || y + 2 * sy >= h
                           ? y + sy
                           : y + 2 * sy;
        const NodeId w2 = mesh_->at(sx == 0 ? x : x2, sy == 0 ? y : y2);
        for (std::int32_t pa = 0; pa < dims.ports; ++pa)
          for (std::int32_t va = 0; va < dims.vcs; ++va) {
            const std::uint64_t flat = im.aot.flat_index(node, cls, pa, va);
            if (!matches(flat, node, w1, pa, va)) return false;
            if (w2 != w1 && !matches(flat, node, w2, pa, va)) return false;
          }
      }
    }
    return true;
  };
  if (!validate()) {
    im.aot.clear();
    im.tier_reason = "compressed layout failed VM validation (" +
                     std::string(rules::to_string(kind)) + "); demoted";
    return false;
  }
  im.tier_reason = im.classify.reason;
  return true;
}

bool RuleDrivenRouting::build_kernel(Image& im) const {
  if (im.kernel != nullptr) return true;
  if (!im.kernel_refusal.empty()) return false;
  // The kernel serves a declared input only in the form the catalog reads
  // it: link_ok with its one direction index, the rest unindexed. The value
  // ranges hold for the premise points route_kernel() accepts.
  const std::int64_t n_max = topo_->num_nodes() - 1;
  const std::int64_t degree = topo_->degree();
  const auto resolve = [&](std::int32_t id) {
    const auto i = static_cast<std::size_t>(id);
    const InCode code = im.input_codes[i];
    rules::RuleKernel::HostInput h;
    const std::size_t nidx = im.program->inputs[i].index_domains.size();
    if (code == InCode::Unknown || nidx != (code == InCode::LinkOk ? 1u : 0u))
      return h;
    h.code = static_cast<std::int32_t>(code);
    h.hi = 1;  // the booleans
    switch (code) {
      case InCode::Node:
      case InCode::Dest: h.hi = n_max; break;
      case InCode::InPort: h.lo = -1; h.hi = degree; break;
      case InCode::InVc: h.hi = vcs_ - 1; break;
      case InCode::Src:  // header fields route_kernel() does not range-check
      case InCode::PathLen:
        h.lo = std::numeric_limits<std::int64_t>::min();
        h.hi = std::numeric_limits<std::int64_t>::max();
        break;
      case InCode::EscapePort:
        h.hi = degree;
        h.may_throw = true;  // first_hop has no legal hop in some phases
        h.costly = true;
        break;
      // Reads of the escape layer's distance table (a likely cache miss)
      // and a graph search: worth deferring.
      case InCode::EscapeOk:
      case InCode::DestReachable: h.costly = true; break;
      case InCode::XPos:
      case InCode::XDes: h.hi = mesh_->radix(0) - 1; break;
      case InCode::YPos:
      case InCode::YDes: h.hi = mesh_->radix(1) - 1; break;
      default: break;
    }
    return h;
  };
  try {
    rules::Interpreter interp(*im.program);
    const rules::CompiledRuleBase compiled = rules::compile_rule_base(
        *im.program,
        im.program->rule_bases[static_cast<std::size_t>(im.route_rb)], interp);
    im.kernel = rules::RuleKernel::lower(*im.program, compiled, resolve,
                                         im.kernel_refusal);
  } catch (const std::exception& e) {
    // The compiler rejects rule bases over its table cap or with premises
    // its feature axes cannot cover; the VM serves those.
    im.kernel_refusal = e.what();
  }
  return im.kernel != nullptr;
}

bool RuleDrivenRouting::route_kernel(const RouteContext& ctx,
                                     RouteDecision& d) const {
  const AotView& av = aot_view_;
  // The premise space the kernel's input ranges were derived for (the
  // catalog also indexes per-node arrays); anything else is the VM's.
  if (static_cast<std::uint32_t>(ctx.node) >=
          static_cast<std::uint32_t>(av.id_bound) ||
      static_cast<std::uint32_t>(ctx.dest) >=
          static_cast<std::uint32_t>(av.id_bound) ||
      static_cast<std::uint32_t>(ctx.in_port + 1) >=
          static_cast<std::uint32_t>(av.ports) ||
      static_cast<std::uint32_t>(ctx.in_vc + 1) >=
          static_cast<std::uint32_t>(av.vcs))
    return false;
  FR_REQUIRE_MSG(escape_vc_ < 0 ||
                     escape_.built_for_epoch() == faults_->epoch(),
                 "stale escape table: reconfigure() missed an epoch");
  const rules::RuleKernel& k = *av.kernel;
  const auto read = [this, &ctx](std::int32_t host, std::int64_t index) {
    return input_int(static_cast<InCode>(host), ctx, index);
  };
  std::int64_t r[rules::RuleKernel::kMaxRegs];
  int rule;
  try {
    // Premise processing reads every axis, including ones the VM's
    // short-circuit would skip; a catalog read that raises (escape_port
    // with no legal hop) is the VM's to raise or not.
    rule = k.select(r, read);
    if (rule >= 0 && !k.conclude(rule, r, read)) return false;
  } catch (const ContractViolation&) {
    return false;
  }
  if (rule == rules::RuleKernel::kRaise) return false;
  if (rule < 0) return true;  // no rule applies: no candidates, one step
  // Conclusion processing: fill the candidate template. The range checks
  // are add_candidate's; a violation is the VM's to raise.
  const PortId degree = degree_;
  const rules::KernelConclusion& c = k.conclusion(rule);
  for (std::uint32_t i = c.cand_begin; i < c.cand_end; ++i) {
    const rules::KernelCand& kc = k.cands()[i];
    const auto port = static_cast<PortId>(kc.port.value(r));
    const auto vc = static_cast<VcId>(kc.vc.value(r));
    if (port < 0 || port > degree || vc < 0 || vc >= vcs_ ||
        d.candidates.size() == kMaxCandidates)
      return false;
    d.candidates.push_back({port, vc, static_cast<int>(kc.priority.value(r))});
  }
  if (c.returns) {
    const std::int64_t v = c.ret.value(r);
    if (c.ret_checked && (v < c.ret_lo || v > c.ret_hi)) return false;
    // A RETURNed port means "any VC of that port".
    const auto port = static_cast<PortId>(v);
    const std::size_t n = port == degree ? 1 : static_cast<std::size_t>(vcs_);
    if (port < 0 || port > degree ||
        d.candidates.size() + n > kMaxCandidates)
      return false;
    for (std::size_t v2 = 0; v2 < n; ++v2)
      d.candidates.push_back({port, static_cast<VcId>(v2), 0});
  }
  return true;
}

void RuleDrivenRouting::refresh_aot_view() const {
  aot_view_ = AotView{};
  // During a rolling commit the network runs a mix of two programs; the
  // tables are image-global, so every decision goes through the fallback
  // path until finish_rolling_commit() restores the view.
  if (img_ == nullptr || rolling_) return;
  Image& im = *img_;
  if (!im.aot.empty()) {
    const rules::AotTable& t = im.aot;
    aot_view_.entries = t.entries_raw();
    aot_view_.arena = t.arena_raw();
    aot_view_.nodes = t.dims().nodes;
    aot_view_.dests = t.dims().dests;
    aot_view_.ports = t.dims().ports;
    aot_view_.vcs = t.dims().vcs;
    aot_view_.node_stride = t.node_stride();
    aot_view_.dest_stride = t.dest_stride();
    aot_view_.epoch = im.aot_epoch;
    aot_view_.classifier = im.classifier_used;
    aot_view_.id_bound = topo_->num_nodes();
    aot_view_.xs = coords_x_.empty() ? nullptr : coords_x_.data();
    aot_view_.ys = coords_y_.empty() ? nullptr : coords_y_.data();
  } else if (im.kernel_active) {
    aot_view_.kernel = im.kernel.get();
    aot_view_.id_bound = topo_->num_nodes();
    aot_view_.ports = topo_->degree() + 2;  // the table axes' extents
    aot_view_.vcs = vcs_ + 1;
  }
}

void RuleDrivenRouting::prepare_swap(std::string program_source) {
  FR_REQUIRE_MSG(img_ != nullptr, "prepare_swap() before attach()");
  // Build the whole pending image off the critical path. Any failure —
  // parse error, missing rule base, unresolvable input — throws here and
  // leaves the active image serving traffic. (Premise points the engine
  // throws on during the AOT fill are recorded as unreachable, not errors:
  // the exhaustive walk visits combinations real traffic cannot present.)
  std::unique_ptr<Image> im = build_image(std::move(program_source));
  fill_aot(*im);
  pending_ = std::move(im);
}

void RuleDrivenRouting::commit_swap() {
  FR_REQUIRE_MSG(pending_ != nullptr, "commit_swap() without prepare_swap()");
  // A fault epoch may have slipped in between prepare and commit; refill
  // so the installed table is fresh (no-op when it already is).
  fill_aot(*pending_);
  source_ = pending_->source;
  img_ = std::move(pending_);
  refresh_aot_view();
}

void RuleDrivenRouting::begin_rolling_commit() {
  FR_REQUIRE_MSG(pending_ != nullptr,
                 "begin_rolling_commit() without prepare_swap()");
  FR_REQUIRE_MSG(!rolling_, "rolling commit already active");
  rolling_ = true;
  node_on_pending_.assign(static_cast<std::size_t>(topo_->num_nodes()), 0);
  refresh_aot_view();  // drops the tables for the mixed-network window
}

void RuleDrivenRouting::commit_swap_node(NodeId n) {
  FR_REQUIRE_MSG(rolling_, "commit_swap_node() outside a rolling commit");
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(n));
  node_on_pending_[static_cast<std::size_t>(n)] = 1;
}

void RuleDrivenRouting::finish_rolling_commit() {
  FR_REQUIRE_MSG(rolling_, "finish_rolling_commit() outside a rolling commit");
  rolling_ = false;
  node_on_pending_.clear();
  // commit_swap() refills for any epoch that slipped mid-roll, installs
  // the pending image wholesale and restores the table view.
  commit_swap();
}

rules::EventManager& RuleDrivenRouting::machine(NodeId n) const {
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(n));
  // Handing out a machine lets the caller mutate rule state behind the
  // table's back (the AOT path deliberately carries no per-decision check).
  // Drop the table conservatively: the VM answers every decision until the
  // next fill (reconfigure or swap) rebuilds it from the current registers.
  if (img_ != nullptr && (!img_->aot.empty() || img_->kernel_active)) {
    img_->aot.clear();
    img_->kernel_active = false;
    refresh_aot_view();
  }
  return *img_->machines[static_cast<std::size_t>(n)];
}

rules::AotTable::Stats RuleDrivenRouting::aot_stats() const {
  return img_ != nullptr ? img_->aot.stats() : rules::AotTable::Stats{};
}

RuleDrivenRouting::AotTierInfo RuleDrivenRouting::aot_tier_info() const {
  AotTierInfo info;
  if (img_ == nullptr) {
    info.reason = "not attached";
    return info;
  }
  const Image& im = *img_;
  info.tier = im.tier;
  info.classifier = im.classifier_used;
  info.reason = im.tier_reason;
  info.full_entries = im.full_entries;
  for (const DecisionSlot& slot : im.slots)
    info.vm_decisions += slot.vm_decisions;
  switch (im.tier) {
    case AotTier::Direct:
    case AotTier::Compressed:
      info.table_entries = im.aot.dims().entry_count();
      break;
    case AotTier::Kernel:
      info.table_entries = im.kernel->entries();
      info.kernel_axes = im.kernel->num_axes();
      info.kernel_bytes = im.kernel->bytes();
      break;
    case AotTier::Vm:
      break;
  }
  if (info.table_entries > 0)
    info.compression_ratio = static_cast<double>(info.full_entries) /
                             static_cast<double>(info.table_entries);
  return info;
}

// Inlined into both callers: the kernel reads several inputs per decision.
[[gnu::always_inline]] inline std::int64_t RuleDrivenRouting::input_int(
    InCode code, const RouteContext& ctx, std::int64_t index) const {
  switch (code) {
    case InCode::Node: return ctx.node;
    case InCode::Dest: return ctx.dest;
    case InCode::Src: return ctx.src;
    case InCode::InPort: return ctx.in_port;
    case InCode::InVc: return std::max<VcId>(ctx.in_vc, 0);
    case InCode::Injected:
      return ctx.in_port < 0 || ctx.in_port >= degree_;
    case InCode::PathLen: return ctx.path_len;
    case InCode::Misrouted: return ctx.misrouted;
    case InCode::LinkOk: {
      const auto p = static_cast<PortId>(index);
      if (p < 0 || p >= degree_) return 0;
      return faults_->link_usable(ctx.node, p);
    }
    case InCode::DestReachable: return connected(*faults_, ctx.node, ctx.dest);
    case InCode::OnEscape:
      return ctx.in_vc == escape_vc_ && ctx.in_port >= 0 &&
             ctx.in_port < degree_;
    case InCode::EscapeOk: return escape_.reachable(ctx.node, ctx.dest);
    case InCode::EscapePort: {
      // Deterministic escape hop; the injection port signals "none".
      if (ctx.dest == ctx.node || !escape_.reachable(ctx.node, ctx.dest))
        return degree_;
      const bool on_escape = ctx.in_vc == escape_vc_ && ctx.in_port >= 0 &&
                             ctx.in_port < degree_;
      const UpDownTable::Phase phase =
          on_escape ? escape_.arrival_phase(ctx.node, ctx.in_port)
                    : UpDownTable::Phase::Up;
      return escape_.first_hop(ctx.node, ctx.dest, phase);
    }
    // Callers have checked ctx.node; dest is checked here.
    case InCode::XPos: return coords_x_[static_cast<std::size_t>(ctx.node)];
    case InCode::YPos: return coords_y_[static_cast<std::size_t>(ctx.node)];
    case InCode::XDes:
    case InCode::YDes: {
      const auto dst = static_cast<std::size_t>(ctx.dest);
      FR_REQUIRE_MSG(dst < coords_x_.size(), "dest outside the mesh");
      return (code == InCode::XDes ? coords_x_ : coords_y_)[dst];
    }
    case InCode::Unknown: break;
  }
  FR_UNREACHABLE("input outside the host catalog");
}

Value RuleDrivenRouting::input_raw(void* ctx, std::int32_t input_id,
                                   const Value* idx, std::size_t nidx) {
  const auto* slot = static_cast<const DecisionSlot*>(ctx);
  FR_REQUIRE_MSG(slot->ctx != nullptr,
                 "rule program read an input outside a decision");
  const auto i = static_cast<std::size_t>(input_id);
  const InCode code = slot->input_codes[i];
  FR_REQUIRE_MSG(code != InCode::Unknown, "rule program input '" +
                                              slot->inputs[i].name +
                                              "' is not in the host catalog");
  std::int64_t index = 0;
  if (code == InCode::LinkOk) {
    FR_REQUIRE_MSG(nidx == 1, "link_ok takes one direction index");
    index = idx[0].as_int();
  }
  return Value::make_int(slot->owner->input_int(code, *slot->ctx, index));
}

void RuleDrivenRouting::event_sink(void* ctx, std::int32_t name_id,
                                   std::int32_t target_rb, const Value* args,
                                   std::size_t nargs) {
  auto* slot = static_cast<DecisionSlot*>(ctx);
  if (target_rb >= 0) {
    // Rule-bound event: queue for the cascade loop in compute_route. The
    // args must outlive this call, so they are the one copy on this path.
    rules::EmittedEvent& ev = slot->scratch.emplace_back();
    ev.name_id = name_id;
    ev.target_rb = target_rb;
    ev.args.assign(args, args + nargs);
    return;
  }
  // Host-bound events other than !cand are dropped by this adapter (state
  // propagation to neighbours etc. is exercised through the machines).
  if (name_id != slot->cand_event_id) return;
  FR_REQUIRE_MSG(nargs == 3, "!cand needs (port, vc, priority)");
  FR_REQUIRE_MSG(slot->decision != nullptr,
                 "rule program emitted !cand outside a decision");
  slot->owner->add_candidate(*slot->decision,
                             static_cast<PortId>(args[0].as_int()),
                             static_cast<VcId>(args[1].as_int()),
                             static_cast<int>(args[2].as_int()));
}

void RuleDrivenRouting::add_candidate(RouteDecision& d, PortId port, VcId vc,
                                      int prio) const {
  FR_REQUIRE_MSG(port >= 0 && port <= topo_->degree(),
                 "rule program produced an invalid port");
  FR_REQUIRE_MSG(vc >= 0 && vc < vcs_,
                 "rule program produced an invalid VC");
  d.candidates.push_back({port, vc, prio});
}

RouteDecision RuleDrivenRouting::compute_route(Image& im,
                                               const RouteContext& ctx) const {
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(ctx.node));
  rules::EventManager& em = *im.machines[static_cast<std::size_t>(ctx.node)];
  DecisionSlot& slot = im.slots[static_cast<std::size_t>(ctx.node)];
  slot.ctx = &ctx;

  RouteDecision d;
  slot.decision = &d;

  int steps;
  std::optional<rules::Value> returned;
  if (mode_ == rules::ExecMode::Vm || mode_ == rules::ExecMode::Aot) {
    // Direct VM path: fire the decision rule base and run the event cascade
    // inline — no queue, no handler reinstall, no name dispatch. Events
    // bound to a rule base re-fire (and count as steps, exactly like
    // drain()); host-bound events go through the candidate adapter.
    rules::Vm& vm = *em.vm();
    if (!em.queue_empty()) em.drain();  // host-posted backlog first
    // Host-bound events feed the candidate adapter straight from the
    // register file (event_sink, zero materialization); rule-bound events
    // are queued and re-fired below. Handler order equals drain()'s FIFO:
    // fires happen in the same order either way, and within one fire the
    // sink sees emissions in program order.
    std::vector<rules::EmittedEvent>& work = slot.scratch;
    work.clear();
    void* const sink_ctx = &slot;
    returned = vm.fire_fast(im.route_rb, {}, &RuleDrivenRouting::event_sink,
                            sink_ctx);
    steps = 1;
    for (std::size_t next = 0; next < work.size(); ++next) {
      const int rb = work[next].target_rb;
      const std::vector<rules::Value> args = std::move(work[next].args);
      vm.fire_fast(rb, args, &RuleDrivenRouting::event_sink, sink_ctx);
      ++steps;
    }
    work.clear();
  } else {
    // Reinstall per decision: tests may have swapped the machine's handler
    // (last installed wins), and the slot's copy fits std::function's small
    // buffer — no allocation on this path.
    em.set_host_handler_fast(slot.cand_handler);
    const auto interpretations_before = em.total_interpretations();
    const rules::FireResult r = em.fire(route_base_, {});
    em.drain();
    steps = static_cast<int>(em.total_interpretations() -
                             interpretations_before);
    returned = r.returned;
  }

  const std::optional<rules::Value>& r_returned = returned;
  if (r_returned) {
    PortId port;
    if (r_returned->is_int()) {
      port = static_cast<PortId>(r_returned->as_int());
    } else {
      const rules::RuleBase& rb = im.program->rule_base(route_base_);
      FR_REQUIRE_MSG(rb.returns.has_value(),
                     "symbolic RETURN without a RETURNS domain");
      port = static_cast<PortId>(rb.returns->index_of(*r_returned));
    }
    // A RETURNed port means "any VC of that port".
    if (port == topo_->degree()) {
      add_candidate(d, port, 0, 0);
    } else {
      for (VcId v = 0; v < vcs_; ++v) add_candidate(d, port, v, 0);
    }
  }

  d.steps = steps;
  slot.ctx = nullptr;
  slot.decision = nullptr;
  return d;
}

/// The unmemoised path, kept out of route() and filling the caller's object
/// in place: route()'s AOT hit keeps NRVO (a second named return object in
/// the same function would defeat it) and the fallback pays no extra
/// temporary.
void RuleDrivenRouting::route_fallback(const RouteContext& ctx,
                                       RouteDecision& d) const {
  FR_REQUIRE_MSG(img_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(escape_vc_ < 0 ||
                     escape_.built_for_epoch() == faults_->epoch(),
                 "stale escape table: reconfigure() missed an epoch");
  // Rolling commit window: nodes already flipped decide with the pending
  // program, the rest with the active one.
  Image& im =
      rolling_ && node_on_pending_[static_cast<std::size_t>(ctx.node)] != 0
          ? *pending_
          : *img_;
  d = compute_route(im, ctx);
  // compute_route checked the node; its slot is node-scoped like the rest.
  ++im.slots[static_cast<std::size_t>(ctx.node)].vm_decisions;
}

}  // namespace flexrouter
