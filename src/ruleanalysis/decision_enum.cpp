#include "ruleanalysis/decision_enum.hpp"

#include <algorithm>
#include <exception>
#include <functional>

#include "topology/graph_algo.hpp"

namespace flexrouter::ruleanalysis {
namespace {

constexpr std::uint64_t kMaxCombos = 4096;
constexpr std::uint64_t kMaxUnknownCardinality = 16;

bool is_escape_port_ref(const rules::ExprPtr& e) {
  return e != nullptr && e->kind == rules::Expr::Kind::Ref &&
         e->name == "escape_port" && e->args.empty();
}

}  // namespace

DecisionEnumerator::DecisionEnumerator(const rules::Program& prog,
                                       const DeadlockModel& model,
                                       const Topology& topo)
    : prog_(prog),
      model_(model),
      topo_(topo),
      faults_(topo),
      interp_(prog),
      env_(prog) {
  rb_ = prog_.find_rule_base(model_.route_base);
  if (rb_ == nullptr) {
    error_ = "rule base '" + model_.route_base +
             "' not found; nothing to certify";
    return;
  }
  if (!rb_->params.empty()) {
    error_ =
        "certified rule base has parameters; headers cannot be enumerated";
    return;
  }
  mesh_ = dynamic_cast<const Mesh*>(&topo_);
  if (model_.injection == InjectionVcs::BySignDy &&
      (mesh_ == nullptr || mesh_->dims() != 2)) {
    error_ = "BySignDy injection requires a 2-D mesh";
    return;
  }
  if (!model_.ft_route_base.empty()) {
    ft_rb_ = prog_.find_rule_base(model_.ft_route_base);
    if (ft_rb_ != nullptr && !ft_rb_->params.empty()) ft_rb_ = nullptr;
  }
  if (model_.style == DecisionStyle::DirsetMask) {
    for (const auto& [cls, vc] : model_.class_vcs) included_vcs_.insert(vc);
  } else {
    for (int v = 0; v < model_.num_vcs; ++v) included_vcs_.insert(v);
  }
  comp_ = components(faults_);
  if (model_.escape_vc >= 0) escape_.rebuild(faults_);
  interp_.set_input_provider(
      [this](const std::string& n, const std::vector<rules::Value>& i) {
        return provide(n, i);
      });
  scan_axes();
  audit_escape_port();
}

void DecisionEnumerator::set_faults(const FaultSet& faults) {
  faults_ = faults;
  comp_ = components(faults_);
  if (model_.escape_vc >= 0) escape_.rebuild(faults_);
  overlay_.clear();
  overlay_owned_.clear();
}

void DecisionEnumerator::merge_notes(const DecisionEnumerator& other) {
  for (const std::string& m : other.unmodeled_) note_unmodeled(m);
  excluded_classes_.insert(other.excluded_classes_.begin(),
                           other.excluded_classes_.end());
  if (!other.modeled_) modeled_ = false;
}

DecisionEnumerator::DecisionKey DecisionEnumerator::make_key(
    NodeId node, NodeId dest, PortId in_port, VcId in_vc) const {
  // Programs without an escape layer never read in_port directly, so the
  // memo key only needs the injected/in-flight distinction.
  const PortId key_port =
      model_.escape_vc >= 0
          ? in_port
          : (in_port < 0 || in_port >= topo_.degree() ? topo_.degree()
                                                      : PortId{0});
  return {node, dest, key_port, in_vc};
}

// ---- input model ---------------------------------------------------------

std::optional<rules::Value> DecisionEnumerator::known_input(
    const std::string& name, const std::vector<rules::Value>& idx) {
  using rules::Value;
  const PortId degree = topo_.degree();
  if (name == "node") return Value::make_int(node_);
  if (name == "dest") return Value::make_int(dest_);
  if (name == "in_port") return Value::make_int(in_port_);
  if (name == "in_vc") return Value::make_int(std::max<VcId>(in_vc_, 0));
  if (name == "injected")
    return Value::make_bool(in_port_ < 0 || in_port_ >= degree);
  if ((name == "link_ok" || name == "link_fault") && idx.size() == 1) {
    const bool want_ok = name == "link_ok";
    const auto p = static_cast<PortId>(idx[0].as_int());
    if (p < 0 || p >= degree) return Value::make_bool(!want_ok);
    bool ok;
    if (abstract_) {
      ok = ((valuation_ >> p) & 1u) != 0;
    } else {
      ok = faults_.link_usable(node_, p);
      record(CatalogRead::Kind::LinkOk, p, ok ? 1 : 0);
    }
    return Value::make_bool(want_ok ? ok : !ok);
  }
  if (name == "dest_reachable") {
    bool ok;
    if (abstract_) {
      ok = ((valuation_ >> degree) & 1u) != 0;
    } else {
      ok = connected_now(node_, dest_);
      record(CatalogRead::Kind::DestReachable, kInvalidPort, ok ? 1 : 0);
    }
    return Value::make_bool(ok);
  }
  if (model_.escape_vc >= 0) {
    const bool on_escape =
        in_vc_ == model_.escape_vc && in_port_ >= 0 && in_port_ < degree;
    if (name == "on_escape") return Value::make_bool(on_escape);
    if (name == "escape_ok") {
      bool ok;
      if (abstract_) {
        ok = ((valuation_ >> (degree + 1)) & 1u) != 0;
      } else {
        ok = escape_.reachable(node_, dest_);
        record(CatalogRead::Kind::EscapeOk, kInvalidPort, ok ? 1 : 0);
      }
      return Value::make_bool(ok);
    }
    if (name == "escape_port") {
      // The concrete escape next hop is tree-dependent; in abstract mode
      // the audited token stands in for it.
      if (abstract_) return Value::make_int(kAbstractEscapePort);
      PortId port = degree;
      if (dest_ != node_ && escape_.reachable(node_, dest_)) {
        const UpDownTable::Phase phase =
            on_escape ? escape_.arrival_phase(node_, in_port_)
                      : UpDownTable::Phase::Up;
        port = escape_.first_hop(node_, dest_, phase);
      }
      record(CatalogRead::Kind::EscapePort, kInvalidPort, port);
      return Value::make_int(port);
    }
  }
  if (mesh_ != nullptr && mesh_->dims() == 2) {
    if (name == "xpos") return Value::make_int(mesh_->x_of(node_));
    if (name == "ypos") return Value::make_int(mesh_->y_of(node_));
    if (name == "xdes") return Value::make_int(mesh_->x_of(dest_));
    if (name == "ydes") return Value::make_int(mesh_->y_of(dest_));
  }
  // Hypercube dimension-correction masks (ROUTE_C, [Kon90] convention:
  // ascending sets 0->1 bits, descending clears 1->0 bits).
  const std::int64_t all = (std::int64_t{1} << degree) - 1;
  if (name == "up_mask") return Value::make_int(dest_ & ~node_ & all);
  if (name == "down_mask") return Value::make_int(node_ & ~dest_ & all);
  return std::nullopt;
}

rules::Value DecisionEnumerator::provide(const std::string& name,
                                         const std::vector<rules::Value>& idx) {
  if (auto v = known_input(name, idx)) return *v;
  const rules::InputDecl* decl = prog_.find_input(name);
  FR_REQUIRE(decl != nullptr);  // eval_ref resolved it as an input
  std::int64_t flat = -1;
  if (!decl->index_domains.empty()) {
    flat = 0;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const rules::Domain& d = decl->index_domains[i];
      flat = flat * static_cast<std::int64_t>(d.cardinality()) +
             static_cast<std::int64_t>(d.index_of(idx[i]));
    }
  }
  const auto key = std::make_pair(name, flat);
  auto it = uix_.find(key);
  if (it == uix_.end()) {
    Unknown u;
    u.name = name;
    u.flat = flat;
    if (decl->domain.cardinality() <= kMaxUnknownCardinality) {
      u.vals = decl->domain.enumerate();
    } else {
      u.vals = {decl->domain.value_at(0)};
      note_unmodeled("free input '" + name +
                     "' has a domain too large to enumerate");
    }
    it = uix_.emplace(key, unknowns_.size()).first;
    unknowns_.push_back(std::move(u));
    discovered_ = true;
  }
  const Unknown& u = unknowns_[it->second];
  return u.vals[u.cur];
}

bool DecisionEnumerator::advance() {
  for (Unknown& u : unknowns_) {
    if (++u.cur < u.vals.size()) return true;
    u.cur = 0;
  }
  return false;
}

void DecisionEnumerator::record(CatalogRead::Kind kind, PortId port,
                                std::int32_t value) {
  const CatalogRead r{kind, port, value};
  if (std::find(reads_.begin(), reads_.end(), r) == reads_.end())
    reads_.push_back(r);
}

// ---- decision enumeration ------------------------------------------------

void DecisionEnumerator::enumerate_base(const rules::RuleBase& rb, bool is_ft,
                                        std::set<Cand>& out) {
  for (const rules::Rule& r : rb.rules) {
    bool may = false;
    bool must = true;
    std::set<Cand> cs;
    unknowns_.clear();
    uix_.clear();
    // Fixpoint: free inputs are discovered while evaluating, so re-sweep
    // until a full enumeration pass discovers nothing new.
    for (int iter = 0; iter < 8; ++iter) {
      discovered_ = false;
      for (Unknown& u : unknowns_) u.cur = 0;
      may = false;
      must = true;
      cs.clear();
      std::uint64_t combos = 0;
      bool more = true;
      while (more) {
        if (++combos > kMaxCombos) {
          note_unmodeled("free-input space of a premise exceeds the "
                         "enumeration budget");
          must = false;
          break;
        }
        bool fires = false;
        try {
          fires = interp_.eval_expr(env_, r.premise, binds_).as_bool();
        } catch (const std::exception& e) {
          note_unmodeled(std::string("premise not evaluable: ") + e.what());
          must = false;
        }
        if (fires) {
          may = true;
          try {
            collect_cmds(r.conclusion, is_ft, cs);
          } catch (const std::exception& e) {
            note_unmodeled(std::string("conclusion not evaluable: ") +
                           e.what());
          }
        } else {
          must = false;
        }
        more = advance();
      }
      if (!discovered_) break;
    }
    if (may) out.insert(cs.begin(), cs.end());
    if (may && must) break;  // later rules are unreachable
  }
}

rules::Value DecisionEnumerator::eval(const rules::ExprPtr& e) {
  return interp_.eval_expr(env_, e, binds_);
}

void DecisionEnumerator::collect_cmds(const std::vector<rules::Cmd>& cmds,
                                      bool is_ft, std::set<Cand>& out) {
  for (const rules::Cmd& c : cmds) collect_cmd(c, is_ft, out);
}

void DecisionEnumerator::collect_cmd(const rules::Cmd& c, bool is_ft,
                                     std::set<Cand>& out) {
  using CK = rules::Cmd::Kind;
  // The ft companion base expresses its decision as RETURN <direction>
  // whatever the primary style is (NAFTA's in_message_ft).
  const DecisionStyle style =
      is_ft ? DecisionStyle::ReturnPort : model_.style;
  const rules::RuleBase* rb = is_ft ? ft_rb_ : rb_;
  switch (c.kind) {
    case CK::Assign:
      return;  // register writes induce no channel request
    case CK::Return: {
      if (style != DecisionStyle::ReturnPort) return;
      const rules::Value v = eval(c.value);
      const PortId port =
          v.is_sym() ? static_cast<PortId>(rb->returns->sym_rank(v.as_sym()))
                     : static_cast<PortId>(v.as_int());
      add_cand(port, std::max<VcId>(in_vc_, 0), out);
      return;
    }
    case CK::Emit: {
      if (style == DecisionStyle::CandEvents && c.target == "cand" &&
          c.args.size() >= 2) {
        add_cand(static_cast<PortId>(eval(c.args[0]).as_int()),
                 static_cast<VcId>(eval(c.args[1]).as_int()), out);
      } else if (style == DecisionStyle::DirsetMask && c.target == "dirset" &&
                 c.args.size() >= 2) {
        const std::int64_t mask = eval(c.args[0]).as_int();
        const std::int64_t cls = eval(c.args[1]).as_int();
        if (mask == 0 && node_ == dest_) {
          // ROUTE_C's delivery command: both correction masks empty means
          // the header is home.
          delivers_ = true;
          return;
        }
        const auto it = model_.class_vcs.find(cls);
        if (it == model_.class_vcs.end()) {
          excluded_classes_.insert(cls);
          return;
        }
        for (PortId p = 0; p < topo_.degree(); ++p)
          if ((mask >> p) & 1) add_cand(p, it->second, out);
      }
      return;
    }
    case CK::ForAll: {
      const rules::Value dom = eval(c.domain);
      std::vector<rules::Value> vals;
      if (dom.is_set()) {
        vals = dom.as_set().elements();
      } else {
        const std::int64_t n = dom.as_int();
        FR_REQUIRE_MSG(n >= 0 && n <= 64, "FORALL range out of bounds");
        for (std::int64_t i = 0; i < n; ++i)
          vals.push_back(rules::Value::make_int(i));
      }
      for (const rules::Value& v : vals) {
        binds_.emplace_back(c.bound, v);
        collect_cmds(c.body, is_ft, out);
        binds_.pop_back();
      }
      return;
    }
  }
}

void DecisionEnumerator::add_cand(PortId port, VcId vc, std::set<Cand>& out) {
  if (abstract_ && port == kAbstractEscapePort) {
    out.insert({port, vc});
    return;
  }
  if (port == topo_.degree()) {
    // Local-port candidate: delivery when the header is at its
    // destination; elsewhere it would leave the network short of it, so it
    // is no candidate (the dead-end check then sees the truth).
    if (node_ == dest_) delivers_ = true;
    return;
  }
  if (port < 0 || port > topo_.degree()) {
    note_unmodeled("rule requests a port outside the router");
    return;
  }
  if (vc < 0 || vc >= model_.num_vcs) {
    note_unmodeled("rule requests a VC outside the model");
    return;
  }
  if (!included_vcs_.count(vc)) return;
  if (abstract_ && model_.escape_vc >= 0 && vc == model_.escape_vc)
    escape_violation_ = true;  // escape-VC cand bypassing the audited token
  out.insert({port, vc});
}

const EnumeratedDecision& DecisionEnumerator::decide(NodeId node, NodeId dest,
                                                     PortId in_port,
                                                     VcId in_vc) {
  const DecisionKey key = make_key(node, dest, in_port, in_vc);
  const bool healthy = faults_.fault_free();
  if (healthy) {
    if (shared_ != nullptr) {
      if (const auto it = shared_->baseline_.find(key);
          it != shared_->baseline_.end()) {
        ++reused_;
        return it->second;
      }
    } else if (const auto it = baseline_.find(key); it != baseline_.end()) {
      return it->second;
    }
  } else {
    if (const auto it = overlay_.find(key); it != overlay_.end())
      return *it->second;
    const EnumeratedDecision* base = nullptr;
    if (const auto it = baseline_.find(key); it != baseline_.end())
      base = &it->second;
    if (base == nullptr && shared_ != nullptr) {
      if (const auto it = shared_->baseline_.find(key);
          it != shared_->baseline_.end())
        base = &it->second;
    }
    if (base != nullptr && validate(key, *base)) {
      ++reused_;
      overlay_.emplace(key, base);
      return *base;
    }
  }

  // Enumerate afresh under the current fault state.
  node_ = node;
  dest_ = dest;
  in_port_ = in_port;
  in_vc_ = in_vc;
  abstract_ = false;
  delivers_ = false;
  reads_.clear();
  EnumeratedDecision d;
  std::set<Cand> acc;
  enumerate_base(*rb_, /*is_ft=*/false, acc);
  d.cands.assign(acc.begin(), acc.end());
  if (ft_rb_ != nullptr) {
    std::set<Cand> ft;
    enumerate_base(*ft_rb_, /*is_ft=*/true, ft);
    d.ft_cands.assign(ft.begin(), ft.end());
  }
  d.delivers = delivers_;
  d.reads = reads_;
  ++evaluated_;
  if (healthy) {
    if (shared_ == nullptr)
      return baseline_.emplace(key, std::move(d)).first->second;
    // A shared-baseline miss (shouldn't happen after warmup, but harmless):
    // keep the result locally.
    overlay_owned_.push_back(std::move(d));
    overlay_.emplace(key, &overlay_owned_.back());
    return overlay_owned_.back();
  }
  overlay_owned_.push_back(std::move(d));
  overlay_.emplace(key, &overlay_owned_.back());
  return overlay_owned_.back();
}

const AbstractDecision& DecisionEnumerator::decide_abstract(
    NodeId node, NodeId dest, PortId in_port, VcId in_vc,
    std::uint32_t valuation) {
  const AbstractKey key{make_key(node, dest, in_port, in_vc), valuation};
  if (const auto it = abs_memo_.find(key); it != abs_memo_.end())
    return it->second;
  node_ = node;
  dest_ = dest;
  in_port_ = in_port;
  in_vc_ = in_vc;
  abstract_ = true;
  valuation_ = valuation;
  delivers_ = false;
  escape_violation_ = false;
  AbstractDecision d;
  std::set<Cand> acc;
  enumerate_base(*rb_, /*is_ft=*/false, acc);
  d.cands.assign(acc.begin(), acc.end());
  if (ft_rb_ != nullptr) {
    std::set<Cand> ft;
    enumerate_base(*ft_rb_, /*is_ft=*/true, ft);
    d.ft_cands.assign(ft.begin(), ft.end());
  }
  d.delivers = delivers_;
  // Stickiness: an on-escape header at a foreign node must stay on the
  // escape VC, otherwise escape -> adaptive dependency edges exist and the
  // escape layer cannot be factored out of orbit transport.
  if (model_.escape_vc >= 0 && in_vc == model_.escape_vc && node != dest &&
      in_port >= 0 && in_port < topo_.degree()) {
    for (const Cand& c : d.cands)
      if (c.second != model_.escape_vc) escape_violation_ = true;
  }
  d.escape_violation = escape_violation_;
  abstract_ = false;
  return abs_memo_.emplace(key, std::move(d)).first->second;
}

// ---- incremental revalidation --------------------------------------------

std::int32_t DecisionEnumerator::recompute(const CatalogRead& r) const {
  switch (r.kind) {
    case CatalogRead::Kind::LinkOk:
      return faults_.link_usable(node_, r.port) ? 1 : 0;
    case CatalogRead::Kind::DestReachable:
      return connected_now(node_, dest_) ? 1 : 0;
    case CatalogRead::Kind::EscapeOk:
      return escape_.reachable(node_, dest_) ? 1 : 0;
    case CatalogRead::Kind::EscapePort: {
      const PortId degree = topo_.degree();
      if (dest_ == node_ || !escape_.reachable(node_, dest_)) return degree;
      const bool on_escape =
          in_vc_ == model_.escape_vc && in_port_ >= 0 && in_port_ < degree;
      const UpDownTable::Phase phase =
          on_escape ? escape_.arrival_phase(node_, in_port_)
                    : UpDownTable::Phase::Up;
      return escape_.first_hop(node_, dest_, phase);
    }
  }
  return 0;
}

bool DecisionEnumerator::validate(const DecisionKey& key,
                                  const EnumeratedDecision& d) {
  node_ = std::get<0>(key);
  dest_ = std::get<1>(key);
  in_port_ = std::get<2>(key);
  in_vc_ = std::get<3>(key);
  for (const CatalogRead& r : d.reads)
    if (recompute(r) != r.value) return false;
  return true;
}

// ---- model metadata ------------------------------------------------------

void DecisionEnumerator::seed_vcs(NodeId s, NodeId d,
                                  std::vector<VcId>& out) const {
  out.clear();
  switch (model_.injection) {
    case InjectionVcs::Zero:
      out.push_back(0);
      return;
    case InjectionVcs::All:
      out.assign(included_vcs_.begin(), included_vcs_.end());
      return;
    case InjectionVcs::BySignDy: {
      const int dy = mesh_->y_of(d) - mesh_->y_of(s);
      if (dy >= 0) out.push_back(1);
      if (dy <= 0) out.push_back(0);
      return;
    }
  }
}

void DecisionEnumerator::scan_axes() {
  const auto scan_base = [this](const rules::RuleBase* rb) {
    if (rb == nullptr) return;
    for (const rules::Rule& r : rb->rules) {
      rules::for_each_expr(r, [this](const rules::Expr& e) {
        if (e.kind != rules::Expr::Kind::Ref) return;
        if (e.name == "link_ok" || e.name == "link_fault")
          axes_.link_bits = true;
        else if (e.name == "dest_reachable")
          axes_.dest_reachable = true;
        else if (e.name == "escape_ok")
          axes_.escape_ok = true;
        else if (e.name == "escape_port")
          axes_.escape_port = true;
      });
    }
  };
  scan_base(rb_);
  scan_base(ft_rb_);
}

void DecisionEnumerator::audit_escape_port() {
  if (!axes_.escape_port || model_.escape_vc < 0) {
    // Nothing uses the symbol (or there is no escape layer): the token
    // abstraction is vacuously sound.
    escape_port_audited_ = axes_.escape_port ? false : true;
    if (axes_.escape_port)
      note_unmodeled("escape_port referenced without an escape layer");
    return;
  }
  std::size_t total = 0;
  std::size_t allowed = 0;
  bool every_escape_emit_uses_token = true;
  for (const rules::Rule& r : rb_->rules) {
    rules::for_each_expr(r, [&total](const rules::Expr& e) {
      if (e.kind == rules::Expr::Kind::Ref && e.name == "escape_port")
        ++total;
    });
    // Count the sanctioned occurrences: !cand(escape_port, <escape_vc>, …)
    // with the symbol verbatim in the port slot and a literal escape VC.
    const std::function<void(const rules::Cmd&)> visit =
        [&](const rules::Cmd& c) {
          if (c.kind == rules::Cmd::Kind::ForAll) {
            for (const rules::Cmd& b : c.body) visit(b);
            return;
          }
          if (c.kind != rules::Cmd::Kind::Emit || c.target != "cand" ||
              c.args.size() < 2)
            return;
          const bool literal_escape_vc =
              c.args[1]->kind == rules::Expr::Kind::IntLit &&
              c.args[1]->int_val == model_.escape_vc;
          if (is_escape_port_ref(c.args[0])) {
            if (literal_escape_vc)
              ++allowed;
            else
              every_escape_emit_uses_token = false;  // token off escape VC
          } else if (literal_escape_vc) {
            every_escape_emit_uses_token = false;  // escape VC, foreign port
          }
        };
    for (const rules::Cmd& c : r.conclusion) visit(c);
  }
  escape_port_audited_ = total == allowed && every_escape_emit_uses_token;
  if (!escape_port_audited_)
    note_unmodeled(
        "escape_port flows beyond escape-VC cand emits; orbit transport of "
        "escape channels disabled");
}

void DecisionEnumerator::note_unmodeled(const std::string& msg) {
  if (unmodeled_.insert(msg).second) modeled_ = false;
}

}  // namespace flexrouter::ruleanalysis
