// Lowering of a compiled rule base to the RBR-kernel's integer code and
// tables (see kernel.hpp). Expressions lower depth-first into register
// ops; identical subexpressions (by canonical text) share a register. The
// cheap axes lower as one unit that always runs first; each deferred axis
// and each conclusion lowers on top of it, reusing its registers.
#include "ruleengine/kernel.hpp"

#include <map>

#include "ruleengine/interp.hpp"

namespace flexrouter::rules {

class KernelLowering {
 public:
  KernelLowering(const Program& prog, const RuleKernel::InputResolver& resolve)
      : prog_(&prog), resolve_(&resolve) {}

  std::unique_ptr<const RuleKernel> lower(const CompiledRuleBase& compiled,
                                          std::string& why);

 private:
  /// Lower `e` into `out_`; the register holding its value, or -1 with
  /// `why_` set when `e` is outside the lowered subset.
  int expr(const ExprPtr& e);
  /// A template slot: constants stay immediate, the rest lowers.
  bool slot(const ExprPtr& e, KernelSlot& s);
  std::optional<std::int64_t> int_constant(const Expr& e) const;
  int emit(KernelOp op);
  /// Emit `code` over register x (and y); -1 when an operand failed.
  int op1(KernelOp::Code code, int x);
  int op2(KernelOp::Code code, int x, int y);
  int refuse(const std::string& msg) {
    if (why_.empty()) why_ = msg;
    return -1;
  }
  /// Start a lowering unit on top of the given memo and register count.
  void begin_unit(const std::map<std::string, int>& memo, int regs) {
    memo_ = memo;
    next_reg_ = regs;
    may_raise_ = false;
    costly_ = false;
  }
  bool lower_conclusion(const RuleBase& rb, const Rule& rule,
                        KernelConclusion& c);
  /// Encoded decision-tree child for the deferred-axis subtable of axes
  /// j.. at deferred offset `base`, under compiled-table offset `cheap`.
  std::int32_t build_tree(const CompiledRuleBase& compiled,
                          std::uint64_t cheap, std::size_t j,
                          std::uint64_t base);

  const Program* prog_;
  const RuleKernel::InputResolver* resolve_;
  RuleKernel* k_ = nullptr;
  std::vector<KernelOp>* out_ = nullptr;
  std::map<std::string, int> memo_;  // canonical text -> register
  int next_reg_ = 0;
  /// Constant value of each register of the current unit, if it has one.
  std::optional<std::int64_t> const_reg_[RuleKernel::kMaxRegs];
  bool may_raise_ = false;  // some op of the current unit may raise
  bool costly_ = false;     // the current unit reads a costly input
  /// Deferred-axis space: entries under deferred axes j.., and the
  /// compiled-table offset of each deferred index.
  std::vector<std::uint64_t> span_;
  std::vector<std::uint64_t> deferred_offset_;
  std::string why_;
};

int KernelLowering::emit(KernelOp op) {
  if (next_reg_ >= RuleKernel::kMaxRegs)
    return refuse("more than " + std::to_string(RuleKernel::kMaxRegs) +
                  " live values");
  op.a = static_cast<std::int16_t>(next_reg_++);
  const_reg_[op.a] = std::nullopt;
  if (op.code == KernelOp::Code::Const) const_reg_[op.a] = op.imm;
  out_->push_back(op);
  return op.a;
}

int KernelLowering::op1(KernelOp::Code code, int x) {
  if (x < 0) return -1;
  KernelOp op;
  op.code = code;
  op.b = static_cast<std::int16_t>(x);
  if (code == KernelOp::Code::Popcount) may_raise_ = true;  // x < 0
  return emit(op);
}

int KernelLowering::op2(KernelOp::Code code, int x, int y) {
  if (x < 0 || y < 0) return -1;
  KernelOp op;
  op.code = code;
  op.b = static_cast<std::int16_t>(x);
  op.c = static_cast<std::int16_t>(y);
  // The checks these ops make can only fail on a non-constant operand.
  const std::optional<std::int64_t> k = const_reg_[y];
  if ((code == KernelOp::Code::Div || code == KernelOp::Code::Mod) &&
      (!k || *k == 0))
    may_raise_ = true;
  if (code == KernelOp::Code::Bit && (!k || *k < 0 || *k > 62))
    may_raise_ = true;
  return emit(op);
}

std::optional<std::int64_t> KernelLowering::int_constant(const Expr& e) const {
  if (e.kind == Expr::Kind::IntLit) return e.int_val;
  if (e.kind != Expr::Kind::Ref || !e.args.empty()) return std::nullopt;
  // Name resolution order is the engine's: registers and inputs shadow
  // constants.
  if (prog_->find_variable(e.name) != nullptr ||
      prog_->find_input(e.name) != nullptr)
    return std::nullopt;
  const auto it = prog_->constants.find(e.name);
  if (it == prog_->constants.end() || !it->second.is_int()) return std::nullopt;
  return it->second.as_int();
}

int KernelLowering::expr(const ExprPtr& e) {
  const std::string key = to_string(*e, prog_->syms);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  KernelOp op;
  int reg = -1;
  const auto unary = [&](KernelOp::Code code, const ExprPtr& arg) {
    return op1(code, expr(arg));
  };
  const auto binary = [&](KernelOp::Code code, const ExprPtr& lhs,
                          const ExprPtr& rhs) {
    const int x = expr(lhs);
    return op2(code, x, x < 0 ? -1 : expr(rhs));
  };

  if (const auto v = int_constant(*e)) {
    op.code = KernelOp::Code::Const;
    op.imm = *v;
    reg = emit(op);
  } else if (e->kind == Expr::Kind::Unary) {
    reg = unary(e->un_op == UnOp::Not ? KernelOp::Code::Not
                                      : KernelOp::Code::Neg,
                e->lhs);
  } else if (e->kind == Expr::Kind::Binary) {
    switch (e->bin_op) {
      case BinOp::Add: reg = binary(KernelOp::Code::Add, e->lhs, e->rhs); break;
      case BinOp::Sub: reg = binary(KernelOp::Code::Sub, e->lhs, e->rhs); break;
      case BinOp::Mul: reg = binary(KernelOp::Code::Mul, e->lhs, e->rhs); break;
      case BinOp::Div: reg = binary(KernelOp::Code::Div, e->lhs, e->rhs); break;
      case BinOp::Mod: reg = binary(KernelOp::Code::Mod, e->lhs, e->rhs); break;
      case BinOp::Eq: reg = binary(KernelOp::Code::Eq, e->lhs, e->rhs); break;
      case BinOp::Ne: reg = binary(KernelOp::Code::Ne, e->lhs, e->rhs); break;
      case BinOp::Lt: reg = binary(KernelOp::Code::Lt, e->lhs, e->rhs); break;
      case BinOp::Le: reg = binary(KernelOp::Code::Le, e->lhs, e->rhs); break;
      case BinOp::Gt: reg = binary(KernelOp::Code::Gt, e->lhs, e->rhs); break;
      case BinOp::Ge: reg = binary(KernelOp::Code::Ge, e->lhs, e->rhs); break;
      default:
        // AND/OR never reach an axis (they are the premise skeleton the
        // compiler splits into atoms); the rest are set operations.
        return refuse("operator " + std::string(to_string(e->bin_op)) +
                      " in '" + key + "'");
    }
  } else if (e->kind == Expr::Kind::Ref) {
    if (prog_->find_variable(e->name) != nullptr)
      return refuse("reads rule register '" + e->name + "'");
    if (const InputDecl* in = prog_->find_input(e->name)) {
      const auto id = static_cast<std::int32_t>(in - prog_->inputs.data());
      const RuleKernel::HostInput host = (*resolve_)(id);
      if (host.code < 0)
        return refuse("input '" + e->name + "' is not served by this host");
      if (in->domain.kind() != Domain::Kind::IntRange &&
          in->domain.kind() != Domain::Kind::Boolean)
        return refuse("input '" + e->name + "' is not integer-valued");
      if (e->args.size() != in->index_domains.size() || e->args.size() > 1)
        return refuse("input '" + e->name + "' takes more than one index");
      op.code = KernelOp::Code::Input;
      op.host = host.code;
      op.lo = in->domain.lo();
      op.hi = in->domain.hi();
      op.checked = host.lo < op.lo || host.hi > op.hi;
      if (host.may_throw || op.checked) may_raise_ = true;
      costly_ = costly_ || host.costly;
      if (!e->args.empty()) {
        const Domain& idom = in->index_domains[0];
        if (idom.kind() != Domain::Kind::IntRange &&
            idom.kind() != Domain::Kind::Boolean)
          return refuse("input '" + e->name + "' has a non-integer index");
        const auto index = int_constant(*e->args[0]);
        if (index && *index >= idom.lo() && *index <= idom.hi()) {
          op.imm = *index;
        } else {
          // A computed index, or a constant one the engine rejects: check
          // it at run time.
          KernelOp check;
          check.code = KernelOp::Code::CheckIndex;
          check.b = static_cast<std::int16_t>(expr(e->args[0]));
          if (check.b < 0) return -1;
          check.lo = idom.lo();
          check.hi = idom.hi();
          const int x = emit(check);
          if (x < 0) return -1;
          op.b = static_cast<std::int16_t>(x);
          may_raise_ = true;
        }
      }
      reg = emit(op);
    } else if (e->name == "abs" && e->args.size() == 1) {
      reg = unary(KernelOp::Code::Abs, e->args[0]);
    } else if (e->name == "signum" && e->args.size() == 1) {
      reg = unary(KernelOp::Code::Signum, e->args[0]);
    } else if (e->name == "popcount" && e->args.size() == 1) {
      reg = unary(KernelOp::Code::Popcount, e->args[0]);
    } else if (e->name == "xor" && e->args.size() == 2) {
      reg = binary(KernelOp::Code::Xor, e->args[0], e->args[1]);
    } else if (e->name == "bitand" && e->args.size() == 2) {
      reg = binary(KernelOp::Code::BitAnd, e->args[0], e->args[1]);
    } else if (e->name == "bit" && e->args.size() == 2) {
      reg = binary(KernelOp::Code::Bit, e->args[0], e->args[1]);
    } else if ((e->name == "min" || e->name == "max") && !e->args.empty()) {
      const KernelOp::Code code =
          e->name == "min" ? KernelOp::Code::Min : KernelOp::Code::Max;
      reg = expr(e->args[0]);
      for (std::size_t i = 1; reg >= 0 && i < e->args.size(); ++i)
        reg = op2(code, reg, expr(e->args[i]));
    } else if (e->name == "meshdist" && e->args.size() == 4) {
      // |x1 - x2| + |y1 - y2|, exactly the engine's builtin.
      int r[4];
      for (int i = 0; i < 4; ++i)
        if ((r[i] = expr(e->args[static_cast<std::size_t>(i)])) < 0) return -1;
      using C = KernelOp::Code;
      reg = op2(C::Add, op1(C::Abs, op2(C::Sub, r[0], r[2])),
                op1(C::Abs, op2(C::Sub, r[1], r[3])));
    } else {
      return refuse("'" + key + "' is outside the lowered subset");
    }
  } else {
    return refuse("'" + key + "' is not an integer expression");
  }
  if (reg >= 0) memo_.emplace(key, reg);
  return reg;
}

bool KernelLowering::slot(const ExprPtr& e, KernelSlot& s) {
  if (const auto v = int_constant(*e)) {
    s.reg = -1;
    s.imm = *v;
    return true;
  }
  const int reg = expr(e);
  s.reg = static_cast<std::int16_t>(reg);
  return reg >= 0;
}

bool KernelLowering::lower_conclusion(const RuleBase& rb, const Rule& rule,
                                      KernelConclusion& c) {
  const auto reject = [&](const std::string& msg) {
    refuse(msg);
    return false;
  };
  c.op_begin = static_cast<std::uint32_t>(out_->size());
  c.cand_begin = static_cast<std::uint32_t>(k_->cands_.size());
  for (const Cmd& cmd : rule.conclusion) {
    switch (cmd.kind) {
      case Cmd::Kind::Emit: {
        if (prog_->find_rule_base(cmd.target) != nullptr)
          return reject("conclusion fires rule base '" + cmd.target + "'");
        if (cmd.target != "cand")
          return reject("conclusion emits host event '" + cmd.target + "'");
        if (cmd.args.size() != 3)
          return reject("!cand needs (port, vc, priority)");
        KernelCand kc;
        if (!slot(cmd.args[0], kc.port) || !slot(cmd.args[1], kc.vc) ||
            !slot(cmd.args[2], kc.priority))
          return false;
        k_->cands_.push_back(kc);
        break;
      }
      case Cmd::Kind::Return: {
        if (c.returns) return reject("conclusion RETURNs twice");
        c.returns = true;
        if (cmd.value->kind == Expr::Kind::SymLit) {
          // A symbol's port is its rank in the RETURNS domain.
          const Value sym = Value::make_sym(cmd.value->sym);
          if (!rb.returns || rb.returns->kind() != Domain::Kind::Symbols ||
              !rb.returns->contains(sym))
            return reject("symbolic RETURN outside its domain");
          c.ret.imm = static_cast<std::int64_t>(rb.returns->index_of(sym));
          break;
        }
        if (rb.returns) {
          if (rb.returns->kind() != Domain::Kind::IntRange &&
              rb.returns->kind() != Domain::Kind::Boolean)
            return reject("integer RETURN into a symbol domain");
          c.ret_checked = true;
          c.ret_lo = rb.returns->lo();
          c.ret_hi = rb.returns->hi();
        }
        if (!slot(cmd.value, c.ret)) return false;
        break;
      }
      case Cmd::Kind::Assign:
        return reject("conclusion writes register '" + cmd.target + "'");
      case Cmd::Kind::ForAll:
        return reject("conclusion uses FORALL");
    }
  }
  c.op_end = static_cast<std::uint32_t>(out_->size());
  c.cand_end = static_cast<std::uint32_t>(k_->cands_.size());
  return true;
}

std::unique_ptr<const RuleKernel> KernelLowering::lower(
    const CompiledRuleBase& compiled, std::string& why) {
  auto k = std::make_unique<RuleKernel>();
  k_ = k.get();
  const RuleBase& rb = compiled.source();
  const auto fail = [&]() {
    why = why_;
    return nullptr;
  };
  if (!rb.params.empty()) {
    refuse("rule base '" + rb.name + "' takes parameters");
    return fail();
  }

  // Premise processing. First classify each axis: deferred when it reads
  // a costly input and cannot raise.
  const std::vector<FeatureAxis>& axes = compiled.axes();
  std::vector<KernelOp> scratch;
  std::vector<bool> deferred(axes.size());
  out_ = &scratch;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    begin_unit({}, 0);
    if (expr(axes[i].expr) < 0) return fail();
    deferred[i] = costly_ && !may_raise_;
  }
  // Strides of the compiled table's mixed-radix index (axis 0 most
  // significant), and of the first-level index over the cheap axes.
  std::vector<std::uint64_t> full_stride(axes.size());
  std::uint64_t full = 1, cheap_span = 1;
  for (std::size_t i = axes.size(); i-- > 0;) {
    full_stride[i] = full;
    full *= axes[i].cardinality();
    if (!deferred[i]) cheap_span *= axes[i].cardinality();
  }
  // Lower axis i into `ax`: its code and index mapping. A comparison atom
  // lowers its operands only; the axis compares them.
  const auto make_axis = [&](std::size_t i, RuleKernel::Axis& ax) {
    const FeatureAxis& fa = axes[i];
    ax.atom = fa.kind == FeatureAxis::Kind::Atom;
    ax.card = fa.cardinality();
    const Expr& e = *fa.expr;
    if (ax.atom && e.kind == Expr::Kind::Binary &&
        (e.bin_op == BinOp::Eq || e.bin_op == BinOp::Ne ||
         e.bin_op == BinOp::Lt || e.bin_op == BinOp::Le ||
         e.bin_op == BinOp::Gt || e.bin_op == BinOp::Ge)) {
      const int x = expr(e.lhs);
      const int y = x < 0 ? -1 : expr(e.rhs);
      if (y < 0) return false;
      static constexpr KernelOp::Code kCmp[] = {
          KernelOp::Code::Eq, KernelOp::Code::Ne, KernelOp::Code::Lt,
          KernelOp::Code::Le, KernelOp::Code::Gt, KernelOp::Code::Ge};
      ax.cmp = kCmp[static_cast<int>(e.bin_op) - static_cast<int>(BinOp::Eq)];
      ax.reg = static_cast<std::int16_t>(x);
      ax.reg2 = static_cast<std::int16_t>(y);
      return true;
    }
    const int reg = expr(fa.expr);
    if (reg < 0) return false;
    ax.reg = static_cast<std::int16_t>(reg);
    if (ax.atom) return true;
    if (fa.domain.kind() != Domain::Kind::IntRange &&
        fa.domain.kind() != Domain::Kind::Boolean) {
      refuse("axis '" + fa.key + "' is not integer-valued");
      return false;
    }
    ax.lo = fa.domain.lo();
    return true;
  };
  // The cheap axes: one unit, run in full on every decision.
  out_ = &k->premise_ops_;
  begin_unit({}, 0);
  std::uint64_t stride = cheap_span;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (deferred[i]) continue;
    RuleKernel::Axis ax;
    if (!make_axis(i, ax)) return fail();
    stride /= ax.card;
    ax.stride = stride;
    k->cheap_.push_back(ax);
  }
  k->cheap_ops_end_ = static_cast<std::uint32_t>(out_->size());
  const std::map<std::string, int> cheap_memo = memo_;
  const int cheap_regs = next_reg_;
  // The deferred axes: one unit each, on top of the cheap registers.
  std::vector<std::size_t> deferred_axis;  // compiled-table axis of each
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (!deferred[i]) continue;
    begin_unit(cheap_memo, cheap_regs);
    RuleKernel::Axis ax;
    ax.op_begin = static_cast<std::uint32_t>(out_->size());
    if (!make_axis(i, ax)) return fail();
    ax.op_end = static_cast<std::uint32_t>(out_->size());
    k->deferred_.push_back(ax);
    deferred_axis.push_back(i);
  }

  // Rule selection: the first-level table over the cheap axes, each entry
  // the rule or a decision tree over the deferred axes.
  k->entries_ = compiled.table_entries();
  const std::size_t nd = deferred_axis.size();
  span_.assign(nd + 1, 1);
  for (std::size_t j = nd; j-- > 0;)
    span_[j] = span_[j + 1] * k->deferred_[j].card;
  for (std::size_t j = 0; j < nd; ++j) k->deferred_[j].stride = span_[j + 1];
  deferred_offset_.assign(static_cast<std::size_t>(span_[0]), 0);
  for (std::uint64_t d = 0; d < span_[0]; ++d)
    for (std::size_t j = 0; j < nd; ++j)
      deferred_offset_[static_cast<std::size_t>(d)] +=
          (d / span_[j + 1] % k->deferred_[j].card) *
          full_stride[deferred_axis[j]];
  k->first_.resize(static_cast<std::size_t>(cheap_span));
  for (std::uint64_t c = 0; c < cheap_span; ++c) {
    std::uint64_t cheap = 0;
    for (std::size_t a = 0, ci = 0; a < axes.size(); ++a) {
      if (deferred[a]) continue;
      const RuleKernel::Axis& ax = k->cheap_[ci++];
      cheap += (c / ax.stride % ax.card) * full_stride[a];
    }
    k->first_[static_cast<std::size_t>(c)] = build_tree(compiled, cheap, 0, 0);
  }

  // Conclusion processing: one template per rule, on top of the cheap
  // registers.
  out_ = &k->conclusion_ops_;
  k->conclusions_.resize(rb.rules.size());
  for (std::size_t r = 0; r < rb.rules.size(); ++r) {
    begin_unit(cheap_memo, cheap_regs);
    if (!lower_conclusion(rb, rb.rules[r], k->conclusions_[r])) return fail();
  }
  return k;
}

std::int32_t KernelLowering::build_tree(const CompiledRuleBase& compiled,
                                        std::uint64_t cheap, std::size_t j,
                                        std::uint64_t base) {
  const auto entry = [&](std::uint64_t d) {
    return compiled.entry_at(cheap +
                             deferred_offset_[static_cast<std::size_t>(d)]);
  };
  // A subtable holding one rule is a leaf.
  const int first = entry(base);
  bool uniform = true;
  for (std::uint64_t d = base + 1; uniform && d < base + span_[j]; ++d)
    uniform = entry(d) == first;
  if (uniform) return -first - 2;
  // An axis whose every value leads to the same subtable is skipped.
  const std::uint64_t stride = span_[j + 1];
  const std::uint64_t card = k_->deferred_[j].card;
  bool depends = false;
  for (std::uint64_t v = 1; !depends && v < card; ++v)
    for (std::uint64_t d = 0; !depends && d < stride; ++d)
      depends = entry(base + v * stride + d) != entry(base + d);
  if (!depends) return build_tree(compiled, cheap, j + 1, base);
  const auto node = static_cast<std::int32_t>(k_->nodes_.size());
  const auto kids = static_cast<std::uint32_t>(k_->kids_.size());
  k_->nodes_.push_back({static_cast<std::uint32_t>(j), kids});
  k_->kids_.resize(kids + card);
  for (std::uint64_t v = 0; v < card; ++v) {
    const std::int32_t child =
        build_tree(compiled, cheap, j + 1, base + v * stride);
    k_->kids_[kids + v] = child;
  }
  return node;
}

std::unique_ptr<const RuleKernel> RuleKernel::lower(
    const Program& prog, const CompiledRuleBase& compiled,
    const InputResolver& resolve, std::string& why) {
  return KernelLowering(prog, resolve).lower(compiled, why);
}

std::uint64_t RuleKernel::bytes() const {
  return (first_.size() + kids_.size()) * sizeof(std::int32_t) +
         nodes_.size() * sizeof(Node) +
         (premise_ops_.size() + conclusion_ops_.size()) * sizeof(KernelOp) +
         (cheap_.size() + deferred_.size()) * sizeof(Axis) +
         cands_.size() * sizeof(KernelCand) +
         conclusions_.size() * sizeof(KernelConclusion);
}

}  // namespace flexrouter::rules
