// RBR-kernel execution: a compiled rule base (rule_table.hpp) run the way
// the paper's interpreter runs it (Section 4.3, ARON):
//
//  1. premise processing — each FeatureAxis expression is evaluated
//     through a lowered integer form (e.g. `ypos < ydes`, `link_ok(2)`);
//  2. rule selection — the axis values index the completely filled table,
//     whose entry is the selected source rule;
//  3. conclusion processing — the selected rule's conclusion runs as a
//     precompiled candidate template whose port, VC and priority slots are
//     constants or lowered expressions (`escape_port`, `min(in_vc, 1)`).
//
// The table is a function of the rule base alone, so its size is fixed by
// the feature axes (8192 entries for ft_mesh_rules at any mesh size), and
// the kernel memoises nothing: inputs are read from the host on every
// decision. A kernel is immutable once lowered, hence shareable by every
// node of a sharded network.
//
// Where the hardware evaluates every axis in parallel, software pays per
// axis, and a few axes are expensive: escape_ok reads the escape layer's
// distance table, a likely cache miss. Axes that read such a costly input
// are deferred. The cheap axes run on every decision as one straight-line
// sequence (the same ops in the same order, so the dispatch predicts well)
// and index a first-level table over their own values. Its entry is either
// the selected rule, when the deferred axes cannot change it, or the root
// of a small decision tree over the deferred axes, which evaluates only the
// ones on its path. Either way the rule reached is the compiled table's
// entry at the full index: a deferred axis is skipped only where every
// value of it leads to the same entry. Skipping must not hide an error,
// though, so an axis whose evaluation could raise is never deferred. With
// no deferred axes the first-level table is the compiled table itself.
//
// The lowered subset covers integer arithmetic, comparisons, the integer
// builtins, named integer constants and host inputs with at most one index.
// Anything else — register reads, symbols, sets, quantifiers, subbase calls,
// rule-bound events, assignments — is refused at lowering time with a
// reason. An evaluation that would raise in the engine (a host value or an
// index outside its declared domain, division by zero, a bad bit index)
// makes select()/conclude() report failure instead, so the caller can hand
// that one decision to the engine, which raises exactly as it would have.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "ruleengine/rule_table.hpp"

namespace flexrouter::rules {

/// One lowered operation over the kernel's int64 register file. Booleans
/// are 0/1, exactly as Value stores them.
struct KernelOp {
  enum class Code : std::uint8_t {
    Const,  // r[a] = imm
    /// r[a] = host input `host` at index r[b] (imm when b < 0). When
    /// `checked`, fails on a value outside [lo, hi], the declared domain the
    /// engine checks (unchecked when the host cannot leave it).
    Input,
    /// r[a] = r[b]; fails outside [lo, hi] (an input's index domain).
    CheckIndex,
    Not, Neg, Abs, Signum, Popcount,  // r[a] = f(r[b])
    Add, Sub, Mul, Div, Mod,          // r[a] = r[b] op r[c]
    Eq, Ne, Lt, Le, Gt, Ge,
    Min, Max, Xor, BitAnd, Bit,
  };
  Code code = Code::Const;
  std::int16_t a = 0;
  std::int16_t b = -1;
  std::int16_t c = -1;
  bool checked = false;
  std::int32_t host = -1;
  std::int64_t imm = 0;
  std::int64_t lo = 0, hi = 0;
};

/// A template slot: the constant `imm`, or the register a lowered
/// expression leaves its value in.
struct KernelSlot {
  std::int16_t reg = -1;
  std::int64_t imm = 0;

  std::int64_t value(const std::int64_t* r) const {
    return reg < 0 ? imm : r[reg];
  }
};

/// One `!cand(port, vc, priority)` of a conclusion template.
struct KernelCand {
  KernelSlot port, vc, priority;
};

/// The precompiled conclusion of one source rule.
struct KernelConclusion {
  std::uint32_t op_begin = 0, op_end = 0;      // lowered slot expressions
  std::uint32_t cand_begin = 0, cand_end = 0;  // its !cand emissions, in order
  /// RETURN(port): the host expands it after the emissions, like the engine.
  bool returns = false;
  KernelSlot ret;
  /// Declared RETURNS range the value must lie in (when there is one).
  bool ret_checked = false;
  std::int64_t ret_lo = 0, ret_hi = 0;
};

class RuleKernel {
 public:
  static constexpr int kMaxRegs = 64;
  /// select() result when an evaluation would raise.
  static constexpr int kRaise = -2;

  /// How the host serves one declared input: its catalog code (-1: not
  /// served in that form), the range of values it can return, whether
  /// reading it can raise in the host itself, and whether it is costly
  /// enough to defer.
  struct HostInput {
    std::int32_t code = -1;
    std::int64_t lo = 0, hi = 0;
    bool may_throw = false;
    bool costly = false;
  };
  /// Maps a declared input (index into Program::inputs) to its HostInput.
  using InputResolver = std::function<HostInput(std::int32_t input_id)>;

  /// Lower `compiled`, a rule base of `prog`. Returns null and sets `why`
  /// when an axis or conclusion lies outside the lowered subset.
  static std::unique_ptr<const RuleKernel> lower(
      const Program& prog, const CompiledRuleBase& compiled,
      const InputResolver& resolve, std::string& why);

  std::uint64_t entries() const { return entries_; }
  std::size_t num_axes() const { return cheap_.size() + deferred_.size(); }
  /// Footprint of the tables, the lowered code and the templates.
  std::uint64_t bytes() const;

  /// Premise processing and rule selection: the selected source rule, -1
  /// when none applies, kRaise when an axis evaluation would raise.
  /// `read(host, index)` serves one host input.
  template <typename Read>
  int select(std::int64_t* r, const Read& read) const;

  /// Evaluate the slot expressions of `rule`'s template over the registers
  /// select() left behind; false when one would raise.
  template <typename Read>
  bool conclude(int rule, std::int64_t* r, const Read& read) const {
    const KernelConclusion& c = conclusions_[static_cast<std::size_t>(rule)];
    return c.op_begin == c.op_end ||
           run(conclusion_ops_.data() + c.op_begin,
               conclusion_ops_.data() + c.op_end, r, read);
  }
  const KernelConclusion& conclusion(int rule) const {
    return conclusions_[static_cast<std::size_t>(rule)];
  }
  const KernelCand* cands() const { return cands_.data(); }

 private:
  /// One feature axis and its table index: atom: nonzero -> 1; direct:
  /// value - lo in [0, card). An atom that is a comparison keeps it here
  /// (`cmp` over registers reg and reg2) rather than as an op. `stride` is
  /// its weight in the first-level index (cheap axes) or in the deferred
  /// decision tree's axis order.
  struct Axis {
    std::int64_t lo = 0;
    std::uint64_t card = 2;
    std::uint64_t stride = 1;
    /// Deferred axes only: their own code, run on demand after the cheap
    /// axes' code (whose registers it may read).
    std::uint32_t op_begin = 0, op_end = 0;
    std::int16_t reg = 0;
    std::int16_t reg2 = 0;
    KernelOp::Code cmp = KernelOp::Code::Const;  // Const: no comparison
    bool atom = true;
  };
  /// A decision-tree node tests deferred axis `axis`; child v of the node
  /// is kids_[first + v], an encoded child (see first_).
  struct Node {
    std::uint32_t axis = 0;
    std::uint32_t first = 0;
  };
  friend class KernelLowering;

  template <typename Read>
  static bool run(const KernelOp* op, const KernelOp* end, std::int64_t* r,
                  const Read& read);
  /// The table index of `ax` given its value register; false when the
  /// value lies outside a direct axis's domain (the engine's check).
  static bool index_of(const Axis& ax, const std::int64_t* r,
                       std::uint64_t* idx) {
    const std::int64_t v = r[ax.reg];
    switch (ax.cmp) {
      case KernelOp::Code::Eq: *idx = v == r[ax.reg2]; return true;
      case KernelOp::Code::Ne: *idx = v != r[ax.reg2]; return true;
      case KernelOp::Code::Lt: *idx = v < r[ax.reg2]; return true;
      case KernelOp::Code::Le: *idx = v <= r[ax.reg2]; return true;
      case KernelOp::Code::Gt: *idx = v > r[ax.reg2]; return true;
      case KernelOp::Code::Ge: *idx = v >= r[ax.reg2]; return true;
      default: break;
    }
    if (ax.atom) {
      *idx = v != 0;
      return true;
    }
    *idx = static_cast<std::uint64_t>(v - ax.lo);
    return *idx < ax.card;
  }

  std::uint64_t entries_ = 0;
  std::vector<KernelOp> premise_ops_;  // cheap axes' code, then deferred
  std::uint32_t cheap_ops_end_ = 0;
  std::vector<Axis> cheap_;
  std::vector<Axis> deferred_;
  /// First-level table over the cheap axes. An encoded child is a tree
  /// node index (>= 0) or the selected rule r as -r - 2 (r = -1: none).
  std::vector<std::int32_t> first_;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> kids_;
  std::vector<KernelOp> conclusion_ops_;
  std::vector<KernelCand> cands_;
  std::vector<KernelConclusion> conclusions_;  // one per source rule
};

template <typename Read>
bool RuleKernel::run(const KernelOp* op, const KernelOp* end, std::int64_t* r,
                     const Read& read) {
  for (; op != end; ++op) {
    std::int64_t& out = r[op->a];
    switch (op->code) {
      case KernelOp::Code::Const:
        out = op->imm;
        continue;
      case KernelOp::Code::Input: {
        const std::int64_t v = read(op->host, op->b >= 0 ? r[op->b] : op->imm);
        if (op->checked && (v < op->lo || v > op->hi)) return false;
        out = v;
        continue;
      }
      case KernelOp::Code::CheckIndex: {
        const std::int64_t v = r[op->b];
        if (v < op->lo || v > op->hi) return false;
        out = v;
        continue;
      }
      default:
        break;
    }
    const std::int64_t x = r[op->b];
    switch (op->code) {
      case KernelOp::Code::Not: out = x == 0; continue;
      case KernelOp::Code::Neg: out = -x; continue;
      case KernelOp::Code::Abs: out = x < 0 ? -x : x; continue;
      case KernelOp::Code::Signum: out = (x > 0) - (x < 0); continue;
      case KernelOp::Code::Popcount:
        if (x < 0) return false;
        out = std::popcount(static_cast<std::uint64_t>(x));
        continue;
      default:
        break;
    }
    const std::int64_t y = r[op->c];
    switch (op->code) {
      case KernelOp::Code::Add: out = x + y; break;
      case KernelOp::Code::Sub: out = x - y; break;
      case KernelOp::Code::Mul: out = x * y; break;
      case KernelOp::Code::Div:
        if (y == 0) return false;
        out = x / y;
        break;
      case KernelOp::Code::Mod:
        if (y == 0) return false;
        out = ((x % y) + y) % y;
        break;
      case KernelOp::Code::Eq: out = x == y; break;
      case KernelOp::Code::Ne: out = x != y; break;
      case KernelOp::Code::Lt: out = x < y; break;
      case KernelOp::Code::Le: out = x <= y; break;
      case KernelOp::Code::Gt: out = x > y; break;
      case KernelOp::Code::Ge: out = x >= y; break;
      case KernelOp::Code::Min: out = x < y ? x : y; break;
      case KernelOp::Code::Max: out = x < y ? y : x; break;
      case KernelOp::Code::Xor: out = x ^ y; break;
      case KernelOp::Code::BitAnd: out = x & y; break;
      case KernelOp::Code::Bit:
        if (y < 0 || y > 62) return false;
        out = (x >> y) & 1;
        break;
      default:
        FR_UNREACHABLE("bad kernel op");
    }
  }
  return true;
}

template <typename Read>
int RuleKernel::select(std::int64_t* r, const Read& read) const {
  if (!run(premise_ops_.data(), premise_ops_.data() + cheap_ops_end_, r,
           read))
    return kRaise;
  std::uint64_t flat = 0;
  for (const Axis& ax : cheap_) {
    std::uint64_t idx;
    if (!index_of(ax, r, &idx)) return kRaise;
    flat += idx * ax.stride;
  }
  std::int32_t cur = first_[static_cast<std::size_t>(flat)];
  while (cur >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const Axis& ax = deferred_[n.axis];
    std::uint64_t idx;
    if (!run(premise_ops_.data() + ax.op_begin,
             premise_ops_.data() + ax.op_end, r, read) ||
        !index_of(ax, r, &idx))
      return kRaise;
    cur = kids_[n.first + idx];
  }
  return -cur - 2;
}

}  // namespace flexrouter::rules
