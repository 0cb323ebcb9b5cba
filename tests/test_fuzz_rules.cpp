// Property/fuzz tests for the rule engine: randomly generated rule
// programs are executed both by the reference interpreter and through the
// compiled ARON tables; any divergence in selected rule, state effects,
// emitted events or RETURN values is a compiler bug. Also fuzzes the lexer/
// parser for crash-freedom on corrupted sources, and the compressed AOT
// tier and the RBR-kernel tier against the VM on randomly generated routing
// programs.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/lexer.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_injector.hpp"
#include "topology/hypercube.hpp"

namespace flexrouter::rules {
namespace {

/// Generates small random rule programs from a seed. The shapes cover the
/// compiler's whole feature-classification matrix: symbolic direct axes,
/// small-int direct axes, comparison atoms over wide ints, membership
/// tests, parameter axes, quantified atoms over indexed inputs, and
/// conclusions with parallel assignments, counters, FORALL expansion,
/// events and RETURNs.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzz;\n";
    os << "CONSTANT dirs = 4\n";
    os << "CONSTANT modes = {alpha, beta, gamma"
       << (rng_.next_bool(0.5) ? ", delta" : "") << "}\n";
    // State: one symbolic register, two integer registers (one small/direct,
    // one wide/atom), one array.
    os << "VARIABLE mode IN modes\n";
    os << "VARIABLE small IN 0 TO 3\n";
    os << "VARIABLE wide IN 0 TO 63\n";
    os << "VARIABLE slot[dirs] IN 0 TO 7\n";
    // Inputs: one symbolic, one small int, one wide int, one indexed.
    os << "INPUT sig IN modes\n";
    os << "INPUT tiny IN 0 TO 2\n";
    os << "INPUT big IN 0 TO 99\n";
    os << "INPUT chan(dirs) IN 0 TO 1\n";
    os << "ON step(d IN dirs) RETURNS 0 TO 7\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r) {
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    }
    os << "END step\n";
    return os.str();
  }

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      if (rng_.next_bool(0.3)) os << "NOT ";
      os << "(" << atom() << ")";
    }
    return os.str();
  }

  std::string atom() {
    switch (rng_.next_below(8)) {
      case 0: return std::string("mode = ") + sym();
      case 1: return std::string("sig = ") + sym();
      case 2: return "small " + cmp() + " " + std::to_string(rng_.next_below(4));
      case 3: return "wide " + cmp() + " " + std::to_string(rng_.next_below(64));
      case 4: return "big " + cmp() + " " + std::to_string(rng_.next_below(100));
      case 5: return "tiny = " + std::to_string(rng_.next_below(3));
      case 6: {
        std::ostringstream os;
        os << "sig IN {" << sym() << ", " << sym() << "}";
        return os.str();
      }
      default: {
        std::ostringstream os;
        os << (rng_.next_bool(0.5) ? "EXISTS" : "FORALL")
           << " i IN dirs: chan(i) = " << rng_.next_below(2);
        return os.str();
      }
    }
  }

  std::string conclusion() {
    const int cmds = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    // Track assigned targets to avoid parallel-write conflicts.
    bool used_mode = false, used_small = false, used_wide = false,
         used_ret = false, used_slot = false;
    for (int i = 0; i < cmds; ++i) {
      if (i) os << ", ";
      switch (rng_.next_below(7)) {
        case 0:
          if (used_mode) { os << "!noop(0)"; break; }
          used_mode = true;
          os << "mode <- " << sym();
          break;
        case 1:
          if (used_small) { os << "!noop(1)"; break; }
          used_small = true;
          os << "small <- min(small + 1, 3)";
          break;
        case 2:
          if (used_wide) { os << "!noop(2)"; break; }
          used_wide = true;
          os << (rng_.next_bool(0.5) ? "wide <- min(wide + 1, 63)"
                                     : "wide <- 0");
          break;
        case 3:
          if (used_slot) { os << "!noop(3)"; break; }
          used_slot = true;
          os << "slot(d) <- " << rng_.next_below(8);
          break;
        case 4:
          if (used_slot) { os << "!noop(4)"; break; }
          used_slot = true;
          os << "FORALL i IN dirs: slot(i) <- " << rng_.next_below(8);
          break;
        case 5:
          if (used_ret) { os << "!noop(5)"; break; }
          used_ret = true;
          os << "RETURN(" << rng_.next_below(8) << ")";
          break;
        default:
          os << "!emit(d, " << rng_.next_below(16) << ")";
          break;
      }
    }
    return os.str();
  }

  std::string sym() {
    static const char* names[] = {"alpha", "beta", "gamma"};
    return names[rng_.next_below(3)];
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

struct FuzzParam {
  std::uint64_t seed;
};

class RuleFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RuleFuzz, CompiledTableMatchesInterpreter) {
  ProgramGenerator gen(GetParam().seed);
  const std::string source = gen.generate();
  SCOPED_TRACE(source);

  Program prog;
  ASSERT_NO_THROW(prog = parse_program(source));

  EventManager direct(prog, ExecMode::Interpret);
  EventManager table(prog, ExecMode::Table);
  EventManager vm(prog, ExecMode::Vm);
  // Aot at the engine level must behave exactly as the VM (the decision
  // table lives a layer up, in RuleDrivenRouting).
  EventManager aot(prog, ExecMode::Aot);

  Rng rng(GetParam().seed ^ 0xf00dULL);
  std::int64_t sig_idx = 0, tiny = 0, big = 0;
  std::int64_t chan[4] = {0, 0, 0, 0};
  const SymId alpha = prog.syms.lookup("alpha");
  const InputFn inputs = [&](const std::string& name,
                             const std::vector<Value>& idx) -> Value {
    if (name == "sig") return Value::make_sym(alpha + static_cast<SymId>(sig_idx));
    if (name == "tiny") return Value::make_int(tiny);
    if (name == "big") return Value::make_int(big);
    if (name == "chan") return Value::make_int(chan[idx[0].as_int()]);
    throw std::logic_error("input " + name);
  };
  direct.set_input_provider(inputs);
  table.set_input_provider(inputs);
  vm.set_input_provider(inputs);
  aot.set_input_provider(inputs);

  for (int iter = 0; iter < 400; ++iter) {
    sig_idx = static_cast<std::int64_t>(rng.next_below(3));
    tiny = static_cast<std::int64_t>(rng.next_below(3));
    big = static_cast<std::int64_t>(rng.next_below(100));
    for (auto& c : chan) c = static_cast<std::int64_t>(rng.next_below(2));
    const auto d = Value::make_int(static_cast<std::int64_t>(rng.next_below(4)));

    const FireResult a = direct.fire("step", {d});
    const FireResult b = table.fire("step", {d});
    const FireResult c = vm.fire("step", {d});
    const FireResult e = aot.fire("step", {d});
    for (const FireResult* other : {&b, &c, &e}) {
      ASSERT_EQ(a.rule_index, other->rule_index) << "iteration " << iter;
      ASSERT_EQ(a.returned.has_value(), other->returned.has_value());
      if (a.returned) {
        ASSERT_TRUE(*a.returned == *other->returned);
      }
      ASSERT_EQ(a.events.size(), other->events.size());
      for (std::size_t e = 0; e < a.events.size(); ++e) {
        ASSERT_EQ(a.events[e].name, other->events[e].name);
        ASSERT_EQ(a.events[e].args.size(), other->events[e].args.size());
        for (std::size_t k = 0; k < a.events[e].args.size(); ++k)
          ASSERT_TRUE(a.events[e].args[k] == other->events[e].args[k]);
      }
    }
    ASSERT_TRUE(direct.env() == table.env()) << "iteration " << iter;
    ASSERT_TRUE(direct.env() == vm.env()) << "iteration " << iter;
    ASSERT_TRUE(direct.env() == aot.env()) << "iteration " << iter;
  }
}

std::vector<FuzzParam> fuzz_seeds() {
  std::vector<FuzzParam> out;
  for (std::uint64_t s = 1; s <= 40; ++s) out.push_back({s * 7919});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzz, ::testing::ValuesIn(fuzz_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// ----------------------------------------- corpus-wide differential fuzzing
// Fire every rule base of the shipped NAFTA and ROUTE_C corpora in both
// execution modes under randomized inputs (memoized per firing so both
// engines observe identical signals) and require bit-identical behaviour.
class CorpusFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusFuzz, BothEnginesAgreeOnRandomInputs) {
  std::string source;
  if (std::string(GetParam()) == "nafta")
    source = flexrouter::rulebases::nafta_program_source(8, 8);
  else
    source = flexrouter::rulebases::route_c_program_source(4, 2);
  const Program prog = parse_program(source);

  EventManager direct(prog, ExecMode::Interpret);
  EventManager table(prog, ExecMode::Table);
  EventManager vm(prog, ExecMode::Vm);
  EventManager aot(prog, ExecMode::Aot);

  Rng rng(0xc0ffee);
  // Memoized random inputs: one value per (name, indices) per iteration.
  std::map<std::string, Value> memo;
  auto key = [&](const std::string& name, const std::vector<Value>& idx) {
    std::string k = name;
    for (const Value& v : idx) k += "/" + v.to_string(prog.syms);
    return k;
  };
  const InputFn inputs = [&](const std::string& name,
                             const std::vector<Value>& idx) {
    const std::string k = key(name, idx);
    const auto it = memo.find(k);
    if (it != memo.end()) return it->second;
    const InputDecl* decl = prog.find_input(name);
    FR_REQUIRE(decl != nullptr);
    const Value v =
        decl->domain.value_at(rng.next_below(decl->domain.cardinality()));
    memo.emplace(k, v);
    return v;
  };
  direct.set_input_provider(inputs);
  table.set_input_provider(inputs);
  vm.set_input_provider(inputs);
  aot.set_input_provider(inputs);

  for (int iter = 0; iter < 600; ++iter) {
    memo.clear();
    const RuleBase& rb = prog.rule_bases[rng.next_below(
        prog.rule_bases.size())];
    std::vector<Value> args;
    for (const Param& p : rb.params)
      args.push_back(p.domain.value_at(rng.next_below(p.domain.cardinality())));

    std::optional<FireResult> a, b, c, d;
    bool a_threw = false, b_threw = false, c_threw = false, d_threw = false;
    try {
      a = direct.fire(rb.name, args);
    } catch (const ContractViolation&) {
      a_threw = true;
    }
    try {
      b = table.fire(rb.name, args);
    } catch (const ContractViolation&) {
      b_threw = true;
    }
    try {
      c = vm.fire(rb.name, args);
    } catch (const ContractViolation&) {
      c_threw = true;
    }
    try {
      d = aot.fire(rb.name, args);
    } catch (const ContractViolation&) {
      d_threw = true;
    }
    ASSERT_EQ(a_threw, b_threw) << rb.name << " iteration " << iter;
    ASSERT_EQ(a_threw, c_threw) << rb.name << " iteration " << iter;
    ASSERT_EQ(a_threw, d_threw) << rb.name << " iteration " << iter;
    if (a_threw) {
      // A domain-range violation may have committed partial state in one
      // engine's env copy semantics; resynchronise all to keep comparing.
      direct.reset_state();
      table.reset_state();
      vm.reset_state();
      aot.reset_state();
      continue;
    }
    for (const auto* other : {&b, &c, &d}) {
      ASSERT_EQ(a->rule_index, (*other)->rule_index)
          << rb.name << " iter " << iter;
      ASSERT_EQ(a->returned.has_value(), (*other)->returned.has_value());
      if (a->returned) {
        ASSERT_TRUE(*a->returned == *(*other)->returned);
      }
      ASSERT_EQ(a->events.size(), (*other)->events.size());
    }
    // Process the generated event cascades in all engines (self-handled
    // events like update_state re-fire; unhandled ones drop) and require
    // the accumulated register state to stay identical.
    try {
      direct.drain();
      table.drain();
      vm.drain();
      aot.drain();
    } catch (const ContractViolation&) {
      direct.reset_state();
      table.reset_state();
      vm.reset_state();
      aot.reset_state();
      continue;
    }
    ASSERT_TRUE(direct.env() == table.env()) << rb.name << " iter " << iter;
    ASSERT_TRUE(direct.env() == vm.env()) << rb.name << " iter " << iter;
    ASSERT_TRUE(direct.env() == aot.env()) << rb.name << " iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusFuzz,
                         ::testing::Values("nafta", "route_c"));

// ------------------------------------------- compressed-tier routing fuzz
// Random e-cube-shaped decision programs: every node/dest read sits inside
// xor(node, dest) or a direct node-dest comparison, which is exactly the
// shape the XorFold classifier must accept. A budget below the full
// premise space then forces the compressed table; the fill's exhaustive
// validation plus an external premise-space walk require it bit-identical
// to the VM. The lane is gated on classifier applicability — a program the
// classifier (conservatively) rejects is skipped, not failed — but the
// generator's shapes should qualify essentially always.
class XorRouteGenerator {
 public:
  explicit XorRouteGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzzxor;\n"
       << "CONSTANT dim = " << kDim << "\n"
       << "CONSTANT maxnode = " << ((1 << kDim) - 1) << "\n"
       << "INPUT node IN 0 TO maxnode\n"
       << "INPUT dest IN 0 TO maxnode\n"
       << "INPUT in_port IN 0 TO dim\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "ON route\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    // Catch-all that reads no id input raw (a bare `node >= 0` would
    // rightly block the classifier).
    os << "  IF in_port >= 0 THEN !cand(dim, 0, 0);\n"
       << "END route;\n";
    return os.str();
  }

  static constexpr int kDim = 3;

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      switch (rng_.next_below(4)) {
        case 0:
          os << "bit(xor(node, dest), " << rng_.next_below(kDim)
             << ") = " << rng_.next_below(2);
          break;
        case 1:
          os << "in_vc = " << rng_.next_below(2);
          break;
        case 2:
          os << "in_port " << cmp() << " " << rng_.next_below(kDim + 1);
          break;
        default:
          os << "node " << (rng_.next_bool(0.5) ? "=" : "<>") << " dest";
          break;
      }
    }
    return os.str();
  }

  std::string conclusion() {
    const int cands = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < cands; ++i) {
      if (i) os << ", ";
      os << "!cand(" << rng_.next_below(kDim + 1) << ", "
         << rng_.next_below(2) << ", " << rng_.next_below(4) << ")";
    }
    return os.str();
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

TEST(CompressedFuzz, XorFoldProgramsMatchVmOverFullPremiseSpace) {
  constexpr int kDim = XorRouteGenerator::kDim;
  flexrouter::Hypercube topo(kDim);
  // Full premise space: N * N * (degree + 2) * (vcs + 1).
  const std::uint64_t full = std::uint64_t{1} << (2 * kDim);
  const std::uint64_t full_entries =
      full * static_cast<std::uint64_t>(kDim + 2) * 3;
  int compressed = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    XorRouteGenerator gen(seed * 52361);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    flexrouter::FaultSet f(topo);
    flexrouter::RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    flexrouter::RuleDrivenRouting aot(source, 2, ExecMode::Aot);
    aot.set_aot_budget(full_entries / 2);
    vm.attach(topo, f);
    aot.attach(topo, f);
    const auto ti = aot.aot_tier_info();
    if (ti.classifier == DestClassifier::None) continue;  // gated lane
    // An eligible program must land on the compressed table, not demote:
    // at this size the fill validates every premise point exhaustively, so
    // a demotion here means the classifier accepted a shape it shouldn't.
    ASSERT_EQ(ti.tier, flexrouter::RuleDrivenRouting::AotTier::Compressed)
        << ti.reason;
    ++compressed;
    for (flexrouter::NodeId n = 0; n < topo.num_nodes(); ++n) {
      for (flexrouter::NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
        for (flexrouter::PortId p = -1; p <= topo.degree(); ++p) {
          for (flexrouter::VcId v = -1; v < 2; ++v) {
            flexrouter::RouteContext ctx;
            ctx.node = n;
            ctx.dest = dst;
            ctx.src = n;
            ctx.in_port = p;
            ctx.in_vc = v;
            bool vm_threw = false, aot_threw = false;
            flexrouter::RouteDecision want, got;
            try {
              want = vm.route(ctx);
            } catch (const ContractViolation&) {
              vm_threw = true;
            } catch (const EvalError&) {
              vm_threw = true;
            }
            try {
              got = aot.route(ctx);
            } catch (const ContractViolation&) {
              aot_threw = true;
            } catch (const EvalError&) {
              aot_threw = true;
            }
            ASSERT_EQ(vm_threw, aot_threw)
                << "node=" << n << " dest=" << dst << " p=" << p
                << " v=" << v;
            if (vm_threw) continue;
            ASSERT_EQ(want.steps, got.steps)
                << "node=" << n << " dest=" << dst << " p=" << p
                << " v=" << v;
            ASSERT_EQ(want.candidates.size(), got.candidates.size());
            for (std::size_t i = 0; i < want.candidates.size(); ++i)
              ASSERT_TRUE(want.candidates[i] == got.candidates[i])
                  << "cand " << i << " node=" << n << " dest=" << dst;
          }
        }
      }
    }
  }
  EXPECT_GT(compressed, 15);
}

// ------------------------------------------------- kernel-tier routing fuzz
// Random decision programs over the whole lowered subset: arithmetic,
// comparisons and builtins in the premises, a computed link_ok index,
// costly (deferred) dest_reachable atoms, and templates whose slots are
// expressions — or a RETURN. A budget of one entry keeps the premise-keyed
// tables off, so each program runs on the kernel, which must then match
// the bare VM over the full premise space (decision, steps, or the throw)
// before and after link faults.
class KernelRouteGenerator {
 public:
  explicit KernelRouteGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    const bool returns = rng_.next_bool(0.3);
    std::ostringstream os;
    os << "PROGRAM fuzzkernel;\n"
       << "CONSTANT dim = " << kDim << "\n"
       << "CONSTANT maxnode = " << ((1 << kDim) - 1) << "\n"
       << "INPUT node IN 0 TO maxnode\n"
       << "INPUT dest IN 0 TO maxnode\n"
       << "INPUT in_port IN 0 TO dim\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "INPUT injected IN 0 TO 1\n"
       << "INPUT dest_reachable IN 0 TO 1\n"
       << "INPUT link_ok(dim) IN 0 TO 1\n"
       << "ON route" << (returns ? " RETURNS 0 TO dim" : "") << "\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise() << " THEN "
         << (returns && rng_.next_bool(0.5) ? ret() : conclusion()) << ";\n";
    os << "  IF in_vc >= 0 THEN !cand(dim, 0, 0);\n"
       << "END route;\n";
    return os.str();
  }

  static constexpr int kDim = 3;

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.7) ? " AND " : " OR ");
      if (rng_.next_bool(0.1)) os << "NOT ";
      switch (rng_.next_below(9)) {
        case 0:
          os << "bit(xor(node, dest), " << rng_.next_below(kDim)
             << ") = " << rng_.next_below(2);
          break;
        case 1:
          os << "in_vc = " << rng_.next_below(2);
          break;
        case 2:
          os << "in_port " << cmp() << " " << rng_.next_below(kDim + 1);
          break;
        case 3:
          os << "link_ok(" << rng_.next_below(kDim) << ") = 1";
          break;
        case 4:
          os << "link_ok(in_port MOD dim) = " << rng_.next_below(2);
          break;
        case 5:
          os << "(node + dest) MOD " << 2 + rng_.next_below(3) << " "
             << cmp() << " " << rng_.next_below(2);
          break;
        case 6:
          os << "dest_reachable = " << rng_.next_below(2);
          break;
        case 7:
          os << (rng_.next_bool(0.5) ? "min" : "max") << "(node, dest) "
             << cmp() << " " << rng_.next_below(8);
          break;
        default:
          os << "node " << cmp() << " dest";
          break;
      }
    }
    return os.str();
  }

  std::string slot(int bound) {
    switch (rng_.next_below(4)) {
      case 0: return "min(in_vc, " + std::to_string(bound - 1) + ")";
      case 1: return "xor(node, dest) MOD " + std::to_string(bound);
      case 2: return "injected";
      default: return std::to_string(rng_.next_below(bound));
    }
  }

  std::string conclusion() {
    const int cands = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < cands; ++i) {
      if (i) os << ", ";
      os << "!cand(" << slot(kDim + 1) << ", " << slot(2) << ", "
         << (rng_.next_bool(0.5) ? "popcount(xor(node, dest))"
                                 : std::to_string(rng_.next_below(4)))
         << ")";
    }
    return os.str();
  }

  std::string ret() { return "RETURN(" + slot(kDim + 1) + ")"; }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

TEST(KernelFuzz, RandomRoutingProgramsMatchVmOnTheKernel) {
  constexpr int kDim = KernelRouteGenerator::kDim;
  flexrouter::Hypercube topo(kDim);
  const auto route = [](const flexrouter::RuleDrivenRouting& algo,
                        const flexrouter::RouteContext& ctx,
                        flexrouter::RouteDecision& d) {
    try {
      d = algo.route(ctx);
      return std::string();
    } catch (const ContractViolation& e) {
      return std::string(e.what());
    } catch (const EvalError& e) {
      return std::string(e.what());
    }
  };
  const auto lockstep = [&](const flexrouter::RuleDrivenRouting& vm,
                            const flexrouter::RuleDrivenRouting& kernel) {
    for (flexrouter::NodeId n = 0; n < topo.num_nodes(); ++n)
      for (flexrouter::NodeId dst = 0; dst < topo.num_nodes(); ++dst)
        for (flexrouter::PortId p = -1; p <= topo.degree(); ++p)
          for (flexrouter::VcId v = -1; v < 2; ++v) {
            flexrouter::RouteContext ctx;
            ctx.node = n;
            ctx.dest = dst;
            ctx.src = n;
            ctx.in_port = p;
            ctx.in_vc = v;
            flexrouter::RouteDecision want, got;
            const std::string want_err = route(vm, ctx, want);
            const std::string got_err = route(kernel, ctx, got);
            const std::string at = "node=" + std::to_string(n) +
                                   " dest=" + std::to_string(dst) +
                                   " p=" + std::to_string(p) +
                                   " v=" + std::to_string(v);
            ASSERT_EQ(want_err, got_err) << at;
            if (!want_err.empty()) continue;
            ASSERT_EQ(want.steps, got.steps) << at;
            ASSERT_EQ(want.candidates.size(), got.candidates.size()) << at;
            for (std::size_t i = 0; i < want.candidates.size(); ++i)
              ASSERT_TRUE(want.candidates[i] == got.candidates[i])
                  << "cand " << i << " " << at;
          }
  };
  int on_kernel = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    KernelRouteGenerator gen(seed * 7919);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    flexrouter::FaultSet f(topo);
    flexrouter::RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    flexrouter::RuleDrivenRouting kernel(source, 2, ExecMode::Aot);
    kernel.set_aot_budget(1);
    vm.attach(topo, f);
    kernel.attach(topo, f);
    const auto ti = kernel.aot_tier_info();
    if (ti.tier == flexrouter::RuleDrivenRouting::AotTier::Kernel) ++on_kernel;
    ASSERT_NO_FATAL_FAILURE(lockstep(vm, kernel));
    // The kernel answers itself except where an evaluation raises (here:
    // in_port = -1 against its declared 0..dim domain).
    EXPECT_LT(kernel.aot_tier_info().vm_decisions, 64 * 5 * 3 / 2);
    flexrouter::Rng rng(seed);
    flexrouter::inject_random_link_faults(f, 2, rng);
    vm.reconfigure();
    kernel.reconfigure();
    ASSERT_NO_FATAL_FAILURE(lockstep(vm, kernel));
  }
  // Every generated shape is inside the lowered subset.
  EXPECT_EQ(on_kernel, 30);
}

// ---------------------------------------------------------- parser fuzzing
TEST(ParserFuzz, CorruptedSourcesNeverCrash) {
  ProgramGenerator gen(101);
  const std::string base = gen.generate();
  Rng rng(2027);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    // Apply 1-4 random mutations: delete, duplicate or perturb characters.
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated.erase(pos, 1); break;
        case 1: mutated.insert(pos, 1, mutated[pos]); break;
        default:
          mutated[pos] = static_cast<char>(' ' + rng.next_below(94));
          break;
      }
    }
    try {
      const Program p = parse_program(mutated);
      ++parsed;  // still valid — fine
    } catch (const ParseError&) {
      ++rejected;  // clean rejection — fine
    } catch (const ContractViolation&) {
      ++rejected;  // domain-level rejection — fine
    }
    // Anything else (segfault, std::bad_alloc, uncaught logic_error)
    // fails the test by crashing or escaping.
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed + rejected, 0);
}

TEST(ParserFuzz, RandomTokenSoup) {
  static const char* tokens[] = {
      "IF",  "THEN", "ON",    "END",  "CONSTANT", "VARIABLE", "INPUT",
      "IN",  "TO",   "AND",   "OR",   "NOT",      "EXISTS",   "FORALL",
      "<-",  "=",    "<>",    "<",    ">",        "(",        ")",
      "{",   "}",    ",",     ";",    ":",        "!",        "RETURN",
      "x",   "y",    "dirs",  "42",   "7",        "foo",      "MOD",
      "min", "max",  "UNION", "abs"};
  Rng rng(31337);
  for (int iter = 0; iter < 300; ++iter) {
    std::ostringstream os;
    const int len = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < len; ++i)
      os << tokens[rng.next_below(std::size(tokens))] << " ";
    try {
      parse_program(os.str());
    } catch (const ParseError&) {
    } catch (const ContractViolation&) {
    }
  }
  SUCCEED();  // reaching here without a crash is the property
}

}  // namespace
}  // namespace flexrouter::rules
