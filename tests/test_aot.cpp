// AOT decision-table tests: the pre-resolved table must be indistinguishable
// from the tiers it accelerates, and the live hot-swap machinery must be
// invisible when it changes nothing.
//
//  * Three-way lockstep: interpreter, VM and AOT walk the complete premise
//    space (every (node, dest, in_port, in_vc) the table is built over) of
//    every shipped runnable rule base, fault-free and after random link
//    kills. Resolved points must agree on candidates AND decision cost;
//    points where one tier throws a contract violation (dynamically
//    unpresentable premise points — the fill marks them unreachable) must
//    throw in all three.
//  * The same lockstep over randomly generated routing programs (the
//    premise/conclusion shapes the soundness analysis classifies).
//  * Hot-swap identity: swapping a rule base for ITSELF at any cycle leaves
//    the SimResult bit-identical to the unswapped run, at 1/2/4/8 sweep
//    threads and 1/2/4 spatial shards.
//  * Quiescent swap accounting: a real program change drains, commits, and
//    loses nothing.
//  * Tier ladder: a narrowed budget forces the compressed (classifier) or
//    kernel (compiled rule table) tier, which must stay in lockstep with
//    the direct table and the VM over the full premise space.
//  * Kernel: forced on every runnable corpus program (8x8 meshes, 6-cube),
//    it must match the bare VM on every premise point before and after
//    seeded faults, and on sampled 64x64 ft_mesh points around a dead link
//    (escape_port conclusions); a second pass over a working set allocates
//    nothing and never reaches the VM.
//  * Rolling swap commits: per-shard commits produce bit-identical
//    SimResults at 1/2/4/8 execution shards and gate strictly fewer
//    node-cycles than a quiescent drain of the same swap.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>

#include "common/alloc_counter.hpp"
#include "common/rng.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

using rules::ExecMode;

struct CorpusCase {
  const char* name;
  std::string source;
  int vcs;
  VcId escape_vc;
  std::unique_ptr<Topology> topo;
};

std::vector<CorpusCase> corpus_cases() {
  std::vector<CorpusCase> cases;
  cases.push_back({"nara_8x8", rulebases::nara_route_source(8, 8), 2, -1,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ft_mesh_8x8", rulebases::ft_mesh_route_source(8, 8), 3, 2,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ecube_5cube", rulebases::ecube_route_source(5), 1, -1,
                   std::make_unique<Hypercube>(5)});
  cases.push_back({"ecube_msb_5cube", rulebases::ecube_msb_route_source(5), 1,
                   -1, std::make_unique<Hypercube>(5)});
  return cases;
}

/// One tier's answer at a premise point: a decision, or "it threw".
struct PointResult {
  bool threw = false;
  RouteDecision d;
};

PointResult route_point(const RuleDrivenRouting& algo,
                        const RouteContext& ctx) {
  PointResult r;
  try {
    r.d = algo.route(ctx);
  } catch (const ContractViolation&) {
    r.threw = true;
  } catch (const rules::EvalError&) {
    // Collapsed-axis premise points (in_port/in_vc = -1) outside a declared
    // input domain: thrown alike by every tier.
    r.threw = true;
  }
  return r;
}

std::string describe(const RouteContext& ctx) {
  std::ostringstream os;
  os << "node=" << ctx.node << " dest=" << ctx.dest
     << " in_port=" << ctx.in_port << " in_vc=" << ctx.in_vc;
  return os.str();
}

void expect_same(const PointResult& a, const PointResult& b,
                 const char* tier, const RouteContext& ctx) {
  ASSERT_EQ(a.threw, b.threw) << tier << " at " << describe(ctx);
  if (a.threw) return;
  ASSERT_EQ(a.d.steps, b.d.steps) << tier << " at " << describe(ctx);
  ASSERT_EQ(a.d.candidates.size(), b.d.candidates.size())
      << tier << " at " << describe(ctx);
  for (std::size_t i = 0; i < a.d.candidates.size(); ++i) {
    EXPECT_EQ(a.d.candidates[i].port, b.d.candidates[i].port)
        << tier << " cand " << i << " at " << describe(ctx);
    EXPECT_EQ(a.d.candidates[i].vc, b.d.candidates[i].vc)
        << tier << " cand " << i << " at " << describe(ctx);
    EXPECT_EQ(a.d.candidates[i].priority, b.d.candidates[i].priority)
        << tier << " cand " << i << " at " << describe(ctx);
  }
}

/// Walk the full premise space the AOT table is built over — including the
/// collapsed -1 axes and injection arrivals — and require the three tiers
/// to agree point by point (same decision, same steps, or the same throw).
void lockstep_premise_space(const Topology& topo,
                            const RuleDrivenRouting& interp,
                            const RuleDrivenRouting& vm,
                            const RuleDrivenRouting& aot, int vcs) {
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      for (PortId p = -1; p <= topo.degree(); ++p) {
        for (VcId v = -1; v < vcs; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          const PointResult a = route_point(interp, ctx);
          const PointResult b = route_point(vm, ctx);
          const PointResult c = route_point(aot, ctx);
          ASSERT_NO_FATAL_FAILURE(expect_same(a, b, "vm", ctx));
          ASSERT_NO_FATAL_FAILURE(expect_same(a, c, "aot", ctx));
        }
      }
    }
  }
}

class AotCorpusLockstep : public ::testing::TestWithParam<int> {};

TEST_P(AotCorpusLockstep, ThreeTiersAgreeOnEveryPremisePoint) {
  CorpusCase cs = std::move(corpus_cases()[GetParam()]);
  SCOPED_TRACE(cs.name);
  FaultSet f(*cs.topo);
  RuleDrivenRouting interp(cs.source, cs.vcs, ExecMode::Interpret, "route",
                           cs.escape_vc);
  RuleDrivenRouting vm(cs.source, cs.vcs, ExecMode::Vm, "route",
                       cs.escape_vc);
  RuleDrivenRouting aot(cs.source, cs.vcs, ExecMode::Aot, "route",
                        cs.escape_vc);
  interp.attach(*cs.topo, f);
  vm.attach(*cs.topo, f);
  aot.attach(*cs.topo, f);
  ASSERT_TRUE(aot.aot_active()) << cs.name << " did not take the AOT tier";
  EXPECT_EQ(aot.aot_stats().fallback, 0u)
      << cs.name << " left presentable points to the VM";

  lockstep_premise_space(*cs.topo, interp, vm, aot, cs.vcs);

  // Same walk after live faults: the table is rebuilt for the new epoch
  // and must still match the tiers that decide from scratch.
  Rng rng(7);
  inject_random_link_faults(f, 4, rng);
  interp.reconfigure();
  vm.reconfigure();
  aot.reconfigure();
  ASSERT_TRUE(aot.aot_active());
  lockstep_premise_space(*cs.topo, interp, vm, aot, cs.vcs);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AotCorpusLockstep, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(
                               corpus_cases()[info.param].name);
                         });

// ------------------------------------------------------ forced tier ladder
// Halving the budget below the full premise space forces the fill off the
// direct tier: onto the compressed table where a classifier applies
// (nara -> offset-sign, ecube/ecube_msb -> xor-fold), onto the kernel
// where none does (ft_mesh reads escape_port). Either way the
// forced tier must stay in lockstep with the direct table and the VM over
// the complete premise space, fault-free and after link kills.
class AotForcedTierLockstep : public ::testing::TestWithParam<int> {};

TEST_P(AotForcedTierLockstep, ForcedTierAgreesWithDirectAndVm) {
  CorpusCase cs = std::move(corpus_cases()[GetParam()]);
  SCOPED_TRACE(cs.name);
  FaultSet f(*cs.topo);
  RuleDrivenRouting vm(cs.source, cs.vcs, ExecMode::Vm, "route",
                       cs.escape_vc);
  RuleDrivenRouting direct(cs.source, cs.vcs, ExecMode::Aot, "route",
                           cs.escape_vc);
  RuleDrivenRouting forced(cs.source, cs.vcs, ExecMode::Aot, "route",
                           cs.escape_vc);
  vm.attach(*cs.topo, f);
  direct.attach(*cs.topo, f);
  ASSERT_EQ(direct.aot_tier_info().tier, RuleDrivenRouting::AotTier::Direct);

  const std::uint64_t full = direct.aot_tier_info().full_entries;
  ASSERT_GT(full, 0u);
  forced.set_aot_budget(full / 2);
  forced.attach(*cs.topo, f);
  const RuleDrivenRouting::AotTierInfo ti = forced.aot_tier_info();
  if (ti.classifier != rules::DestClassifier::None) {
    EXPECT_EQ(ti.tier, RuleDrivenRouting::AotTier::Compressed)
        << ti.reason;
    EXPECT_GT(ti.compression_ratio, 1.0);
    EXPECT_EQ(forced.aot_stats().fallback, 0u);
  } else {
    EXPECT_EQ(ti.tier, RuleDrivenRouting::AotTier::Kernel) << ti.reason;
    EXPECT_GT(ti.compression_ratio, 1.0);
  }
  ASSERT_TRUE(forced.aot_active());

  lockstep_premise_space(*cs.topo, vm, direct, forced, cs.vcs);

  Rng rng(7);
  inject_random_link_faults(f, 4, rng);
  vm.reconfigure();
  direct.reconfigure();
  forced.reconfigure();
  ASSERT_TRUE(forced.aot_active());
  EXPECT_EQ(forced.aot_tier_info().tier, ti.tier)
      << "tier choice changed across the epoch";
  lockstep_premise_space(*cs.topo, vm, direct, forced, cs.vcs);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AotForcedTierLockstep,
                         ::testing::Range(0, 4), [](const auto& info) {
                           return std::string(
                               corpus_cases()[info.param].name);
                         });

// ---------------------------------------------------------------- kernel
// The runnable corpus on 8x8 meshes and the 6-cube, and a premise that
// reads escape_port.
std::vector<CorpusCase> kernel_cases() {
  std::vector<CorpusCase> cases;
  cases.push_back({"nara_8x8", rulebases::nara_route_source(8, 8), 2, -1,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ft_mesh_8x8", rulebases::ft_mesh_route_source(8, 8), 3, 2,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ecube_6cube", rulebases::ecube_route_source(6), 1, -1,
                   std::make_unique<Hypercube>(6)});
  cases.push_back({"ecube_msb_6cube", rulebases::ecube_msb_route_source(6), 1,
                   -1, std::make_unique<Hypercube>(6)});
  // escape_port in a premise: the VM raises where an escape-VC arrival has
  // no legal down hop, and it evaluates the atom before the in_port test
  // that makes it irrelevant. The kernel must not skip the read there.
  cases.push_back({"escape_premise_8x8",
                   "PROGRAM escape_premise;\n"
                   "INPUT xpos IN 0 TO 7\n"
                   "INPUT ypos IN 0 TO 7\n"
                   "INPUT xdes IN 0 TO 7\n"
                   "INPUT ydes IN 0 TO 7\n"
                   "INPUT in_port IN 0 TO 4\n"
                   "INPUT escape_port IN 0 TO 4\n"
                   "ON route\n"
                   "  IF xpos = xdes AND ypos = ydes THEN !cand(4, 0, 0);\n"
                   "  IF escape_port < 4 AND in_port = 0\n"
                   "    THEN !cand(escape_port, 2, 0);\n"
                   "  IF xpos >= 0 THEN !cand(4, 0, 1);\n"
                   "END route;\n",
                   3, 2, std::make_unique<Mesh>(std::vector<int>{8, 8})});
  return cases;
}

/// The route rule base's compiled table size: what the kernel tier serves.
std::uint64_t kernel_entries(const std::string& source) {
  const rules::Program prog = rules::parse_program(source);
  rules::Interpreter interp(prog);
  return rules::compile_rule_base(prog, prog.rule_base("route"), interp)
      .table_entries();
}

/// Kernel vs bare VM over the full premise space (same decision, same
/// steps, or the same throw).
void lockstep_kernel(const Topology& topo, const RuleDrivenRouting& vm,
                     const RuleDrivenRouting& kernel, int vcs) {
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst)
      for (PortId p = -1; p <= topo.degree(); ++p)
        for (VcId v = -1; v < vcs; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          ASSERT_NO_FATAL_FAILURE(expect_same(route_point(vm, ctx),
                                              route_point(kernel, ctx),
                                              "kernel", ctx));
        }
}

class AotKernelLockstep : public ::testing::TestWithParam<int> {};

// A budget of one entry keeps every premise-keyed table off, so the ladder
// lands on the kernel, whose size the budget does not bound.
TEST_P(AotKernelLockstep, KernelMatchesBareVmOnEveryPremisePoint) {
  CorpusCase cs = std::move(kernel_cases()[GetParam()]);
  SCOPED_TRACE(cs.name);
  FaultSet f(*cs.topo);
  RuleDrivenRouting vm(cs.source, cs.vcs, ExecMode::Vm, "route",
                       cs.escape_vc);
  RuleDrivenRouting kernel(cs.source, cs.vcs, ExecMode::Aot, "route",
                           cs.escape_vc);
  kernel.set_aot_budget(1);
  vm.attach(*cs.topo, f);
  kernel.attach(*cs.topo, f);
  const RuleDrivenRouting::AotTierInfo ti = kernel.aot_tier_info();
  ASSERT_EQ(ti.tier, RuleDrivenRouting::AotTier::Kernel) << ti.reason;
  EXPECT_EQ(ti.table_entries, kernel_entries(cs.source));
  EXPECT_GT(ti.kernel_axes, 0u);
  ASSERT_TRUE(kernel.aot_active());

  lockstep_kernel(*cs.topo, vm, kernel, cs.vcs);

  Rng rng(11);
  inject_random_link_faults(f, 4, rng);
  vm.reconfigure();
  kernel.reconfigure();
  ASSERT_TRUE(kernel.aot_active());
  EXPECT_EQ(kernel.aot_tier_info().tier, RuleDrivenRouting::AotTier::Kernel);
  lockstep_kernel(*cs.topo, vm, kernel, cs.vcs);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AotKernelLockstep, ::testing::Range(0, 5),
                         [](const auto& info) {
                           return std::string(
                               kernel_cases()[info.param].name);
                         });

// The 4096-node fabric the kernel exists for, with one dead link: every
// premise point at the link's two endpoints (where packets take the escape
// layer through `!cand(escape_port, 2, 0)`) plus random points elsewhere.
TEST(AotKernelTier, FtMesh64x64MatchesBareVmAroundADeadLink) {
  Mesh m = Mesh::two_d(64, 64);
  FaultSet f(m);
  const NodeId a = m.at(20, 33);
  f.fail_link(a, /*port=*/0);  // east
  const NodeId b = m.neighbor(a, 0);
  const std::string source = rulebases::ft_mesh_route_source(64, 64);
  RuleDrivenRouting vm(source, 3, ExecMode::Vm, "route", /*escape_vc=*/2);
  RuleDrivenRouting kernel(source, 3, ExecMode::Aot, "route",
                           /*escape_vc=*/2);
  vm.attach(m, f);
  kernel.attach(m, f);
  ASSERT_EQ(kernel.aot_tier_info().tier, RuleDrivenRouting::AotTier::Kernel)
      << kernel.aot_tier_info().reason;

  std::int64_t entered_escape = 0;  // off the escape VC, onto it
  const auto check = [&](const RouteContext& ctx) {
    const PointResult want = route_point(vm, ctx);
    const PointResult got = route_point(kernel, ctx);
    expect_same(want, got, "kernel", ctx);
    if (!want.threw && ctx.in_vc != 2 && !want.d.candidates.empty() &&
        want.d.candidates[0].vc == 2)
      ++entered_escape;
  };
  for (const NodeId n : {a, b})
    for (NodeId dst = 0; dst < m.num_nodes(); ++dst)
      for (PortId p = -1; p <= m.degree(); ++p)
        for (VcId v = -1; v < 3; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          check(ctx);
          if (::testing::Test::HasFailure()) return;
        }
  Rng rng(64);
  for (int i = 0; i < 20000; ++i) {
    RouteContext ctx;
    ctx.node = static_cast<NodeId>(rng.next_below(4096));
    ctx.dest = static_cast<NodeId>(rng.next_below(4096));
    ctx.src = ctx.node;
    ctx.in_port = static_cast<PortId>(rng.next_below(6)) - 1;
    ctx.in_vc = static_cast<VcId>(rng.next_below(4)) - 1;
    check(ctx);
    if (::testing::Test::HasFailure()) return;
  }
  // The endpoints send their dy = 0 traffic across the dead link into the
  // escape layer: 43 dests east of `a`, 20 west of `b`, every arrival.
  EXPECT_GT(entered_escape, 63);
}

// The kernel memoises nothing, so its steady state is its first pass: a
// second pass over a working set of decisions must never reach the VM and
// (the steady-state property) never touch the heap.
TEST(AotKernelTier, SecondPassAllocatesNothingAndNeverFallsBack) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  f.fail_link(m.at(3, 3), /*port=*/2);
  const std::string source = rulebases::ft_mesh_route_source(8, 8);
  RuleDrivenRouting vm(source, 3, ExecMode::Vm, "route", /*escape_vc=*/2);
  RuleDrivenRouting kernel(source, 3, ExecMode::Aot, "route",
                           /*escape_vc=*/2);
  kernel.set_aot_budget(1 << 15);  // below the 98304-point direct table
  vm.attach(m, f);
  kernel.attach(m, f);
  ASSERT_EQ(kernel.aot_tier_info().tier, RuleDrivenRouting::AotTier::Kernel)
      << kernel.aot_tier_info().reason;

  // Every decision the VM answers without throwing; the throwing points
  // are the VM's by design.
  std::vector<RouteContext> working_set;
  for (NodeId n = 0; n < m.num_nodes(); ++n)
    for (NodeId dst = 0; dst < m.num_nodes(); ++dst)
      for (PortId p = -1; p <= m.degree(); ++p)
        for (VcId v = -1; v < 3; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          const PointResult want = route_point(vm, ctx);
          if (want.threw) continue;
          working_set.push_back(ctx);
          expect_same(want, route_point(kernel, ctx), "kernel", ctx);
        }
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(working_set.size(), 50000u);
  EXPECT_EQ(kernel.aot_tier_info().vm_decisions, 0);

  const std::int64_t allocs_before = heap_alloc_count();
  std::size_t candidates = 0;
  for (const RouteContext& ctx : working_set)
    candidates += kernel.route(ctx).candidates.size();
  const std::int64_t allocs_after = heap_alloc_count();
  EXPECT_GT(candidates, working_set.size());
  EXPECT_EQ(kernel.aot_tier_info().vm_decisions, 0);
  if (heap_alloc_counting_enabled()) {
    EXPECT_EQ(allocs_after - allocs_before, 0)
        << "kernel route() touched the heap";
  }
}

// ------------------------------------------------- fuzzed routing programs
// Random stateless decision programs over the premise-keyed input catalog:
// bit tests on node/dest, arrival port/vc comparisons and link health, with
// 1-3 candidate conclusions per rule. The shapes cover what the soundness
// analysis must classify to enable (or refuse) the table.
class RouteProgramGenerator {
 public:
  explicit RouteProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzzroute;\n"
       << "CONSTANT dim = " << kDim << "\n"
       << "CONSTANT maxnode = " << ((1 << kDim) - 1) << "\n"
       << "INPUT node IN 0 TO maxnode\n"
       << "INPUT dest IN 0 TO maxnode\n"
       << "INPUT in_port IN 0 TO dim\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "INPUT link_ok(dim) IN 0 TO 1\n"
       << "ON route\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    // Catch-all so every premise point decides something.
    os << "  IF node >= 0 THEN !cand(dim, 0, 0);\n"
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
      switch (rng_.next_below(5)) {
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
        default:
          os << "node " << cmp() << " dest";
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

TEST(AotFuzz, RandomRoutingProgramsAgreeAcrossTiers) {
  constexpr int kDim = RouteProgramGenerator::kDim;
  Hypercube topo(kDim);
  int aot_engaged = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RouteProgramGenerator gen(seed * 104729);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    FaultSet f(topo);
    RuleDrivenRouting interp(source, 2, ExecMode::Interpret);
    RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    RuleDrivenRouting aot(source, 2, ExecMode::Aot);
    interp.attach(topo, f);
    vm.attach(topo, f);
    aot.attach(topo, f);
    if (aot.aot_active()) ++aot_engaged;
    lockstep_premise_space(topo, interp, vm, aot, 2);
  }
  // The generator only emits premise-keyed reads, so the analysis should
  // accept (and the table serve) essentially every program.
  EXPECT_GT(aot_engaged, 20);
}

// ------------------------------------------------------ hot-swap identity
/// `swap_metrics` also compares the swap accounting — used when both runs
/// schedule the same swap (the self-swap-vs-baseline checks compare a
/// swapped run against an unswapped one, where those fields differ by
/// construction).
bool bit_identical(const SimResult& a, const SimResult& b,
                   bool swap_metrics = false) {
  if (swap_metrics &&
      (a.rule_swaps != b.rule_swaps ||
       a.swap_gated_cycles != b.swap_gated_cycles ||
       a.swap_gated_node_cycles != b.swap_gated_node_cycles))
    return false;
  if (a.blocked_chain.size() != b.blocked_chain.size()) return false;
  for (std::size_t i = 0; i < a.blocked_chain.size(); ++i) {
    if (a.blocked_chain[i].node != b.blocked_chain[i].node ||
        a.blocked_chain[i].port != b.blocked_chain[i].port ||
        a.blocked_chain[i].vc != b.blocked_chain[i].vc ||
        a.blocked_chain[i].packet != b.blocked_chain[i].packet)
      return false;
  }
  return a.injected_packets == b.injected_packets &&
         a.delivered_packets == b.delivered_packets &&
         std::memcmp(&a.avg_latency, &b.avg_latency, sizeof(double)) == 0 &&
         std::memcmp(&a.p50_latency, &b.p50_latency, sizeof(double)) == 0 &&
         std::memcmp(&a.p99_latency, &b.p99_latency, sizeof(double)) == 0 &&
         std::memcmp(&a.avg_hops, &b.avg_hops, sizeof(double)) == 0 &&
         std::memcmp(&a.throughput, &b.throughput, sizeof(double)) == 0 &&
         std::memcmp(&a.avg_decision_steps, &b.avg_decision_steps,
                     sizeof(double)) == 0 &&
         a.packets_lost == b.packets_lost &&
         a.packets_unrecoverable == b.packets_unrecoverable &&
         a.deadlock_suspected == b.deadlock_suspected &&
         a.cycles_run == b.cycles_run;
}

constexpr Cycle kWarmup = 150;
constexpr Cycle kMeasure = 500;

/// One 6x6-mesh replica of the fault-tolerant rule program under the AOT
/// tier. `swap_at` >= 0 schedules a swap to `swap_source` (the same
/// program, for the identity checks) at that cycle.
SimResult run_mesh_point(std::uint64_t seed, int shards, Cycle swap_at,
                         const std::string& swap_source,
                         Simulator::RuleSwapPolicy policy =
                             Simulator::RuleSwapPolicy::Auto) {
  Mesh m = Mesh::two_d(6, 6);
  RuleDrivenRouting algo(rulebases::ft_mesh_route_source(6, 6), 3,
                         ExecMode::Aot, "route", /*escape_vc=*/2);
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  Network net(m, algo, ncfg);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = seed;
  Simulator sim(net, tr, cfg);
  if (swap_at >= 0) sim.schedule_rule_swap(swap_at, swap_source, policy);
  return sim.run();
}

TEST(AotHotSwap, SelfSwapAtAnyCycleIsBitIdentical) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const SimResult baseline = run_mesh_point(11, 1, -1, "");
  ASSERT_EQ(baseline.rule_swaps, 0);
  // Any cycle: during warmup, mid-measurement, near the end of the window.
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2,
                         kWarmup + kMeasure - 1}) {
    const SimResult swapped = run_mesh_point(11, 1, at, source);
    EXPECT_EQ(swapped.rule_swaps, 1) << "swap at " << at;
    EXPECT_EQ(swapped.swap_gated_cycles, 0) << "swap at " << at;
    EXPECT_TRUE(bit_identical(swapped, baseline))
        << "self-swap at cycle " << at << " perturbed the run";
  }
}

TEST(AotHotSwap, SelfSwapBitIdenticalAcrossShardCounts) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult one = run_mesh_point(13, 1, at, source);
  ASSERT_EQ(one.rule_swaps, 1);
  for (const int shards : {2, 4}) {
    const SimResult sharded = run_mesh_point(13, shards, at, source);
    EXPECT_EQ(sharded.rule_swaps, 1);
    EXPECT_TRUE(bit_identical(sharded, one, /*swap_metrics=*/true))
        << "self-swap differs at " << shards << " shards";
  }
}

TEST(AotHotSwap, SelfSwapBitIdenticalAcrossSweepThreads) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  std::vector<SweepPoint> points;
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2}) {
    for (const int shards : {1, 2}) {
      points.push_back({[at, shards, source](std::uint64_t seed) {
        return run_mesh_point(seed, shards, at, source);
      }});
    }
  }
  std::vector<SimResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 5;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(points);
    if (threads == 1) {
      reference = results;
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(bit_identical(results[i], reference[i],
                                /*swap_metrics=*/true))
          << "point " << i << " differs at " << threads << " threads";
  }
}

TEST(AotHotSwap, QuiescentProgramChangeDrainsAndLosesNothing) {
  constexpr int kDim = 4;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  Network net(topo, algo);
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 21;
  Simulator sim(net, tr, cfg);
  sim.schedule_rule_swap(kWarmup + kMeasure / 2,
                         rulebases::ecube_msb_route_source(kDim),
                         Simulator::RuleSwapPolicy::Quiescent);
  const SimResult r = sim.run();
  EXPECT_EQ(r.rule_swaps, 1);
  EXPECT_GT(r.swap_gated_cycles, 0);
  EXPECT_LT(r.swap_gated_cycles, kMeasure);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  // The swapped-in program is serving from a fresh, complete table.
  EXPECT_TRUE(algo.aot_active());
  EXPECT_EQ(algo.aot_stats().fallback, 0u);
}

// ---------------------------------------------------- rolling swap commits
// The per-shard rolling policy drains one spatial shard at a time: only
// the draining shard's uncommitted nodes stop injecting, so the downtime
// (gated node-cycles) must come in strictly under a quiescent drain of the
// same swap, with the whole-network injection gate never engaging.
TEST(AotRollingSwap, GatesStrictlyFewerNodeCyclesThanQuiescent) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult quiescent =
      run_mesh_point(17, 1, at, source, Simulator::RuleSwapPolicy::Quiescent);
  const SimResult rolling =
      run_mesh_point(17, 1, at, source, Simulator::RuleSwapPolicy::Rolling);
  ASSERT_EQ(quiescent.rule_swaps, 1);
  ASSERT_EQ(rolling.rule_swaps, 1);
  // Quiescent gates the whole network for the drain; rolling never engages
  // the global gate and pays only per-shard drains.
  EXPECT_GT(quiescent.swap_gated_cycles, 0);
  EXPECT_EQ(rolling.swap_gated_cycles, 0);
  EXPECT_GT(rolling.swap_gated_node_cycles, 0);
  EXPECT_LT(rolling.swap_gated_node_cycles, quiescent.swap_gated_node_cycles);
  EXPECT_FALSE(rolling.deadlock_suspected);
  EXPECT_EQ(rolling.delivered_packets + rolling.packets_unrecoverable,
            rolling.injected_packets);
}

// Rolling commits happen in the simulator's serial pre-step phase and the
// drain order is a property of the plan, not of the execution parallelism:
// the SimResult must be bit-identical at any shard count.
TEST(AotRollingSwap, BitIdenticalAcrossShardCounts) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult one =
      run_mesh_point(19, 1, at, source, Simulator::RuleSwapPolicy::Rolling);
  ASSERT_EQ(one.rule_swaps, 1);
  EXPECT_GT(one.swap_gated_node_cycles, 0);
  for (const int shards : {2, 4, 8}) {
    const SimResult sharded = run_mesh_point(
        19, shards, at, source, Simulator::RuleSwapPolicy::Rolling);
    EXPECT_TRUE(bit_identical(sharded, one, /*swap_metrics=*/true))
        << "rolling swap differs at " << shards << " execution shards";
  }
}

TEST(AotRollingSwap, BitIdenticalAcrossSweepThreads) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  std::vector<SweepPoint> points;
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2}) {
    for (const int shards : {1, 2}) {
      points.push_back({[at, shards, source](std::uint64_t seed) {
        return run_mesh_point(seed, shards, at, source,
                              Simulator::RuleSwapPolicy::Rolling);
      }});
    }
  }
  std::vector<SimResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 23;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(points);
    if (threads == 1) {
      reference = results;
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(bit_identical(results[i], reference[i],
                                /*swap_metrics=*/true))
          << "rolling point " << i << " differs at " << threads
          << " threads";
  }
}

// A rolling swap to a DIFFERENT program: the two programs coexist while
// the shards drain, and the swapped-in program ends up serving from a
// fresh, complete table with nothing lost in flight.
TEST(AotRollingSwap, ProgramChangeCommitsAndLosesNothing) {
  constexpr int kDim = 4;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  Network net(topo, algo);
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 29;
  Simulator sim(net, tr, cfg);
  sim.schedule_rule_swap(kWarmup + kMeasure / 2,
                         rulebases::ecube_msb_route_source(kDim),
                         Simulator::RuleSwapPolicy::Rolling);
  const SimResult r = sim.run();
  EXPECT_EQ(r.rule_swaps, 1);
  EXPECT_EQ(r.swap_gated_cycles, 0);
  EXPECT_GT(r.swap_gated_node_cycles, 0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  EXPECT_FALSE(algo.rolling_commit_active());
  EXPECT_TRUE(algo.aot_active());
  EXPECT_EQ(algo.aot_stats().fallback, 0u);
}

// A machine() poke (mutable per-node rule state access) must drop the
// table: decisions keep flowing through the VM until the next fill, and
// reconfigure() restores the table tier. Two inputs: NARA, where the poke
// changes nothing, and `regread`, whose decision returns a register the
// poke rewrites. The VM must see the new value at once, and the refilled
// table must answer it too — the fill reads the registers.
TEST(AotHotSwap, MachinePokeDropsTableUntilNextFill) {
  static const char* kRegRead =
      "PROGRAM regread;\n"
      "VARIABLE pref IN 0 TO 4\n"
      "INPUT node IN 0 TO 15\n"
      "INPUT dest IN 0 TO 15\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF node = dest THEN RETURN(4);\n"
      "  IF node <> dest THEN RETURN(pref);\n"
      "END route\n";
  Mesh m = Mesh::two_d(4, 4);
  RouteContext ctx;
  ctx.node = 0;
  ctx.dest = 5;
  ctx.src = 0;
  ctx.in_port = m.degree();
  ctx.in_vc = 0;
  const auto ports = [](const RouteDecision& d) {
    std::vector<std::pair<PortId, VcId>> out;
    for (const RouteCandidate& c : d.candidates) out.emplace_back(c.port, c.vc);
    return out;
  };
  for (const bool regread : {false, true}) {
    SCOPED_TRACE(regread ? "regread" : "nara");
    FaultSet f(m);
    RuleDrivenRouting algo(
        regread ? std::string(kRegRead) : rulebases::nara_route_source(4, 4),
        2, ExecMode::Aot);
    algo.attach(m, f);
    ASSERT_TRUE(algo.aot_active());
    const RouteDecision before = algo.route(ctx);
    // Hand out mutable state: conservative invalidation.
    rules::EventManager& em = algo.machine(ctx.node);
    if (regread) em.env().set("pref", 0, rules::Value::make_int(4));
    EXPECT_FALSE(algo.aot_active());
    const RouteDecision during = algo.route(ctx);  // the VM serves
    algo.reconfigure();
    EXPECT_TRUE(algo.aot_active());
    const RouteDecision after = algo.route(ctx);
    EXPECT_EQ(ports(during), ports(after));
    if (!regread) {
      EXPECT_EQ(ports(before), ports(during));
      continue;
    }
    // pref = 0 routes east on every VC; pref = 4 is the local port.
    ASSERT_FALSE(before.candidates.empty());
    EXPECT_EQ(before.candidates[0].port, 0);
    ASSERT_EQ(during.candidates.size(), 1u);
    EXPECT_EQ(during.candidates[0].port, m.degree());
  }
}

}  // namespace
}  // namespace flexrouter
