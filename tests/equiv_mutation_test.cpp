// Mutation harness for the translation validator (analysis/equiv.h):
// compile a real circuit, corrupt the artifact one defect class at a
// time, and prove each corruption is caught with its expected QFS code
// while the unmutated artifact validates clean. This is the detection
// proof the ISSUE demands — a validator that never fires is
// indistinguishable from one that always passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/equiv.h"
#include "backends/registry.h"
#include "circuit/circuit.h"
#include "compiler/decompose.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "isa/timed_program.h"
#include "mapper/pipeline.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/algorithms.h"

namespace qfs::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

/// One compiled artifact plus everything needed to (re)validate it.
struct Compiled {
  Circuit source{1};
  device::Device device = device::surface17_device();
  mapper::MappingResult result;
};

/// GHZ-like source with measurements, compiled with a router that is
/// guaranteed to insert swaps on surface-17 (the chain spans the chip).
Compiled compile_fixture(
    const device::Device& device = device::surface17_device()) {
  Compiled c;
  c.device = device;
  Circuit src(8, "mutant-fixture");
  src.h(0);
  for (int q = 0; q + 1 < 8; ++q) src.cx(q, q + 1);
  for (int q = 0; q < 8; ++q) src.measure(q);
  c.source = src;
  mapper::MappingOptions options;
  options.placer = "degree-match";
  options.router = "lookahead";
  qfs::Rng rng(7);
  c.result = mapper::map_circuit(c.source, c.device, options, rng);
  return c;
}

TranslationArtifact artifact_of(const Compiled& c, const Circuit& mapped) {
  TranslationArtifact a;
  a.mapped = &mapped;
  a.initial_layout = c.result.initial_layout;
  a.final_layout = c.result.final_layout;
  a.swaps_inserted = c.result.swaps_inserted;
  return a;
}

std::set<std::string> codes_of(const Compiled& c,
                               const TranslationArtifact& a) {
  std::set<std::string> codes;
  for (const Diagnostic& d : validate_translation(c.source, c.device, a)) {
    codes.insert(d.code);
  }
  return codes;
}

/// Rebuild `mapped` with one gate-level edit applied by the callback
/// (Circuit exposes no mutable gate access, deliberately).
template <typename Fn>
Circuit mutate_gates(const Circuit& mapped, Fn&& edit) {
  std::vector<Gate> gates = mapped.gates();
  edit(gates);
  Circuit out(mapped.num_qubits(), mapped.name());
  for (const Gate& g : gates) out.add(g);
  return out;
}

TEST(EquivMutation, FixtureInsertsSwapsAndValidatesClean) {
  Compiled c = compile_fixture();
  ASSERT_GT(c.result.swaps_inserted, 0)
      << "fixture must exercise permutation tracking";
  TranslationArtifact a = artifact_of(c, c.result.mapped);
  std::vector<Diagnostic> findings =
      validate_translation(c.source, c.device, a);
  EXPECT_TRUE(findings.empty())
      << render_diagnostics(findings, "fixture");
}

TEST(EquivMutation, TruncatedLayoutIsQFS101) {
  Compiled c = compile_fixture();
  TranslationArtifact a = artifact_of(c, c.result.mapped);
  a.initial_layout.pop_back();
  EXPECT_TRUE(codes_of(c, a).count("QFS101"));
}

TEST(EquivMutation, DuplicatePlacementIsQFS101) {
  Compiled c = compile_fixture();
  TranslationArtifact a = artifact_of(c, c.result.mapped);
  a.initial_layout[1] = a.initial_layout[0];  // two virtuals, one physical
  EXPECT_TRUE(codes_of(c, a).count("QFS101"));
}

TEST(EquivMutation, DuplicatedGateIsQFS102) {
  Compiled c = compile_fixture();
  // Duplicate the last gate (a measurement): the copy has no pending
  // source gate left to realize.
  Circuit mutated = mutate_gates(c.result.mapped, [](std::vector<Gate>& g) {
    g.push_back(g.back());
  });
  TranslationArtifact a = artifact_of(c, mutated);
  EXPECT_TRUE(codes_of(c, a).count("QFS102"));
}

TEST(EquivMutation, ReorderedDependentGatesAreQFS102) {
  Compiled c = compile_fixture();
  const auto& gates = c.result.mapped.gates();
  // Find two adjacent non-identical gates sharing a qubit: swapping them
  // breaks the per-qubit dependency order the matcher enforces.
  int pos = -1;
  for (int i = 0; i + 1 < static_cast<int>(gates.size()); ++i) {
    const Gate& x = gates[static_cast<std::size_t>(i)];
    const Gate& y = gates[static_cast<std::size_t>(i + 1)];
    if (x == y) continue;
    bool shared = false;
    for (int q : x.qubits) {
      shared = shared ||
               std::find(y.qubits.begin(), y.qubits.end(), q) != y.qubits.end();
    }
    if (shared) {
      pos = i;
      break;
    }
  }
  ASSERT_GE(pos, 0);
  Circuit mutated = mutate_gates(c.result.mapped, [pos](std::vector<Gate>& g) {
    std::swap(g[static_cast<std::size_t>(pos)],
              g[static_cast<std::size_t>(pos + 1)]);
  });
  TranslationArtifact a = artifact_of(c, mutated);
  std::set<std::string> codes = codes_of(c, a);
  // The misordered pair surfaces as an unmatched gate; depending on which
  // gate leads it can also look like a parameter mismatch on the same
  // source gate. Either way the artifact is rejected with a match error.
  EXPECT_TRUE(codes.count("QFS102") || codes.count("QFS104"))
      << "got: " << *codes.begin();
}

TEST(EquivMutation, DroppedGateIsQFS103) {
  Compiled c = compile_fixture();
  // Drop the final measurement: every other gate still matches, but one
  // source gate is never realized.
  Circuit mutated = mutate_gates(c.result.mapped,
                                 [](std::vector<Gate>& g) { g.pop_back(); });
  TranslationArtifact a = artifact_of(c, mutated);
  EXPECT_TRUE(codes_of(c, a).count("QFS103"));
}

TEST(EquivMutation, PerturbedParameterIsQFS104) {
  Compiled c = compile_fixture();
  const auto& gates = c.result.mapped.gates();
  int pos = -1;
  for (int i = 0; i < static_cast<int>(gates.size()); ++i) {
    if (!gates[static_cast<std::size_t>(i)].params.empty()) {
      pos = i;
      break;
    }
  }
  ASSERT_GE(pos, 0) << "fixture must contain a parametrised gate";
  Circuit mutated = mutate_gates(c.result.mapped, [pos](std::vector<Gate>& g) {
    g[static_cast<std::size_t>(pos)].params[0] += 1e-3;
  });
  TranslationArtifact a = artifact_of(c, mutated);
  EXPECT_TRUE(codes_of(c, a).count("QFS104"));
}

TEST(EquivMutation, RetargetedCouplerIsQFS105) {
  Compiled c = compile_fixture();
  const device::Topology& topology = c.device.topology();
  const auto& gates = c.result.mapped.gates();
  // Retarget one two-qubit gate onto a non-adjacent physical pair.
  int pos = -1;
  int bad = -1;
  for (int i = 0; i < static_cast<int>(gates.size()) && pos < 0; ++i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];
    if (g.qubits.size() != 2) continue;
    for (int p = 0; p < c.device.num_qubits(); ++p) {
      if (p == g.qubits[0] || topology.adjacent(g.qubits[0], p)) continue;
      pos = i;
      bad = p;
      break;
    }
  }
  ASSERT_GE(pos, 0);
  Circuit mutated =
      mutate_gates(c.result.mapped, [pos, bad](std::vector<Gate>& g) {
        g[static_cast<std::size_t>(pos)].qubits[1] = bad;
      });
  TranslationArtifact a = artifact_of(c, mutated);
  EXPECT_TRUE(codes_of(c, a).count("QFS105"));
}

TEST(EquivMutation, NonNativeGateIsQFS106) {
  Compiled c = compile_fixture();
  ASSERT_FALSE(c.device.gateset().supports(GateKind::kT));
  Circuit mutated = mutate_gates(c.result.mapped, [](std::vector<Gate>& g) {
    g.push_back(circuit::make_gate(GateKind::kT, {0}));
  });
  TranslationArtifact a = artifact_of(c, mutated);
  EXPECT_TRUE(codes_of(c, a).count("QFS106"));
}

TEST(EquivMutation, OffPermutationFinalLayoutIsQFS107) {
  Compiled c = compile_fixture();
  TranslationArtifact a = artifact_of(c, c.result.mapped);
  std::swap(a.final_layout[0], a.final_layout[1]);
  EXPECT_TRUE(codes_of(c, a).count("QFS107"));
}

TEST(EquivMutation, OffPermutationMeasurementIsCaught) {
  Compiled c = compile_fixture();
  const auto& gates = c.result.mapped.gates();
  // Redirect the last measurement to a different physical qubit: the
  // readout no longer observes the virtual qubit the source measured.
  int pos = -1;
  for (int i = static_cast<int>(gates.size()) - 1; i >= 0; --i) {
    if (gates[static_cast<std::size_t>(i)].kind == GateKind::kMeasure) {
      pos = i;
      break;
    }
  }
  ASSERT_GE(pos, 0);
  int other = (gates[static_cast<std::size_t>(pos)].qubits[0] + 1) %
              c.device.num_qubits();
  Circuit mutated =
      mutate_gates(c.result.mapped, [pos, other](std::vector<Gate>& g) {
        g[static_cast<std::size_t>(pos)].qubits[0] = other;
      });
  TranslationArtifact a = artifact_of(c, mutated);
  std::set<std::string> codes = codes_of(c, a);
  EXPECT_TRUE(codes.count("QFS102") || codes.count("QFS103"));
}

TEST(EquivMutation, WrongSwapCountIsQFS109) {
  Compiled c = compile_fixture();
  TranslationArtifact a = artifact_of(c, c.result.mapped);
  a.swaps_inserted += 1;
  EXPECT_TRUE(codes_of(c, a).count("QFS109"));
  a.swaps_inserted = -1;  // metadata withheld: the cross-check is skipped
  EXPECT_TRUE(codes_of(c, a).empty());
}

TEST(EquivMutation, ReversedCxOperandsAreQFS110) {
  // CX is order-sensitive, so use the IBM-style heavy-hex device whose
  // native two-qubit gate is CX (surface-17's CZ is symmetric, and a
  // reversed CZ still fails — but as a generic mismatch).
  Compiled c;
  c.device = device::heavy_hex27_device();
  Circuit src(6, "reversed-cx");
  src.h(0);
  for (int q = 0; q + 1 < 6; ++q) src.cx(q, q + 1);
  c.source = src;
  mapper::MappingOptions options;
  options.placer = "degree-match";
  options.router = "lookahead";
  qfs::Rng rng(3);
  c.result = mapper::map_circuit(c.source, c.device, options, rng);
  {
    TranslationArtifact a = artifact_of(c, c.result.mapped);
    ASSERT_TRUE(translation_is_valid(c.source, c.device, a));
  }

  const auto& gates = c.result.mapped.gates();
  // Reverse the operands of a CX that is not part of a swap expansion
  // (inside a swap window the reversal re-shapes the window instead of
  // producing a clean operand-order finding). Mutate each candidate until
  // one yields QFS110.
  bool found = false;
  for (int i = 0; i < static_cast<int>(gates.size()) && !found; ++i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];
    if (g.kind != GateKind::kCx) continue;
    Circuit mutated = mutate_gates(c.result.mapped, [i](std::vector<Gate>& m) {
      std::swap(m[static_cast<std::size_t>(i)].qubits[0],
                m[static_cast<std::size_t>(i)].qubits[1]);
    });
    TranslationArtifact a = artifact_of(c, mutated);
    std::set<std::string> codes = codes_of(c, a);
    EXPECT_FALSE(codes.empty()) << "reversed CX at " << i << " not caught";
    found = codes.count("QFS110") > 0;
  }
  EXPECT_TRUE(found) << "no reversed CX produced an operand-order finding";
}

TEST(EquivMutation, LegalityFindingsPrecedeMatcherFindings) {
  // Early in the mapped circuit, reverse an adjacent CX (a matcher finding,
  // QFS110); later, retarget a two-qubit gate onto a dead coupler (a
  // legality finding, QFS105). Legality findings come first whatever their
  // gate index, and the matcher's are dropped once legality fills the
  // budget.
  Compiled c;
  c.device = device::heavy_hex27_device();
  Circuit src(6, "legality-order");
  src.h(0);
  for (int q = 0; q + 1 < 6; ++q) src.cx(q, q + 1);
  c.source = src;
  mapper::MappingOptions options;
  options.placer = "degree-match";
  options.router = "lookahead";
  qfs::Rng rng(3);
  c.result = mapper::map_circuit(c.source, c.device, options, rng);
  const auto& gates = c.result.mapped.gates();
  const device::Topology& topology = c.device.topology();
  auto reverse_at = [](int i) {
    return [i](std::vector<Gate>& m) {
      std::swap(m[static_cast<std::size_t>(i)].qubits[0],
                m[static_cast<std::size_t>(i)].qubits[1]);
    };
  };

  // The first CX whose reversal alone is reported as QFS110.
  int reversed = -1;
  for (int i = 0; i < static_cast<int>(gates.size()) && reversed < 0; ++i) {
    if (gates[static_cast<std::size_t>(i)].kind != GateKind::kCx) continue;
    Circuit mutated = mutate_gates(c.result.mapped, reverse_at(i));
    if (codes_of(c, artifact_of(c, mutated)) ==
        std::set<std::string>{"QFS110"}) {
      reversed = i;
    }
  }
  ASSERT_GE(reversed, 0);
  // The last two-qubit gate, retargeted onto a physical qubit its first
  // operand shares no coupler with.
  int retargeted = -1;
  int dead = -1;
  for (int i = static_cast<int>(gates.size()) - 1;
       i > reversed && retargeted < 0; --i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];
    if (g.qubits.size() != 2) continue;
    for (int p = 0; p < c.device.num_qubits(); ++p) {
      if (p == g.qubits[0] || p == g.qubits[1] ||
          topology.adjacent(g.qubits[0], p)) {
        continue;
      }
      retargeted = i;
      dead = p;
      break;
    }
  }
  ASSERT_GT(retargeted, reversed);

  Circuit mutated = mutate_gates(c.result.mapped, reverse_at(reversed));
  mutated = mutate_gates(mutated, [retargeted, dead](std::vector<Gate>& m) {
    m[static_cast<std::size_t>(retargeted)].qubits[1] = dead;
  });
  TranslationArtifact a = artifact_of(c, mutated);
  auto codes = [&](int max_diagnostics) {
    EquivOptions eo;
    eo.max_diagnostics = max_diagnostics;
    std::vector<std::string> out;
    for (const Diagnostic& d : validate_translation(c.source, c.device, a, eo))
      out.push_back(d.code);
    return out;
  };
  EXPECT_EQ(codes(EquivOptions{}.max_diagnostics),
            (std::vector<std::string>{"QFS105", "QFS110"}));
  EXPECT_EQ(codes(1), std::vector<std::string>{"QFS105"});
}

TEST(EquivMutation, ScheduleCorruptionIsQFS108) {
  Compiled c = compile_fixture();
  compiler::ScheduleOptions sched;
  compiler::Schedule schedule =
      compiler::asap_schedule(c.result.mapped, c.device, sched);
  isa::TimedProgram program =
      isa::lower_to_timed_program(c.result.mapped, schedule);
  {
    TranslationArtifact a = artifact_of(c, c.result.mapped);
    a.timed = &program;
    EXPECT_TRUE(codes_of(c, a).empty()) << "clean schedule must validate";
  }

  // (a) Non-positive duration.
  {
    std::vector<isa::Bundle> bundles = program.bundles();
    ASSERT_FALSE(bundles.empty());
    ASSERT_FALSE(bundles.front().instructions.empty());
    bundles.front().instructions.front().duration_cycles = 0;
    isa::TimedProgram mutated(program.name(), program.cycle_time_ns(),
                              program.num_qubits(), std::move(bundles));
    TranslationArtifact a = artifact_of(c, c.result.mapped);
    a.timed = &mutated;
    EXPECT_TRUE(codes_of(c, a).count("QFS108"));
  }

  // (b) Double-booking: stretch one instruction across the rest of the
  // program so it overlaps every later use of its qubit.
  {
    std::vector<isa::Bundle> bundles = program.bundles();
    bundles.front().instructions.front().duration_cycles = 100000;
    isa::TimedProgram mutated(program.name(), program.cycle_time_ns(),
                              program.num_qubits(), std::move(bundles));
    TranslationArtifact a = artifact_of(c, c.result.mapped);
    a.timed = &mutated;
    EXPECT_TRUE(codes_of(c, a).count("QFS108"));
  }

  // (c) The program must carry the mapped circuit's gates: change one
  // instruction's kind.
  {
    std::vector<isa::Bundle> bundles = program.bundles();
    isa::Instruction& instr = bundles.front().instructions.front();
    instr.kind = instr.kind == GateKind::kRy ? GateKind::kRz : GateKind::kRy;
    instr.params = std::vector<double>(
        static_cast<std::size_t>(circuit::gate_param_count(instr.kind)), 0.25);
    isa::TimedProgram mutated(program.name(), program.cycle_time_ns(),
                              program.num_qubits(), std::move(bundles));
    TranslationArtifact a = artifact_of(c, c.result.mapped);
    a.timed = &mutated;
    EXPECT_TRUE(codes_of(c, a).count("QFS108"));
  }
}

TEST(EquivMutation, MaxDiagnosticsBoundsTheCascade) {
  Compiled c = compile_fixture();
  // Scramble everything: structure stays legal but nothing matches.
  Circuit mutated = mutate_gates(c.result.mapped, [](std::vector<Gate>& g) {
    std::reverse(g.begin(), g.end());
  });
  TranslationArtifact a = artifact_of(c, mutated);
  EquivOptions options;
  options.max_diagnostics = 2;
  std::vector<Diagnostic> findings =
      validate_translation(c.source, c.device, a, options);
  EXPECT_FALSE(findings.empty());
  EXPECT_LE(static_cast<int>(findings.size()), 2);
}

/// Direct lowering of `c` as the pipeline emits it.
std::vector<Gate> lowered(const Circuit& c, const device::GateSet& gateset) {
  return compiler::decompose_to_gateset(compiler::expand_swaps(c), gateset)
      .gates();
}

/// (start, length) of every inserted SWAP window in the mapped circuit,
/// found by scanning for the pipeline's own lowering of swap(a,b) on each
/// coupler orientation.
std::vector<std::pair<int, int>> swap_windows(const Compiled& c) {
  const auto& gates = c.result.mapped.gates();
  std::vector<std::vector<Gate>> templates;
  for (const auto& [a, b] : c.device.topology().edge_list()) {
    for (int flip = 0; flip < 2; ++flip) {
      Circuit s(c.device.num_qubits());
      s.swap(flip ? b : a, flip ? a : b);
      templates.push_back(lowered(s, c.device.gateset()));
    }
  }
  std::vector<std::pair<int, int>> windows;
  for (std::size_t i = 0; i < gates.size();) {
    std::size_t length = 0;
    for (const auto& t : templates) {
      if (i + t.size() <= gates.size() &&
          std::equal(t.begin(), t.end(), gates.begin() + i)) {
        length = t.size();
        break;
      }
    }
    if (length == 0) {
      ++i;
      continue;
    }
    windows.emplace_back(static_cast<int>(i), static_cast<int>(length));
    i += length;
  }
  return windows;
}

TEST(EquivDiagnosticsGolden, SwapWindowMutantsMatchGolden) {
  // One device per swap-template path of the matcher: CX (heavyhex27),
  // Ry/CZ (surface17) and CZ-only without Ry (sycamore). Every gate of
  // every inserted SWAP window is mutated four ways; each mutant must be
  // rejected, and the rendered diagnostics of all of them (plus the clean
  // artifacts) are pinned to one digest, so a validator rewrite keeps its
  // verdicts and its text byte-identical.
  auto sycamore = backends::make_device("sycamore(rows=5,cols=4)");
  ASSERT_TRUE(sycamore.is_ok());
  const device::Device devices[] = {device::heavy_hex27_device(),
                                    device::surface17_device(),
                                    sycamore.value()};
  qfs::Hasher hasher;
  int mutants = 0;
  for (const device::Device& dev : devices) {
    SCOPED_TRACE(dev.name());
    Compiled c = compile_fixture(dev);
    const device::Topology& topology = dev.topology();
    auto record = [&](const std::string& label, const Circuit& mapped) {
      TranslationArtifact a = artifact_of(c, mapped);
      std::string text = render_diagnostics(
          validate_translation(c.source, c.device, a), dev.name());
      hasher.update(label + "\n" + text);
      return text;
    };
    EXPECT_EQ(record("clean", c.result.mapped), "");

    const auto windows = swap_windows(c);
    ASSERT_EQ(static_cast<int>(windows.size()), c.result.swaps_inserted);
    for (const auto& [start, length] : windows) {
      for (int i = start; i < start + length; ++i) {
        const auto at = static_cast<std::size_t>(i);
        const Gate& g = c.result.mapped.gates()[at];
        std::vector<std::pair<std::string, Circuit>> cases;
        cases.emplace_back("drop", mutate_gates(c.result.mapped,
                                                [at](std::vector<Gate>& m) {
                                                  m.erase(m.begin() + at);
                                                }));
        if (g.qubits.size() == 2) {
          cases.emplace_back(
              "reverse",
              mutate_gates(c.result.mapped, [at](std::vector<Gate>& m) {
                std::swap(m[at].qubits[0], m[at].qubits[1]);
              }));
        }
        // Move the last operand to the first other coupler-graph
        // neighbour of the first operand (of itself, for a 1q gate).
        const int anchor = g.qubits.front();
        const int moved = g.qubits.back();
        int target = -1;
        for (const auto& [n, w] : topology.coupling().neighbors(anchor)) {
          (void)w;
          if (n != moved) {
            target = n;
            break;
          }
        }
        if (target >= 0) {
          cases.emplace_back(
              "move", mutate_gates(c.result.mapped,
                                   [at, target](std::vector<Gate>& m) {
                                     m[at].qubits.back() = target;
                                   }));
        }
        if (!g.params.empty()) {
          cases.emplace_back(
              "param",
              mutate_gates(c.result.mapped, [at](std::vector<Gate>& m) {
                m[at].params[0] += 1e-9;
              }));
        }
        for (const auto& [kind, mutated] : cases) {
          const std::string label = kind + " " + std::to_string(i);
          EXPECT_NE(record(label, mutated), "") << label << " not caught";
          ++mutants;
        }
      }
    }
  }
  EXPECT_EQ(mutants, 318);
  // Generated on the per-window lowering the matcher used before its
  // templates were cached; Linux x86-64 / glibc toolchain.
  EXPECT_EQ(hasher.finish().hex(), "dbeca1331518095b4a186aa7f10c5096");
}

/// `tmpl` relabelled onto `labels` equals `direct`, gate for gate.
bool relabels_to(const std::vector<Gate>& tmpl, std::vector<int> labels,
                 const std::vector<Gate>& direct) {
  return direct.size() == tmpl.size() &&
         matches_relabelled(direct, tmpl, labels);
}

TEST(EquivTemplates, RelabellingIsExactOnEveryFamily) {
  // The matcher lowers its window shapes once on canonical qubits and
  // compares every window through a relabelling. That is exact only if
  // lowering never reads a qubit index except to copy it: check it against
  // a direct device-width lowering on every coupler (both orientations)
  // and every distance-2 shortest path of one device per registry family.
  for (const char* spec :
       {"surface17", "surface97", "heavyhex27", "line", "grid", "full",
        "heavy_hex", "sycamore", "trapped_ion", "neutral_atom"}) {
    SCOPED_TRACE(spec);
    auto dev = backends::make_device(spec);
    ASSERT_TRUE(dev.is_ok());
    const device::Device& d = dev.value();
    const device::GateSet& gateset = d.gateset();
    const device::Topology& topology = d.topology();
    const WindowTemplates templates(gateset);
    ASSERT_FALSE(templates.swap.empty());
    for (const auto& [a, b] : topology.edge_list()) {
      for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        Circuit c(d.num_qubits());
        c.swap(x, y);
        EXPECT_TRUE(relabels_to(templates.swap, {x, y}, lowered(c, gateset)))
            << "swap " << x << "," << y;
      }
    }
    int bridges = 0;
    for (int pa = 0; pa < d.num_qubits(); ++pa) {
      for (int pb = 0; pb < d.num_qubits(); ++pb) {
        if (pa == pb || topology.distance(pa, pb) != 2) continue;
        const int pm = topology.shortest_path(pa, pb)[1];
        Circuit cx(d.num_qubits());
        cx.cx(pa, pm).cx(pm, pb).cx(pa, pm).cx(pm, pb);
        Circuit cz(d.num_qubits());
        cz.h(pb).cx(pa, pm).cx(pm, pb).cx(pa, pm).cx(pm, pb).h(pb);
        EXPECT_TRUE(relabels_to(templates.bridge_cx, {pa, pm, pb},
                                lowered(cx, gateset)))
            << "cx bridge " << pa << "," << pm << "," << pb;
        EXPECT_TRUE(relabels_to(templates.bridge_cz, {pa, pm, pb},
                                lowered(cz, gateset)))
            << "cz bridge " << pa << "," << pm << "," << pb;
        ++bridges;
      }
    }
    const std::string family = spec;
    if (family != "full" && family != "trapped_ion") {
      EXPECT_GT(bridges, 0);  // all-to-all families have no distance 2
    }
  }
}

}  // namespace
}  // namespace qfs::analysis
