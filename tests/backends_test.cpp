// Backend registry and device zoo: spec grammar, registry resolution with
// did-you-mean, per-backend topology invariants, native-set closure under
// decomposition, calibration files, and the acceptance gate — the
// paper's 200-circuit suite compiled through compile_resilient on every
// zoo backend with each artifact passing translation validation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "analysis/equiv.h"
#include "backends/registry.h"
#include "backends/spec.h"
#include "compiler/decompose.h"
#include "device/calibration.h"
#include "mapper/pipeline.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace qfs::backends {
namespace {

using circuit::Circuit;
using circuit::GateKind;

// ---- Spec grammar ----------------------------------------------------------

TEST(DeviceSpec, ParsesBareNamePositionalAndNamedArgs) {
  auto bare = parse_device_spec("surface17");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_EQ(bare.value().name, "surface17");
  EXPECT_TRUE(bare.value().args.empty());

  auto positional = parse_device_spec("trapped_ion(20)");
  ASSERT_TRUE(positional.is_ok());
  ASSERT_EQ(positional.value().args.size(), 1u);
  EXPECT_EQ(positional.value().args[0].name, "");
  EXPECT_EQ(positional.value().args[0].value, 20.0);

  auto named = parse_device_spec(" heavy_hex( rows = 3 , cols = 9 ) ");
  ASSERT_TRUE(named.is_ok());
  ASSERT_EQ(named.value().args.size(), 2u);
  EXPECT_EQ(named.value().args[0].name, "rows");
  EXPECT_EQ(named.value().args[1].name, "cols");

  auto mixed = parse_device_spec("neutral_atom(4,5,radius=1.5)");
  ASSERT_TRUE(mixed.is_ok());
  EXPECT_EQ(mixed.value().args.size(), 3u);
}

TEST(DeviceSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "Surface17", "line(", "line)", "line(3", "line(3,)", "line(,3)",
        "line(n=)", "line(n=x)", "line(3)x", "full(n=2,2)", "grid(rows==2)",
        "line(1e999)"}) {
    EXPECT_FALSE(parse_device_spec(bad).is_ok()) << "spec: '" << bad << "'";
  }
}

TEST(DeviceSpec, CanonicalRenderingRoundTrips) {
  auto spec = parse_device_spec("neutral_atom(4,5,radius=2.5)");
  ASSERT_TRUE(spec.is_ok());
  // spec_to_string names every argument; numbers render shortest-exact.
  EXPECT_EQ(format_spec_value(4.0), "4");
  EXPECT_EQ(format_spec_value(2.5), "2.5");
  auto dev = make_device("neutral_atom(4,5,radius=2.5)");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(dev.value().spec(), "neutral_atom(rows=4,cols=5,radius=2.5)");
}

// ---- Registry resolution ---------------------------------------------------

TEST(BackendRegistry, ListsEveryBackendWithParams) {
  const auto& entries = BackendRegistry::global().entries();
  std::set<std::string> names;
  for (const auto& e : entries) names.insert(e.name);
  for (const char* expected :
       {"surface7", "surface17", "surface97", "heavyhex27", "line", "grid",
        "full", "heavy_hex", "sycamore", "trapped_ion", "neutral_atom"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  const BackendInfo* ion = BackendRegistry::global().find("trapped_ion");
  ASSERT_NE(ion, nullptr);
  ASSERT_EQ(ion->params.size(), 1u);
  EXPECT_EQ(ion->params[0].name, "ions");
  EXPECT_TRUE(ion->params[0].integer);
}

TEST(BackendRegistry, UnknownBackendGetsDidYouMean) {
  auto close = make_device("trapped_oin(8)");
  ASSERT_FALSE(close.is_ok());
  EXPECT_NE(close.status().message().find("did you mean 'trapped_ion'"),
            std::string::npos)
      << close.status().message();
  auto far = make_device("warp9");
  ASSERT_FALSE(far.is_ok());
  EXPECT_NE(far.status().message().find("unknown device"), std::string::npos);
}

TEST(BackendRegistry, ValidatesArityRangeAndIntegrality) {
  // Too many positional arguments.
  EXPECT_FALSE(make_device("trapped_ion(8,9)").is_ok());
  // Unknown parameter name.
  EXPECT_FALSE(make_device("trapped_ion(qubits=8)").is_ok());
  // Duplicate parameter (positional + named).
  EXPECT_FALSE(make_device("trapped_ion(8,ions=9)").is_ok());
  // Out of range.
  EXPECT_FALSE(make_device("trapped_ion(ions=1)").is_ok());
  EXPECT_FALSE(make_device("trapped_ion(ions=65)").is_ok());
  // Integrality.
  EXPECT_FALSE(make_device("trapped_ion(ions=8.5)").is_ok());
  // Real-valued parameters accept fractions.
  EXPECT_TRUE(make_device("neutral_atom(radius=1.42)").is_ok());
  // Parameterless backends reject arguments.
  EXPECT_FALSE(make_device("surface17(3)").is_ok());
  // heavy_hex cols must satisfy cols % 4 == 1.
  EXPECT_FALSE(make_device("heavy_hex(rows=3,cols=8)").is_ok());
}

TEST(BackendRegistry, DefaultsFillMissingParameters) {
  auto dev = make_device("trapped_ion");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(dev.value().num_qubits(), 20);
  EXPECT_EQ(dev.value().spec(), "trapped_ion(ions=20)");
  auto na = make_device("neutral_atom");
  ASSERT_TRUE(na.is_ok());
  EXPECT_EQ(na.value().num_qubits(), 20);
}

TEST(BackendRegistry, LegacyNamesResolveToSeedDevices) {
  // The registry must agree with the historical hardcoded constructors.
  auto s17 = make_device("surface17");
  ASSERT_TRUE(s17.is_ok());
  EXPECT_EQ(s17.value().name(), "surface-17");
  EXPECT_EQ(s17.value().num_qubits(), 17);
  auto hh = make_device("heavyhex27");
  ASSERT_TRUE(hh.is_ok());
  EXPECT_EQ(hh.value().num_qubits(), 27);
}

// ---- Topology shape invariants ---------------------------------------------

int degree(const device::Topology& topo, int q) {
  const auto* t = topo.tables();
  return t->nbr_offsets[static_cast<std::size_t>(q) + 1] -
         t->nbr_offsets[static_cast<std::size_t>(q)];
}

TEST(DeviceZoo, HeavyHexDegreeCapAndConnectivity) {
  auto dev = make_device("heavy_hex(rows=3,cols=9)");
  ASSERT_TRUE(dev.is_ok());
  const device::Topology& topo = dev.value().topology();
  EXPECT_TRUE(topo.connected());
  // The heavy-hex property: no qubit exceeds degree 3.
  for (int q = 0; q < topo.num_qubits(); ++q) {
    EXPECT_LE(degree(topo, q), 3) << "qubit " << q;
  }
  // Row qubits dominate: 3 rows of 9 plus bridge qubits between rows.
  EXPECT_GE(topo.num_qubits(), 27);
}

TEST(DeviceZoo, SycamoreGridHasAlternatingDiagonals) {
  const int rows = 5, cols = 4;
  auto dev = make_device("sycamore(rows=5,cols=4)");
  ASSERT_TRUE(dev.is_ok());
  const device::Topology& topo = dev.value().topology();
  ASSERT_EQ(topo.num_qubits(), rows * cols);
  EXPECT_TRUE(topo.connected());
  // Grid edges plus exactly one diagonal per unit cell.
  const int grid_edges = rows * (cols - 1) + cols * (rows - 1);
  const int cells = (rows - 1) * (cols - 1);
  EXPECT_EQ(static_cast<int>(topo.edge_list().size()), grid_edges + cells);
  // Cell (0,0) has even parity: diagonal (0,0)-(1,1) present, (1,0)-(0,1)
  // absent. Cell (0,1) is odd: the opposite orientation.
  auto at = [cols](int r, int c) { return r * cols + c; };
  EXPECT_TRUE(topo.adjacent(at(0, 0), at(1, 1)));
  EXPECT_FALSE(topo.adjacent(at(1, 0), at(0, 1)));
  EXPECT_TRUE(topo.adjacent(at(1, 1), at(0, 2)));
  EXPECT_FALSE(topo.adjacent(at(0, 1), at(1, 2)));
}

TEST(DeviceZoo, TrappedIonIsCompleteGraph) {
  auto dev = make_device("trapped_ion(ions=8)");
  ASSERT_TRUE(dev.is_ok());
  const device::Topology& topo = dev.value().topology();
  ASSERT_EQ(topo.num_qubits(), 8);
  EXPECT_EQ(static_cast<int>(topo.edge_list().size()), 8 * 7 / 2);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      EXPECT_TRUE(topo.adjacent(a, b));
    }
  }
}

TEST(DeviceZoo, NeutralAtomRadiusControlsConnectivity) {
  // radius 1: nearest neighbours only (a plain grid).
  auto near = make_device("neutral_atom(rows=3,cols=3,radius=1)");
  ASSERT_TRUE(near.is_ok());
  EXPECT_EQ(static_cast<int>(near.value().topology().edge_list().size()), 12);
  // radius 1.5 >= sqrt(2): diagonals join.
  auto diag = make_device("neutral_atom(rows=3,cols=3,radius=1.5)");
  ASSERT_TRUE(diag.is_ok());
  const device::Topology& topo = diag.value().topology();
  EXPECT_EQ(static_cast<int>(topo.edge_list().size()), 12 + 8);
  EXPECT_TRUE(topo.adjacent(0, 4));   // (0,0)-(1,1), distance sqrt(2)
  EXPECT_FALSE(topo.adjacent(0, 2));  // (0,0)-(0,2), distance 2
  // radius 2 adds the straight-line next-nearest pairs.
  auto far = make_device("neutral_atom(rows=3,cols=3,radius=2)");
  ASSERT_TRUE(far.is_ok());
  EXPECT_TRUE(far.value().topology().adjacent(0, 2));
}

// ---- Cost models -----------------------------------------------------------

TEST(DeviceZoo, TrappedIonChainLengthDegradesFidelity) {
  auto small = make_device("trapped_ion(ions=4)");
  auto large = make_device("trapped_ion(ions=40)");
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  // Longer chains: slower and less faithful two-qubit gates.
  EXPECT_GT(small.value().error_model().two_qubit_fidelity(),
            large.value().error_model().two_qubit_fidelity());
  EXPECT_LT(small.value().error_model().two_qubit_duration_ns(),
            large.value().error_model().two_qubit_duration_ns());
  // Shuttling penalty: distant ion pairs are worse than adjacent ones.
  const device::ErrorModel& em = large.value().error_model();
  EXPECT_GT(em.edge_fidelity(0, 1), em.edge_fidelity(0, 39));
}

TEST(DeviceZoo, NeutralAtomLongRangePairsPayFidelityPenalty) {
  auto dev = make_device("neutral_atom(rows=3,cols=3,radius=2)");
  ASSERT_TRUE(dev.is_ok());
  const device::ErrorModel& em = dev.value().error_model();
  // (0,0)-(0,1) is distance 1; (0,0)-(0,2) is distance 2.
  EXPECT_GT(em.edge_fidelity(0, 1), em.edge_fidelity(0, 2));
}

// ---- Native-set closure under decomposition --------------------------------

Circuit every_gate_kind_circuit() {
  Circuit c(3, "every-kind");
  c.i(0).x(0).y(1).z(2).h(0).s(1);
  c.add(GateKind::kSdg, {2});
  c.t(0);
  c.add(GateKind::kTdg, {1});
  c.sx(2);
  c.add(GateKind::kSxdg, {0});
  c.rx(0.3, 0).ry(0.4, 1).rz(0.5, 2).p(0.6, 0).u3(0.1, 0.2, 0.3, 1);
  c.cx(0, 1);
  c.add(GateKind::kCy, {1, 2});
  c.cz(0, 2).cp(0.7, 0, 1).swap(1, 2);
  c.ccx(0, 1, 2).ccz(0, 1, 2);
  c.add(GateKind::kCswap, {0, 1, 2});
  c.measure(0).reset(1).barrier({0, 1, 2});
  return c;
}

TEST(DeviceZoo, EveryBackendGateSetIsClosedUnderDecomposition) {
  const Circuit all_kinds = every_gate_kind_circuit();
  for (const auto& entry : BackendRegistry::global().entries()) {
    auto dev = make_device(entry.name);
    ASSERT_TRUE(dev.is_ok()) << entry.name;
    Circuit lowered =
        compiler::decompose_to_gateset(all_kinds, dev.value().gateset());
    EXPECT_TRUE(dev.value().gateset().supports_circuit(lowered))
        << "backend " << entry.name << " gateset "
        << dev.value().gateset().name();
  }
}

// ---- Calibration files -----------------------------------------------------

TEST(DeviceZoo, DefaultCalibrationRoundTripsPerBackend) {
  // A hand-tuned calibration in every record kind README documents, sized
  // against each backend: the last qubit and the device's first coupler are
  // in range, one qubit past the end is not.
  for (const char* spec :
       {"heavy_hex(rows=3,cols=9)", "sycamore(rows=5,cols=4)",
        "trapped_ion(ions=20)", "neutral_atom(rows=4,cols=5,radius=1.5)"}) {
    auto dev = make_device(spec);
    ASSERT_TRUE(dev.is_ok()) << spec;
    const device::Device& d = dev.value();
    const int last = d.num_qubits() - 1;
    const auto [a, b] = d.topology().edge_list().front();
    const std::string text =
        "# " + std::string(spec) + "\n" +
        "defaults,0.9995,0.993,0.98\n"
        "durations_ns,25,300,1000\n"
        "coherence_ns,80000,60000\n"
        "qubit," + std::to_string(last) + ",0.95\n" +
        "edge," + std::to_string(b) + "," + std::to_string(a) + ",0.9\n";
    auto parsed = device::parse_calibration(text, d.num_qubits());
    ASSERT_TRUE(parsed.is_ok()) << spec << ": " << parsed.status().message();
    const device::ErrorModel& em = parsed.value();
    EXPECT_DOUBLE_EQ(em.qubit_fidelity(last), 0.95) << spec;
    EXPECT_DOUBLE_EQ(em.qubit_fidelity(0), 0.9995) << spec;
    EXPECT_DOUBLE_EQ(em.edge_fidelity(a, b), 0.9) << spec;
    EXPECT_DOUBLE_EQ(em.two_qubit_duration_ns(), 300) << spec;
    EXPECT_DOUBLE_EQ(em.t2_ns(), 60000) << spec;

    auto past_end = device::parse_calibration(
        "qubit," + std::to_string(d.num_qubits()) + ",0.95\n", d.num_qubits());
    EXPECT_FALSE(past_end.is_ok()) << spec;
  }
}

// ---- Acceptance: the paper suite on every zoo backend ----------------------

/// Compile the full 200-circuit paper suite (capped to the smallest zoo
/// device) through compile_resilient and validate every artifact. Returns
/// the first failure rendered, or "".
std::string compile_and_validate_suite(const device::Device& device) {
  workloads::SuiteOptions options;
  options.max_qubits = 17;  // fits the 20-qubit zoo floor after placement
  options.max_gates = 600;
  qfs::Rng suite_rng(2022);
  std::vector<workloads::Benchmark> suite =
      workloads::make_suite(options, suite_rng);
  mapper::ResilientOptions resilient;
  resilient.base.placer = "degree-match";
  resilient.base.router = "lookahead";
  for (std::size_t i = 0; i < suite.size(); ++i) {
    resilient.seed = qfs::derive_seed(2022, i);
    auto result = mapper::compile_resilient(suite[i].circuit, device,
                                            resilient, nullptr);
    if (!result.is_ok()) {
      return suite[i].name + ": " + result.status().message();
    }
    analysis::TranslationArtifact artifact;
    artifact.mapped = &result.value().mapping.mapped;
    artifact.initial_layout = result.value().mapping.initial_layout;
    artifact.final_layout = result.value().mapping.final_layout;
    artifact.swaps_inserted = result.value().mapping.swaps_inserted;
    std::vector<analysis::Diagnostic> findings = analysis::validate_translation(
        suite[i].circuit, device, artifact);
    if (!findings.empty()) {
      return suite[i].name + ":\n" + analysis::render_diagnostics(findings);
    }
  }
  return "";
}

TEST(DeviceZooAcceptance, HeavyHexCompilesAndValidatesPaperSuite) {
  auto dev = make_device("heavy_hex(rows=3,cols=9)");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(compile_and_validate_suite(dev.value()), "");
}

TEST(DeviceZooAcceptance, SycamoreCompilesAndValidatesPaperSuite) {
  auto dev = make_device("sycamore(rows=5,cols=4)");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(compile_and_validate_suite(dev.value()), "");
}

TEST(DeviceZooAcceptance, TrappedIonCompilesAndValidatesPaperSuite) {
  auto dev = make_device("trapped_ion(ions=20)");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(compile_and_validate_suite(dev.value()), "");
}

TEST(DeviceZooAcceptance, NeutralAtomCompilesAndValidatesPaperSuite) {
  auto dev = make_device("neutral_atom(rows=4,cols=5,radius=1.5)");
  ASSERT_TRUE(dev.is_ok());
  EXPECT_EQ(compile_and_validate_suite(dev.value()), "");
}

TEST(TopologyTest, AdjacentMatchesCouplingGraph) {
  // adjacent() reads distance 1 off the shared table; it must agree with
  // the coupling graph on every pair of every registry backend, and keep
  // the range check the graph lookup had.
  for (const BackendInfo& info : BackendRegistry::global().entries()) {
    SCOPED_TRACE(info.name);
    auto dev = make_device(info.name);
    ASSERT_TRUE(dev.is_ok()) << dev.status().to_string();
    const device::Topology& topo = dev.value().topology();
    const int n = topo.num_qubits();
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        ASSERT_EQ(topo.adjacent(a, b), topo.coupling().has_edge(a, b))
            << a << "-" << b;
      }
    }
    EXPECT_THROW((void)topo.adjacent(-1, 0), AssertionError);
    EXPECT_THROW((void)topo.adjacent(0, n), AssertionError);
  }
}

}  // namespace
}  // namespace qfs::backends
