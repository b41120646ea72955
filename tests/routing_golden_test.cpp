// Routing goldens. Pins the lookahead router's exact output (the emitted
// QASM, the swap count and the final layout) on inputs the suite goldens
// never reach: the widest coupler scan (a 467-qubit heavy-hex lattice),
// barriers wider than a Gate's three inline operands, damaged and
// disconnected chips, non-default windows and weights that trip the stall
// valve, and a 100k-gate circuit on the wide lattice.
// Any change to candidate order, tie-breaks or emission order shows here.
// The suite golden pins the compiled artifacts of the paper's whole
// 200-circuit suite at --jobs 1 and 8.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backends/registry.h"
#include "cache/artifact.h"
#include "common.h"
#include "compiler/decompose.h"
#include "device/device.h"
#include "device/faults.h"
#include "device/topology.h"
#include "graph/graph.h"
#include "mapper/routing.h"
#include "qasm/writer.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/random_circuit.h"

namespace qfs::mapper {
namespace {

using circuit::Circuit;
using device::Device;

Device heavy_hex_467() {
  auto dev = backends::make_device("heavy_hex(rows=13,cols=29)");
  QFS_ASSERT_MSG(dev.is_ok(), dev.status().to_string());
  QFS_ASSERT(dev.value().num_qubits() == 467);
  return std::move(dev).value();
}

Circuit random_decomposed(const Device& d, int num_qubits, int num_gates,
                          double two_qubit_fraction, std::uint64_t seed) {
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = num_qubits;
  spec.num_gates = num_gates;
  spec.two_qubit_fraction = two_qubit_fraction;
  qfs::Rng gen(seed);
  return compiler::decompose_to_gateset(workloads::random_circuit(spec, gen),
                                        d.gateset());
}

/// A layout that scatters the virtual register over the whole chip.
Layout shuffled_layout(int num_physical, std::uint64_t seed) {
  std::vector<int> v2p(static_cast<std::size_t>(num_physical));
  for (int i = 0; i < num_physical; ++i) v2p[static_cast<std::size_t>(i)] = i;
  qfs::Rng rng(seed);
  rng.shuffle(v2p);
  return Layout::from_partial(v2p, num_physical);
}

/// Routes `c` with the default lookahead router and feeds the result into
/// `hasher`: swap count, final layout, then the emitted QASM.
int route_and_hash(qfs::Hasher& hasher, const Circuit& c, const Device& d,
                   const Layout& initial) {
  qfs::Rng rng(1);
  RoutingResult r = LookaheadRouter().route(c, d, initial, rng);
  EXPECT_TRUE(respects_connectivity(r.mapped, d)) << c.name();
  std::string head = "swaps " + std::to_string(r.swaps_inserted) + "\nlayout";
  for (int p : r.final_layout.v2p()) head += ' ' + std::to_string(p);
  head += '\n';
  hasher.update(head);
  hasher.update(qasm::to_qasm(r.mapped));
  return r.swaps_inserted;
}

TEST(RoutingGolden, HeavyHex467RandomCircuits) {
  const Device d = heavy_hex_467();
  qfs::Hasher hasher;
  int swaps = 0;
  swaps += route_and_hash(hasher, random_decomposed(d, 60, 3000, 0.4, 11), d,
                          Layout::identity(467));
  swaps += route_and_hash(hasher, random_decomposed(d, 467, 2000, 0.5, 12), d,
                          Layout::identity(467));
  swaps += route_and_hash(hasher, random_decomposed(d, 150, 3000, 0.35, 13),
                          d, shuffled_layout(467, 14));
  EXPECT_EQ(swaps, 52164);
  EXPECT_EQ(hasher.finish().hex(), "d6fbc824eaa28c7e843a1cd39c691363");
}

TEST(RoutingGolden, WideBarriersSpillToOverflow) {
  // Barriers of 4..12 operands (plus one full-register barrier) between
  // bursts of gates: their operands spill from a Gate's three inline slots
  // to the heap, and they order every listed qubit.
  const Device d = device::surface97_device();
  const Circuit body = random_decomposed(d, 30, 2400, 0.4, 21);
  qfs::Rng rng(22);
  Circuit c(30, "wide-barriers");
  int since_barrier = 0;
  for (const circuit::Gate& g : body.gates()) {
    c.add(g);
    if (++since_barrier < 9) continue;
    since_barrier = 0;
    const int width = rng.uniform_int(4, 12);
    c.barrier(rng.sample_without_replacement(30, width));
  }
  std::vector<int> all(30);
  for (int q = 0; q < 30; ++q) all[static_cast<std::size_t>(q)] = q;
  c.barrier(all);
  c.cx(0, 29);
  qfs::Hasher hasher;
  int swaps = route_and_hash(hasher, c, d, Layout::identity(97));
  swaps += route_and_hash(hasher, c, d, shuffled_layout(97, 23));
  EXPECT_EQ(swaps, 3354);
  EXPECT_EQ(hasher.finish().hex(), "ce1a3485a86ded69aac38c840298b462");
}

/// The two-component chip of Routing.LookaheadOnDisconnectedChip: lines
/// 0-1-2-3 and 4-5-6-7 with no coupler between them.
Device two_component_device() {
  graph::Graph g(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 3; ++i) g.add_edge(base + i, base + i + 1);
  }
  return Device("two-lines-4", device::Topology("two-lines-4", std::move(g)),
                device::surface_code_gateset(),
                device::ErrorModel(0.999, 0.99, 0.997));
}

TEST(RoutingGolden, DamagedAndDisconnectedChips) {
  qfs::Hasher hasher;
  int swaps = 0;

  // Disconnected: every two-qubit gate stays inside one component.
  const Device split = two_component_device();
  ASSERT_FALSE(split.topology().connected());
  qfs::Rng rng(31);
  Circuit confined(8, "confined");
  for (int i = 0; i < 400; ++i) {
    const int base = rng.bernoulli(0.5) ? 0 : 4;
    const std::vector<int> pair = rng.sample_without_replacement(4, 2);
    if (rng.bernoulli(0.3)) {
      confined.h(base + pair[0]);
    } else {
      confined.cx(base + pair[0], base + pair[1]);
    }
  }
  swaps += route_and_hash(hasher, confined, split, Layout::identity(8));

  // Damaged: surface97 with dead qubits and couplers, compacted by the
  // injector to its largest healthy component.
  device::FaultSpec spec;
  spec.dead_qubit_fraction = 0.05;
  spec.dead_edge_fraction = 0.1;
  spec.seed = 7;
  auto degraded = device::FaultInjector(spec).apply(device::surface97_device());
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
  const Device& damaged = degraded.value().device;
  const int width = damaged.num_qubits();
  swaps += route_and_hash(hasher, random_decomposed(damaged, 40, 3000, 0.4, 32),
                          damaged, Layout::identity(width));
  swaps += route_and_hash(hasher,
                          random_decomposed(damaged, width, 2000, 0.5, 33),
                          damaged, shuffled_layout(width, 34));
  EXPECT_EQ(swaps, 6937);
  EXPECT_EQ(hasher.finish().hex(), "3057c93003b420cbc028a3ec9b692368");
}

TEST(RoutingGolden, VariedWindowsWeightsAndStallValve) {
  // Every other input here routes with the default window and weight.
  // These cover windows 0..50 and weights 0..400 on nine connectivity
  // regimes, with measures, resets and barriers of every width mixed in;
  // the large weights stall the router, so the stall valve's forced
  // routes are pinned too.
  const std::vector<device::Topology> topologies = {
      device::line_topology(12),        device::ring_topology(10),
      device::grid_topology(4, 5),      device::star_topology(9),
      device::fully_connected_topology(6), device::sycamore_topology(4, 5),
      device::heavy_hex_lattice(3, 9),  device::surface17(),
      device::neutral_atom_topology(4, 4, 1.5)};
  const int windows[] = {0, 1, 3, 20, 50};
  const double weights[] = {0.0, 0.5, 3.0, 25.0, 400.0};
  qfs::Rng rng(777);
  qfs::Hasher hasher;
  int swaps = 0;
  for (const device::Topology& topology : topologies) {
    const Device d(topology.name(), topology, device::surface_code_gateset(),
                   device::ErrorModel(0.999, 0.99, 0.997));
    const int n = d.num_qubits();
    for (int trial = 0; trial < 25; ++trial) {
      // One draw per statement: argument evaluation order is unspecified.
      const int width = 2 + static_cast<int>(rng.uniform_index(
                                static_cast<std::uint64_t>(n - 1)));
      const int num_gates = 20 + static_cast<int>(rng.uniform_index(400));
      const double two_qubit_fraction = rng.uniform_real(0.1, 0.9);
      const std::uint64_t seed = rng.uniform_index(1u << 30);
      const Circuit body =
          random_decomposed(d, width, num_gates, two_qubit_fraction, seed);
      Circuit c(width, "varied");
      for (const circuit::Gate& g : body.gates()) {
        c.add(g);
        const double u = rng.uniform_real(0.0, 1.0);
        const int q = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(width)));
        if (u < 0.03) {
          c.barrier(rng.sample_without_replacement(width, 1 + q));
        } else if (u < 0.04) {
          c.measure(q);
        } else if (u < 0.05) {
          c.reset(q);
        }
      }
      const Layout initial =
          trial % 2 == 0 ? Layout::identity(n)
                         : shuffled_layout(n, rng.uniform_index(1u << 30));
      qfs::Rng route_rng(1);
      RoutingResult r =
          LookaheadRouter(windows[trial % 5], weights[(trial / 5) % 5])
              .route(c, d, initial, route_rng);
      EXPECT_TRUE(respects_connectivity(r.mapped, d)) << topology.name();
      swaps += r.swaps_inserted;
      std::string head = "swaps " + std::to_string(r.swaps_inserted) + "\n";
      for (int p : r.final_layout.v2p()) head += std::to_string(p) + ' ';
      hasher.update(head);
      hasher.update(qasm::to_qasm(r.mapped));
    }
  }
  EXPECT_EQ(swaps, 27724);
  EXPECT_EQ(hasher.finish().hex(), "48f7cdc10d4f884cdcd3666e5938edaa");
}

TEST(RoutingGolden, HeavyHex467Routes100kGates) {
  // Complexity guard on the widest device (240k SWAP decisions): a router
  // that rescans the whole coupler list per decision spends about ten
  // seconds here, and one that rescans the whole program far longer.
  const Device d = heavy_hex_467();
  const Circuit c = random_decomposed(d, 100, 100000, 0.35, 42);
  qfs::Hasher hasher;
  const int swaps = route_and_hash(hasher, c, d, Layout::identity(467));
  EXPECT_EQ(swaps, 240285);
  EXPECT_EQ(hasher.finish().hex(), "e51a19d66b184fa5e8d6745cb2a1400f");
}

/// The paper's full 200-circuit suite through bench::run_suite with the
/// lookahead-heavy configuration; returns hash128 hex over the canonical
/// CSV plus every MappingResult's cache::artifact_digest, so a match means
/// bit-exact artifacts, not just equal summary metrics.
std::string suite_fingerprint(int jobs) {
  Device dev = device::surface17_device();
  bench::SuiteRunConfig config;
  config.jobs = jobs;
  config.suite.max_qubits = 17;
  config.suite.max_gates = 800;
  config.mapping.placer = "degree-match";
  config.mapping.router = "lookahead";
  config.mapping.sabre_refinement_rounds = 1;
  auto rows = bench::run_suite(dev, config);
  qfs::Hasher hasher;
  hasher.update(bench::suite_rows_to_csv(rows));
  for (const auto& row : rows) {
    hasher.update(cache::artifact_digest(row.mapping).hex());
  }
  return hasher.finish().hex();
}

TEST(SuiteGolden, FingerprintMatchesGoldenAtJobs1And8) {
  // Golden for the Linux x86-64 / glibc toolchain (the digest covers the
  // bits of doubles computed by libm).
  const char* kGolden = "0ab84ab7cbca20743eb65e485e01d73a";
  EXPECT_EQ(suite_fingerprint(1), kGolden);
  EXPECT_EQ(suite_fingerprint(8), kGolden);
}

}  // namespace
}  // namespace qfs::mapper
