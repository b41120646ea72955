// Decomposition goldens. Pins the exact bytes of decompose_to_gateset on
// every gate set the backends use (plus the universal set) over three
// inputs: every unitary kind on scattered, out-of-order operands in a wide
// register, each kind used more than once; the parametrised kinds at the
// angles emit_if_nonzero drops (0, 2*pi, 4*pi, -2*pi) and at ordinary ones;
// and the paper's 200-circuit suite. Any change to a lowering rule, to the
// order gates are emitted in, or to an angle shows here.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "compiler/decompose.h"
#include "device/gateset.h"
#include "qasm/writer.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace qfs::compiler {
namespace {

using circuit::Circuit;
using circuit::GateKind;

constexpr double kPi = M_PI;

std::vector<device::GateSet> all_gatesets() {
  return {device::surface_code_gateset(), device::ibm_gateset(),
          device::sycamore_gateset(),     device::ion_trap_gateset(),
          device::rydberg_gateset(),      device::universal_gateset()};
}

/// Digest of the lowered QASM of every circuit in `circuits` on `gs`.
std::string lowered_digest(const std::vector<Circuit>& circuits,
                           const device::GateSet& gs) {
  qfs::Hasher hasher;
  for (const Circuit& c : circuits) {
    hasher.update(qasm::to_qasm(decompose_to_gateset(c, gs)));
  }
  return hasher.finish().hex();
}

/// Checks each gate set's digest against `golden`, in all_gatesets() order.
void expect_digests(const std::vector<Circuit>& circuits,
                    const std::vector<std::string>& golden) {
  const std::vector<device::GateSet> sets = all_gatesets();
  ASSERT_EQ(sets.size(), golden.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(lowered_digest(circuits, sets[i]), golden[i]) << sets[i].name();
  }
}

TEST(DecomposeGolden, EveryKindOnScatteredOperands) {
  const std::vector<std::vector<int>> ones = {{37}, {0}, {63}, {37}};
  const std::vector<std::vector<int>> twos = {{41, 7}, {7, 41}, {63, 0},
                                              {12, 58}};
  const std::vector<std::vector<int>> threes = {
      {52, 3, 29}, {29, 52, 3}, {3, 29, 52}, {60, 61, 1}};
  const std::vector<double> angles = {0.3, -1.1, 2.5};
  Circuit c(64, "scattered");
  // Two rounds, so every kind is lowered again on different operands.
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < circuit::kNumGateKinds; ++k) {
      const auto kind = static_cast<GateKind>(k);
      if (!circuit::is_unitary(kind)) continue;
      const int arity = circuit::gate_arity(kind);
      const auto& operands = arity == 1 ? ones : arity == 2 ? twos : threes;
      for (std::size_t i = 0; i < operands.size(); ++i) {
        const auto& ops = operands[(i + static_cast<std::size_t>(round)) %
                                   operands.size()];
        std::vector<double> params;
        for (int p = 0; p < circuit::gate_param_count(kind); ++p) {
          params.push_back(angles[(i + static_cast<std::size_t>(p)) %
                                  angles.size()]);
        }
        c.add(kind, ops, params);
      }
    }
  }
  c.barrier({63, 0, 37});
  c.measure(41).reset(41);
  expect_digests({c}, {"f053f5cb24adb382bf503d107dfb9ea7",
                        "c783e0b7b8247211a1026a48f06bfc18",
                        "ae8aa810569aa48f687cf5515de43c37",
                        "8fbef67e222bdbf766a8ba6aea793492",
                        "374158148bfe2e47f07805340d0528c7",
                        "04ada15637c1951d430ba4fd73e3300f"});
}

TEST(DecomposeGolden, ParametrisedKindsAtDroppedAndOrdinaryAngles) {
  const std::vector<double> angles = {0.0, 2 * kPi,  4 * kPi, -2 * kPi,
                                      kPi, -kPi / 2, 0.3,     1e-13,
                                      3 * kPi, -0.7};
  Circuit c(16, "angles");
  for (double a : angles) {
    c.rx(a, 5).ry(a, 11).rz(a, 2).p(a, 14);
    c.cp(a, 9, 3);
    c.cp(a, 3, 9);
  }
  // U3 over a grid that includes every dropped angle in every slot.
  const std::vector<double> grid = {0.0, 2 * kPi, 4 * kPi, -2 * kPi, 0.3};
  for (double theta : grid) {
    for (double phi : grid) {
      for (double lambda : grid) c.u3(theta, phi, lambda, 7);
    }
  }
  expect_digests({c}, {"56bcec8566039eb7d3bf6020892aad40",
                        "e3accfa98de93d087635957c8cabade6",
                        "205e5a59e479c40ee5ebed1fc2aea03c",
                        "17750a5871e9df1a2270873130f2d943",
                        "56bcec8566039eb7d3bf6020892aad40",
                        "8bc4a4e89c96cdd5c4e98ddf1781e919"});
}

TEST(DecomposeGolden, PaperSuite) {
  qfs::Rng rng(2022);
  std::vector<Circuit> circuits;
  for (auto& b : workloads::paper_suite(rng)) {
    circuits.push_back(std::move(b.circuit));
  }
  ASSERT_EQ(circuits.size(), 200u);
  expect_digests(circuits, {"fef8f12f66a646368839c3dfc31a516f",
                            "1f0e32cbc17a7eb8868e19d50dcc35f4",
                            "008d42da83012b3dd3803a72135eea21",
                            "ccb6407ac01471882e09daece9614382",
                            "cc3c4decbd60bb6434db72975841f574",
                            "934ba6b668624854a1423547e64612df"});
}

}  // namespace
}  // namespace qfs::compiler
