// Flat IR (circuit/flat.h) contract tests, plus the suite-wide output pin:
// the compiled artifacts of the paper's full 200-circuit suite must hash to
// a checked-in golden at --jobs 1 and 8.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/artifact.h"
#include "circuit/flat.h"
#include "common.h"
#include "device/device.h"
#include "support/hash.h"
#include "workloads/random_circuit.h"

namespace qfs::circuit {
namespace {

TEST(FlatIr, OpMirrorsGateKindExhaustively) {
  ASSERT_EQ(kNumOps, kNumGateKinds);
  for (int k = 0; k < kNumGateKinds; ++k) {
    const GateKind kind = static_cast<GateKind>(k);
    EXPECT_EQ(static_cast<int>(to_op(kind)), k);
    EXPECT_EQ(to_gate_kind(to_op(kind)), kind);
  }
  // One byte per op, as the inner loops assume.
  static_assert(sizeof(Op) == 1);
}

TEST(FlatIr, RoundTripPreservesEveryGateExactly) {
  Circuit c(6, "roundtrip");
  c.h(0).cx(0, 1).rz(0.1234567890123456789, 2).u3(0.1, -2.5, 3e-17, 3);
  c.ccx(0, 1, 2).swap(4, 5).measure(3).reset(4);
  c.barrier({0, 1, 2, 3, 4});  // variable arity > 3: exercises the overflow pool
  c.cp(-0.75, 2, 5);

  FlatCircuit flat = flatten(c);
  ASSERT_EQ(flat.size(), c.size());
  EXPECT_EQ(unflatten(flat, "roundtrip"), c);

  // The barrier spilled; fixed-arity gates stayed inline.
  int spilled = 0;
  for (const Instr& ins : flat.instrs) spilled += ins.spilled() ? 1 : 0;
  EXPECT_EQ(spilled, 1);
}

TEST(FlatIr, RoundTripRandomCircuits) {
  qfs::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 12;
    spec.num_gates = 400;
    spec.two_qubit_fraction = 0.4;
    Circuit c = workloads::random_circuit(spec, rng);
    EXPECT_EQ(unflatten(flatten(c), c.name()), c);
  }
}

TEST(FlatIr, QubitsOfReportsInlineAndSpilledOperands) {
  Circuit c(5, "ops");
  c.cx(3, 1);
  c.barrier({0, 1, 2, 3, 4});
  FlatCircuit flat = flatten(c);
  int count = 0;
  const std::int32_t* q = flat.qubits_of(0, &count);
  ASSERT_EQ(count, 2);
  EXPECT_EQ(q[0], 3);
  EXPECT_EQ(q[1], 1);
  q = flat.qubits_of(1, &count);
  ASSERT_EQ(count, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q[i], i);
}

TEST(FlatIr, FlattenIntoReusesBuffersExactly) {
  // A wide circuit with params and a spilled barrier, then a narrower one
  // into the same buffers: the result equals a fresh flatten, and every
  // buffer is reserved to its exact size.
  qfs::Rng rng(7);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 10;
  spec.num_gates = 300;
  Circuit wide = workloads::random_circuit(spec, rng);
  wide.barrier({0, 1, 2, 3, 4, 5});
  Circuit narrow(5, "narrow");
  narrow.rz(0.5, 0).barrier({4, 3, 2, 1}).u3(0.1, 0.2, 0.3, 2);

  FlatCircuit reused;
  flatten_into(wide, reused);
  EXPECT_EQ(unflatten(reused, wide.name()), wide);
  flatten_into(narrow, reused);
  const FlatCircuit fresh = flatten(narrow);
  EXPECT_EQ(reused.num_qubits, 5);
  EXPECT_EQ(unflatten(reused, "narrow"), narrow);
  EXPECT_EQ(reused.params, fresh.params);
  EXPECT_EQ(reused.overflow, fresh.overflow);
  EXPECT_EQ(fresh.params.capacity(), fresh.params.size());
  EXPECT_EQ(fresh.overflow.capacity(), fresh.overflow.size());
}

/// The paper's full 200-circuit suite through bench::run_suite with the
/// lookahead-heavy configuration; returns hash128 hex over the canonical
/// CSV plus every MappingResult's cache::artifact_digest, so a match means
/// bit-exact artifacts, not just equal summary metrics.
std::string suite_fingerprint(int jobs) {
  device::Device dev = device::surface17_device();
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

TEST(FlatIr, SuiteFingerprintMatchesGoldenAtJobs1And8) {
  // Golden for the Linux x86-64 / glibc toolchain (the digest covers the
  // bits of doubles computed by libm).
  const char* kGolden = "0ab84ab7cbca20743eb65e485e01d73a";
  EXPECT_EQ(suite_fingerprint(1), kGolden);
  EXPECT_EQ(suite_fingerprint(8), kGolden);
}

}  // namespace
}  // namespace qfs::circuit
