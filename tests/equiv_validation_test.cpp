// Suite-wide translation-validation gate: every circuit of the paper's
// 200-circuit benchmark suite, compiled with the lookahead-heavy
// configuration, must validate clean under analysis/equiv.h. A false
// rejection here means the validator (not the compiler) is wrong; a real
// rejection means the compiler shipped a broken artifact. Either way this
// test is the tripwire.
//
// Each case also pins the compiled artifacts: a golden hash128 over the
// cache::artifact_digest of every MappingResult of the suite, next to the
// summed swap and gate counts, so a mismatch shows whether routing
// decisions moved or only a metric or angle did. The digest covers the bits
// of doubles computed by libm, so the goldens target the Linux x86-64 /
// glibc toolchain CI uses; it does not depend on the cache payload format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/equiv.h"
#include "backends/registry.h"
#include "cache/artifact.h"
#include "device/device.h"
#include "mapper/pipeline.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace qfs::analysis {
namespace {

struct SuiteOutcome {
  /// Rendered findings of the first artifact that failed ("" = all clean).
  std::string failure;
  /// hash128 hex over every artifact_digest, in suite order.
  std::string digest;
  long swaps_total = 0;
  long gates_after = 0;
};

/// Compile every suite circuit, validate each artifact and digest them all.
SuiteOutcome validate_suite(const device::Device& device,
                            const workloads::SuiteOptions& suite_options,
                            const mapper::MappingOptions& mapping,
                            std::uint64_t seed) {
  qfs::Rng suite_rng(seed);
  std::vector<workloads::Benchmark> suite =
      workloads::make_suite(suite_options, suite_rng);
  SuiteOutcome outcome;
  qfs::Hasher hasher;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    qfs::Rng rng(qfs::derive_seed(seed, i));
    mapper::MappingResult result =
        mapper::map_circuit(suite[i].circuit, device, mapping, rng);
    hasher.update(cache::artifact_digest(result).hex());
    outcome.swaps_total += result.swaps_inserted;
    outcome.gates_after += result.gates_after;
    if (!outcome.failure.empty()) continue;
    TranslationArtifact artifact;
    artifact.mapped = &result.mapped;
    artifact.initial_layout = result.initial_layout;
    artifact.final_layout = result.final_layout;
    artifact.swaps_inserted = result.swaps_inserted;
    std::vector<Diagnostic> findings =
        validate_translation(suite[i].circuit, device, artifact);
    if (!findings.empty()) {
      outcome.failure = suite[i].name + ":\n" + render_diagnostics(findings);
    }
  }
  outcome.digest = hasher.finish().hex();
  return outcome;
}

/// Checked-in expectation for one compiled suite.
struct Golden {
  long swaps_total;
  long gates_after;
  const char* digest;
};

void expect_clean_and_golden(const SuiteOutcome& outcome,
                             const Golden& golden) {
  EXPECT_EQ(outcome.failure, "");
  EXPECT_EQ(outcome.swaps_total, golden.swaps_total);
  EXPECT_EQ(outcome.gates_after, golden.gates_after);
  EXPECT_EQ(outcome.digest, golden.digest);
}

workloads::SuiteOptions paper_suite_capped() {
  // The paper's 200-circuit mix (80 random / 80 real / 40 reversible),
  // sized for surface-17 like SuiteGolden's suite fingerprint.
  workloads::SuiteOptions options;
  options.max_qubits = 17;
  options.max_gates = 800;
  return options;
}

mapper::MappingOptions lookahead_config() {
  mapper::MappingOptions mapping;
  mapping.placer = "degree-match";
  mapping.router = "lookahead";
  mapping.sabre_refinement_rounds = 1;
  return mapping;
}

TEST(EquivValidation, PaperSuiteValidatesCleanUnderFlatIr) {
  expect_clean_and_golden(
      validate_suite(device::surface17_device(), paper_suite_capped(),
                     lookahead_config(), 2022),
      {10736, 204145, "bb18160d79b395545d7249b7f2c5371e"});
}

TEST(EquivValidation, LargeDeviceSubsetValidatesClean) {
  // A smaller draw at full paper width (up to 54 qubits) on surface-97,
  // covering layouts with many padding qubits and long swap chains.
  workloads::SuiteOptions options;
  options.random_count = 8;
  options.real_count = 8;
  options.reversible_count = 4;
  options.max_qubits = 54;
  options.max_gates = 2000;
  expect_clean_and_golden(validate_suite(device::surface97_device(), options,
                                         lookahead_config(), 7),
                          {2057, 28888, "65c813ff4784ef9e6834a6a2dbd445a2"});
}

TEST(EquivValidation, HeavyHexSuiteValidatesClean) {
  // Degree-<=3 connectivity exercises the longest swap chains the validator
  // sees; the IBM basis exercises the {rz,sx,x,cx} lowering path.
  auto dev = backends::make_device("heavy_hex(rows=3,cols=9)");
  ASSERT_TRUE(dev.is_ok());
  workloads::SuiteOptions options;
  options.random_count = 10;
  options.real_count = 10;
  options.reversible_count = 5;
  options.max_qubits = 17;
  options.max_gates = 600;
  expect_clean_and_golden(
      validate_suite(dev.value(), options, lookahead_config(), 2022),
      {3168, 39782, "4b8c3e4818e792114d9630d29fca93f0"});
}

TEST(EquivValidation, TrappedIonSuiteValidatesClean) {
  // All-to-all coupling: routing degenerates to placement only (zero
  // swaps), the opposite extreme from heavy-hex. Validates the MS/GPI
  // lowering and the permutation bookkeeping when layouts never move.
  auto dev = backends::make_device("trapped_ion(ions=20)");
  ASSERT_TRUE(dev.is_ok());
  workloads::SuiteOptions options;
  options.random_count = 10;
  options.real_count = 10;
  options.reversible_count = 5;
  options.max_qubits = 17;
  options.max_gates = 600;
  expect_clean_and_golden(
      validate_suite(dev.value(), options, lookahead_config(), 2022),
      {0, 11585, "46c69961d36988cc2bad9efce730d5a3"});
}

TEST(EquivValidation, EveryRouterValidatesOnRepresentativeCircuits) {
  // The validator must understand each router's emission style: trivial
  // (swap chains), lookahead, noise-aware, bridge (4-CX bridges), optimal
  // (exhaustive per-slice permutations).
  workloads::SuiteOptions options;
  options.random_count = 3;
  options.real_count = 3;
  options.reversible_count = 2;
  options.max_qubits = 8;
  options.max_gates = 200;
  const struct {
    const char* router;
    Golden golden;
  } kRouters[] = {
      {"trivial", {261, 3956, "be212dbea1584076c1cbb4afd8ed7242"}},
      {"lookahead", {148, 2939, "4db8605e9fe2a2ade08842f512c91ff2"}},
      {"noise-aware", {261, 3956, "be212dbea1584076c1cbb4afd8ed7242"}},
      {"bridge", {135, 4697, "2fbfd078ca0ad4627a1921088fc9952a"}},
  };
  for (const auto& [router, golden] : kRouters) {
    SCOPED_TRACE(std::string("router ") + router);
    mapper::MappingOptions mapping;
    mapping.placer = "degree-match";
    mapping.router = router;
    expect_clean_and_golden(
        validate_suite(device::surface17_device(), options, mapping, 11),
        golden);
  }
  // The optimal router searches permutations exhaustively per slice, so it
  // only gets toy inputs (the same regime its own tests run it in).
  {
    SCOPED_TRACE("router optimal");
    workloads::SuiteOptions tiny;
    tiny.random_count = 2;
    tiny.real_count = 2;
    tiny.reversible_count = 1;
    tiny.min_qubits = 2;
    tiny.max_qubits = 4;
    tiny.min_gates = 5;
    tiny.max_gates = 40;
    mapper::MappingOptions mapping;
    mapping.placer = "degree-match";
    mapping.router = "optimal";
    expect_clean_and_golden(
        validate_suite(device::line_device(4), tiny, mapping, 11),
        {8, 279, "f541e2702c111b42ad7ce337b53ebc46"});
  }
}

}  // namespace
}  // namespace qfs::analysis
