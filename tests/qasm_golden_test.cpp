// QASM codec goldens.
//
// QasmParseGolden pins qasm::parse on the corpus in qasm_corpus.h and on the
// QASM of the 200-circuit paper suite: for each input, the digest of
// to_qasm of the parsed circuit when the parse succeeds, and the exact
// status (code, message, line number) when it fails. One digest per seed
// program covers the seed and all its mutants.
//
// QasmEmitGolden pins qasm::to_qasm: angles at the edges of the fixed
// 12-decimal rendering (signed zero, tiny, huge, -DBL_MAX, the smallest
// denormal, one ulp either side of pi/2), more distinct angles than a
// formatting cache can hold in an order that makes it reuse slots, every
// gate kind, and named and unnamed circuits.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "qasm/parser.h"
#include "qasm/writer.h"
#include "qasm_corpus.h"
#include "support/assert.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace qfs::qasm {
namespace {

using circuit::Circuit;
using circuit::GateKind;

/// What parse makes of `text`, as one line: "ok <digest of to_qasm>",
/// "err <status>", or "assert" for a broken gate contract.
std::string outcome(const std::string& text) {
  try {
    auto parsed = parse(text);
    if (!parsed.is_ok()) return "err " + parsed.status().to_string();
    return "ok " + qfs::hash128(to_qasm(parsed.value())).hex();
  } catch (const qfs::AssertionError&) {
    return "assert";
  }
}

/// Digest of the outcomes of `seed` and `kMutants` mutants of it.
constexpr int kMutants = 400;

std::string corpus_digest(const corpus::Seed& seed, std::uint64_t stream,
                          int* ok_count) {
  qfs::Hasher hasher;
  std::vector<std::string> inputs = corpus::mutants(seed.text, kMutants, stream);
  inputs.insert(inputs.begin(), seed.text);
  for (const std::string& text : inputs) {
    const std::string line = outcome(text);
    if (line.rfind("ok ", 0) == 0) ++*ok_count;
    hasher.update(line);
    hasher.update("\n");
  }
  return hasher.finish().hex();
}

void expect_corpus(const std::vector<corpus::Seed>& seeds,
                   const std::vector<std::pair<std::string, std::string>>&
                       golden) {
  EXPECT_EQ(seeds.size(), golden.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    int ok = 0;
    const std::string digest = corpus_digest(seeds[i], 1000 + i, &ok);
    if (i >= golden.size()) {
      ADD_FAILURE() << "no golden for {\"" << seeds[i].name << "\", \""
                    << digest << "\"}";
      continue;
    }
    EXPECT_EQ(seeds[i].name, golden[i].first);
    EXPECT_EQ(digest, golden[i].second)
        << seeds[i].name << " (" << ok << " of " << kMutants + 1
        << " inputs parse)";
  }
}

TEST(QasmParseGolden, FixturesAndTheirMutants) {
  expect_corpus(
      corpus::fixture_seeds(QFS_TESTDATA_DIR),
      {
          {"bv6.qasm", "277513f5fa5983141117ce059b5e2221"},
          {"ghz5.qasm", "d0d9c9c1f1cec9529d171d5531606fb9"},
          {"lint/qfs001_qubit_out_of_range.qasm", "b3f5f793266140d43fc7e54b55185b4e"},
          {"lint/qfs002_duplicate_operand.qasm", "e8e78c7c8deabd83da30d8d70fda6a61"},
          {"lint/qfs003_gate_after_measure.qasm", "2005175512e335d494b9753cc972e87e"},
          {"lint/qfs004_idle_qubit.qasm", "44180351986fe98ac8d3a5e232d8845e"},
          {"lint/qfs005_non_native_gate.qasm", "e06c8aea0a8b33e46878b7dc8d778e39"},
          {"lint/qfs006_non_adjacent_pair.qasm", "f8a8978288cb4b46d97087d1b305c3c8"},
          {"lint/qfs008_unreachable_after_measure_all.qasm", "2816a1f5791dca5f9044fe27bae5a7ad"},
          {"lint/qfs009_oversized_register.qasm", "3fd4db46913e0fbe6ac78a96970bfc91"},
          {"lint/qfs100_parse_error.qasm", "ce88b1d6d69f7aac0b17b854194764ad"},
          {"qasmbench/adder_n4.qasm", "3b457806b3ee85c728268c6e44b7419c"},
          {"qasmbench/bell_n4.qasm", "b9ba1fe781d308b35f253b105b381b35"},
          {"qasmbench/bv_n8.qasm", "2bbf72f6b42cf8cfdbe44437437da8c5"},
          {"qasmbench/fredkin_n3.qasm", "0f7b102856fbaddbe236e7ed3d178dcd"},
          {"qasmbench/grover_n5.qasm", "c8877ccf8522eae065327471289dc0c3"},
          {"qasmbench/ising_n10.qasm", "87269b67bf748bc9d4c14ddab7c1a767"},
          {"qasmbench/qaoa_n6.qasm", "9ec9fb2e754f8ce63c6f222ad89d9404"},
          {"qasmbench/qft_n7.qasm", "f40709f2ba5bf42f7f65b51136c5b302"},
          {"qasmbench/qpe_n9.qasm", "89d3efe8422c06cf0fd7869c36f9625b"},
          {"qasmbench/simon_n6.qasm", "6d40848f61d506755ee469e43b24f0bb"},
          {"qasmbench/variational_n4.qasm", "7992faad88bb7f4ea963a0a59192fb49"},
          {"qasmbench/wstate_n3.qasm", "e2d6ea734e73442cc8ddc44b30128ab8"},
          {"qft4.qasm", "b7f4d2cc9846ae09225e55aaebe304c2"},
          {"shared_group_xy.qasm", "0f3b21b8209853ee6b7e56d3bb62ca3e"},
          {"toffoli3.qasm", "49cae98180d443357a409c47becffc1d"},
          {"truncated.qasm", "ac4a75a15f31fa73a84b6b17743603f2"},
      });
}

TEST(QasmParseGolden, InlineProgramsAndTheirMutants) {
  expect_corpus(
      corpus::inline_seeds(),
      {
          {"inline/gatedefs", "23ccfbe6c8347cfeda8261041948e4bf"},
          {"inline/macros", "25ab3eba1813ecab8bc0250ca8ed75e1"},
          {"inline/layout", "81d1aed1417f3c6dddb8d665a1f5abee"},
      });
}

TEST(QasmParseGolden, PaperSuite) {
  qfs::Rng rng(2022);
  qfs::Hasher hasher;
  int ok = 0;
  for (const auto& b : workloads::paper_suite(rng)) {
    const std::string line = outcome(to_qasm(b.circuit));
    if (line.rfind("ok ", 0) == 0) ++ok;
    hasher.update(line);
    hasher.update("\n");
  }
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(hasher.finish().hex(), "509775031d6a5d49ffac97cf801bc8ec");
}

// ---------------------------------------------------------------------------

std::string emit_digest(const Circuit& c) {
  return qfs::hash128(to_qasm(c)).hex();
}

TEST(QasmEmitGolden, EdgeAngles) {
  const double half_pi = M_PI / 2;
  const std::vector<double> angles = {
      0.0,
      -0.0,
      1e-13,
      5e-13,
      1e50,
      1e300,
      -DBL_MAX,
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(half_pi, 4.0),
      std::nextafter(half_pi, 0.0),
      std::nextafter(-half_pi, -4.0),
      std::nextafter(-half_pi, 0.0),
      half_pi,
      -half_pi,
      M_PI,
  };
  Circuit c(3, "edges");
  for (double a : angles) {
    c.rz(a, 0).p(a, 1).cp(a, 0, 2);
    c.u3(a, -a, a / 3, 2);
  }
  const std::string text = to_qasm(c);
  // Spot-check the rendering the digest pins.
  EXPECT_NE(text.find("rz(-0.000000000000) q[0];\n"), std::string::npos);
  EXPECT_NE(text.find("u1(0.000000000000) q[1];\n"), std::string::npos);
  EXPECT_NE(text.find("rz(1.570796326795) q[0];\n"), std::string::npos);
  EXPECT_EQ(emit_digest(c), "6d7d0a95e4fce77363dae97f764506ca");
}

TEST(QasmEmitGolden, ManyDistinctAnglesReuseSlots) {
  // 5000 distinct angles, three times over in different orders, each
  // followed by a recurring one: any bounded angle cache has to evict and
  // refill slots, and must still render every value exactly.
  constexpr int kDistinct = 5000;
  std::vector<int> order(kDistinct);
  std::iota(order.begin(), order.end(), 0);
  Circuit c(2);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kDistinct; ++i) {
      const int k = round == 1 ? order[static_cast<std::size_t>(kDistinct - 1 - i)]
                               : order[static_cast<std::size_t>((i * 7919) % kDistinct)];
      c.rz(0.001 * k - 2.5, 0);
      c.rx(M_PI / 4, 1);
    }
  }
  EXPECT_EQ(emit_digest(c), "fb01f3cae57dfaf37c5d7a62ead8864c");
}

TEST(QasmEmitGolden, EveryKindNamedAndUnnamed) {
  const double angles[] = {0.3, -1.1, 2.5};
  const std::pair<const char*, const char*> golden[] = {
      {"every_kind", "770f4fb0b3caff7f3f42178e571dea79"},
      {"", "72c82a1de46f77956057bfada7ed806f"},
  };
  for (const auto& [name, digest] : golden) {
    Circuit c(300, name);
    for (int k = 0; k < circuit::kNumGateKinds; ++k) {
      const auto kind = static_cast<GateKind>(k);
      if (kind == GateKind::kBarrier) continue;
      const int arity = circuit::gate_arity(kind);
      std::vector<int> qubits;
      for (int q = 0; q < arity; ++q) qubits.push_back(299 - 17 * q - k);
      std::vector<double> params;
      for (int p = 0; p < circuit::gate_param_count(kind); ++p) {
        params.push_back(angles[p]);
      }
      c.add(kind, qubits, params);
    }
    std::vector<int> all(300);
    std::iota(all.begin(), all.end(), 0);
    c.barrier(all);
    c.ccz(7, 100, 299).p(0.25, 9).cp(-0.25, 10, 11).measure(12).reset(12);
    const std::string text = to_qasm(c);
    EXPECT_NE(text.find("h q[299];\nccx q[7],q[100],q[299];\nh q[299];\n"),
              std::string::npos);
    EXPECT_EQ(text.find("// circuit:") != std::string::npos, *name != '\0');
    EXPECT_EQ(emit_digest(c), digest) << '"' << name << '"';
  }
}

}  // namespace
}  // namespace qfs::qasm
