// QASM round-trip property: printing is a *fixed point* of print -> parse ->
// print for every circuit in the benchmark suite. The compile cache keys
// artifacts by the canonical QASM text (cache/fingerprint.h), so a circuit
// and its reparse must render identically or warm-cache runs would miss —
// or worse, alias — entries.
#include <string>

#include "gtest/gtest.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace qfs {
namespace {

// print(parse(print(c))) == print(c) for one circuit; returns the canonical
// text for reuse.
std::string expect_fixed_point(const circuit::Circuit& circuit,
                               const std::string& label) {
  std::string once = qasm::to_qasm(circuit);
  auto reparsed = qasm::parse(once);
  EXPECT_TRUE(reparsed.is_ok())
      << label << ": " << reparsed.status().to_string();
  if (!reparsed.is_ok()) return once;
  std::string twice = qasm::to_qasm(reparsed.value());
  EXPECT_EQ(once, twice) << label << ": QASM printing is not a fixed point";
  return once;
}

TEST(QasmRoundTripTest, PaperSuiteIsAFixedPoint) {
  Rng rng(2022);
  auto suite = workloads::paper_suite(rng);
  ASSERT_EQ(suite.size(), 200u);
  for (const auto& b : suite) {
    expect_fixed_point(b.circuit, b.name);
  }
}

TEST(QasmRoundTripTest, HugeAnglesRoundTripExactly) {
  // Fixed notation spells every integer digit of a large angle; the text
  // must carry all of them (1e100 has 101, 1e300 has 301) so the reparse is
  // the same double, not a truncated prefix.
  circuit::Circuit c(2);
  c.rz(1e100, 0).rz(-1e300, 1);
  auto reparsed = qasm::parse(qasm::to_qasm(c));
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  ASSERT_EQ(reparsed.value().gates().size(), 2u);
  EXPECT_EQ(reparsed.value().gates()[0].params[0], 1e100);
  EXPECT_EQ(reparsed.value().gates()[1].params[0], -1e300);
  expect_fixed_point(c, "huge angles");
}

TEST(QasmRoundTripTest, CircuitNameSurvivesRoundTrip) {
  Rng rng(7);
  workloads::SuiteOptions opts;
  opts.random_count = 3;
  opts.real_count = 3;
  opts.reversible_count = 2;
  opts.max_gates = 200;
  for (const auto& b : workloads::make_suite(opts, rng)) {
    auto reparsed = qasm::parse(qasm::to_qasm(b.circuit));
    ASSERT_TRUE(reparsed.is_ok()) << b.name;
    EXPECT_EQ(reparsed.value().name(), b.circuit.name()) << b.name;
  }
}

TEST(QasmRoundTripTest, SecondSeedAlsoFixedPoint) {
  // A different seed exercises different gate/angle draws; the property is
  // seed-independent.
  Rng rng(99);
  workloads::SuiteOptions opts;
  opts.random_count = 10;
  opts.real_count = 10;
  opts.reversible_count = 5;
  opts.max_gates = 500;
  for (const auto& b : workloads::make_suite(opts, rng)) {
    expect_fixed_point(b.circuit, b.name);
  }
}

}  // namespace
}  // namespace qfs
