// Schedule goldens. Every suite golden elsewhere (EquivValidation, SuiteGolden)
// compiles with compute_latency off, so these digests are the only pin on
// what the scheduler outputs: the suite's latency_before/after_ns through
// bench::run_suite, and the full Schedule contents (index, start, duration,
// makespan) for ASAP and ALAP with crosstalk exclusion off and on, over a
// shrunken paper suite on surface97 with its control groups.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "compiler/decompose.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "support/hash.h"

namespace qfs::compiler {
namespace {

/// The paper's suite on surface97 (degree-match placer, lookahead router as
/// perfbench compiles it), shrunk to keep the test near a second.
bench::SuiteRunConfig shrunken_suite_config() {
  bench::SuiteRunConfig config;
  config.suite.max_gates = 1000;
  config.mapping.placer = "degree-match";
  config.mapping.router = "lookahead";
  return config;
}

void hash_schedule(qfs::Hasher& hasher, const Schedule& schedule) {
  std::ostringstream os;
  for (const ScheduledGate& sg : schedule.gates) {
    os << sg.gate_index << ' ' << sg.start_cycle << ' ' << sg.duration_cycles
       << '\n';
  }
  os << "makespan " << schedule.makespan_cycles << '\n';
  hasher.update(os.str());
}

TEST(ScheduleGolden, SuiteSchedulesMatchGolden) {
  const device::Device dev = device::surface97_device();
  ASSERT_TRUE(dev.has_control_groups());
  bench::SuiteRunConfig config = shrunken_suite_config();
  config.mapping.compute_latency = true;
  qfs::Rng suite_rng(config.seed);
  const auto suite = workloads::make_suite(config.suite, suite_rng);
  const auto rows = bench::run_suite(dev, config, suite);

  std::ostringstream latencies;
  latencies.precision(17);
  qfs::Hasher asap_plain, asap_safe, alap_plain, alap_safe;
  ScheduleOptions plain;
  ScheduleOptions safe;
  safe.avoid_crosstalk = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const mapper::MappingResult& mapping = rows[i].mapping;
    EXPECT_GT(mapping.latency_after_ns, 0.0) << rows[i].name;
    latencies << rows[i].name << ' ' << mapping.latency_before_ns << ' '
              << mapping.latency_after_ns << '\n';
    const circuit::Circuit decomposed =
        decompose_to_gateset(suite[i].circuit, dev.gateset());
    for (const circuit::Circuit* c : {&decomposed, &mapping.mapped}) {
      hash_schedule(asap_plain, asap_schedule(*c, dev, plain));
      hash_schedule(alap_plain, alap_schedule(*c, dev, plain));
      hash_schedule(asap_safe, asap_schedule(*c, dev, safe));
      hash_schedule(alap_safe, alap_schedule(*c, dev, safe));
    }
  }
  // Goldens for the Linux x86-64 / glibc toolchain.
  EXPECT_EQ(qfs::hash128(latencies.str()).hex(),
            "dfb100d008501341e440f99a9a635d24");
  EXPECT_EQ(asap_plain.finish().hex(), "d09f47ed3db9056b00f22913f54ca4d2");
  EXPECT_EQ(alap_plain.finish().hex(), "455b3054e8f65c843d80f083e83cec66");
  EXPECT_EQ(asap_safe.finish().hex(), "42cd7a68ab7d46104c85df834bea9ef8");
  EXPECT_EQ(alap_safe.finish().hex(), "87227fde4ab6b84de80cd0918b1cd983");
}

}  // namespace
}  // namespace qfs::compiler
