// Ablation: routing strategy. The paper's example uses the trivial
// (OpenQL-style) router; qfs also implements a SABRE-style lookahead router
// and a noise-aware router. This bench quantifies what better routing buys
// on the same suite/device — the "hardware-aware compilation" side of the
// paper's co-design argument.
#include <iostream>

#include "common.h"
#include "report/table.h"
#include "stats/descriptive.h"

using namespace qfs;

int main(int argc, char** argv) {
  const service::RequestFlagValues flags = bench::request_flags(argc, argv);
  const int jobs = flags.jobs;
  const int max_gates = bench::int_flag(argc, argv, "--max-gates", 1500);
  std::cout << "=== Ablation: routers (surface-97, trivial placement) ===\n\n";

  device::Device dev = bench::resolve_device(flags, "surface97");
  // Error variability across the chip so the noise-aware router has real
  // signal to exploit.
  {
    qfs::Rng noise(7);
    dev.mutable_error_model().randomize(dev.num_qubits(),
                                        dev.topology().edge_list(), 0.008,
                                        noise);
  }

  report::TextTable t({"router", "mean overhead %", "median overhead %",
                       "mean swaps", "mean log-fidelity after"});

  std::vector<std::pair<std::string, std::vector<double>>> overhead_by_router;
  for (const std::string router :
       {"trivial", "lookahead", "noise-aware", "bridge"}) {
    bench::SuiteRunConfig config;
    config.jobs = jobs;
    config.suite.random_count = 30;
    config.suite.real_count = 30;
    config.suite.reversible_count = 15;
    config.suite.max_gates = max_gates;
    config.mapping.router = router;
    std::cerr << router << " ";
    auto rows = bench::run_suite(dev, config);

    std::vector<double> overhead, swaps, logf;
    for (const auto& r : rows) {
      overhead.push_back(r.mapping.gate_overhead_pct);
      swaps.push_back(r.mapping.swaps_inserted);
      logf.push_back(r.mapping.log_fidelity_after);
    }
    t.add_row({router, bench::fmt(stats::mean(overhead), 1),
               bench::fmt(stats::median(overhead), 1),
               bench::fmt(stats::mean(swaps), 1),
               bench::fmt(stats::mean(logf), 2)});
    overhead_by_router.emplace_back(router, overhead);
  }
  std::cout << t.to_string() << "\n";

  double trivial_mean = stats::mean(overhead_by_router[0].second);
  double lookahead_mean = stats::mean(overhead_by_router[1].second);
  std::cout << "Lookahead beats the trivial baseline on mean overhead: "
            << (lookahead_mean < trivial_mean ? "HOLDS" : "VIOLATED") << "\n";
  std::cout << "(Identical suites per router: seeds are fixed, so rows are "
               "paired.)\n";
  return 0;
}
