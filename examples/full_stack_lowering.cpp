// Scenario: the full stack, top to bottom (Fig. 1 of the paper).
//
// A quantum algorithm descends through every layer qfs implements:
//   application  ->  circuit IR            (workloads / circuit)
//   compiler     ->  decompose + map       (compiler / mapper)
//   scheduler    ->  cycle-accurate timing (compiler::asap_schedule)
//   quantum ISA  ->  timed bundles         (isa::TimedProgram)
// and the control-electronics view is approximated by per-qubit
// utilisation and shared-control-group validation.
#include <iostream>

#include "analysis/checkers.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "isa/pulse.h"
#include "isa/timed_program.h"
#include "mapper/pipeline.h"
#include "report/table.h"
#include "support/strings.h"
#include "workloads/algorithms.h"

int main() {
  using namespace qfs;

  std::cout << "=== Full-stack lowering: application -> control timing ===\n\n";

  // Layer 1: the application (a 4-bit Cuccaro adder).
  circuit::Circuit algo = workloads::cuccaro_adder(4);
  std::cout << "[application]  " << algo.name() << ": " << algo.num_qubits()
            << " qubits, " << algo.gate_count() << " gates, depth "
            << algo.depth() << "\n";

  // Layer 2: compiler — decompose to surface-code primitives, place, route.
  device::Device chip = device::surface17_device();
  mapper::MappingOptions opt;
  opt.placer = "subgraph";  // exact embedding when the structure allows it
  qfs::Rng rng(8);
  mapper::MappingResult mapped = mapper::map_circuit(algo, chip, opt, rng);
  std::cout << "[compiler]     " << mapped.gates_after
            << " primitive gates on " << chip.name() << ", "
            << mapped.swaps_inserted << " SWAPs, overhead "
            << format_double(mapped.gate_overhead_pct, 1) << " %\n";

  // Layer 3: scheduler — ASAP with shared-control and crosstalk rules.
  compiler::ScheduleOptions sched_opt;
  sched_opt.avoid_crosstalk = true;
  compiler::Schedule schedule =
      compiler::asap_schedule(mapped.mapped, chip, sched_opt);
  std::cout << "[scheduler]    " << schedule.makespan_cycles << " cycles ("
            << format_double(schedule.makespan_ns() / 1000.0, 2)
            << " us), crosstalk pairs: "
            << compiler::count_crosstalk_pairs(mapped.mapped, chip, schedule)
            << "\n";

  // Layer 4: quantum ISA — explicit timed bundles.
  isa::TimedProgram program =
      isa::lower_to_timed_program(mapped.mapped, schedule);
  const bool valid = analysis::analyze_timed_program(program, chip).empty();
  std::cout << "[quantum ISA]  " << program.instruction_count()
            << " instructions in " << program.bundles().size()
            << " bundles, mean width "
            << format_double(program.average_bundle_width(), 2)
            << ", valid on device: " << (valid ? "yes" : "NO") << "\n\n";

  // Layer 5: control electronics — analog channels and waveforms.
  auto pulses = isa::lower_to_pulses(program, chip);
  if (pulses.is_ok()) {
    std::cout << "[electronics]  " << pulses.value().total_pulses()
              << " pulses on " << pulses.value().num_channels()
              << " analog channels (drive/flux/readout), channel-exclusive: "
              << (pulses.value().channels_exclusive() ? "yes" : "NO") << "\n\n";
  }

  // Control-electronics view: per-qubit utilisation of the busiest qubits.
  auto util = program.qubit_utilization();
  report::TextTable t({"physical qubit", "control group", "utilisation %"});
  for (int q = 0; q < chip.num_qubits(); ++q) {
    if (util[static_cast<std::size_t>(q)] == 0.0) continue;
    t.add_row({"Q" + std::to_string(q),
               std::to_string(chip.control_group(q)),
               format_double(100.0 * util[static_cast<std::size_t>(q)], 1)});
  }
  std::cout << t.to_string() << "\n";

  std::cout << "First bundles of the timed program:\n";
  std::string text = program.to_text();
  std::size_t shown = 0, pos = 0;
  while (shown < 15 && pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    std::cout << text.substr(pos, nl - pos + 1);
    pos = nl + 1;
    ++shown;
  }
  std::cout << "...\n";
  return 0;
}
