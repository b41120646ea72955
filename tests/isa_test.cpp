#include <gtest/gtest.h>

#include "compiler/schedule.h"
#include "device/device.h"
#include "isa/pulse.h"
#include "isa/timed_program.h"
#include "mapper/pipeline.h"
#include "workloads/algorithms.h"

namespace qfs::isa {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using device::Device;

TimedProgram lower(const Circuit& c, const Device& d) {
  return lower_to_timed_program(c, compiler::asap_schedule(c, d));
}

TEST(TimedProgram, EmptyCircuit) {
  Device d = device::line_device(2);
  TimedProgram p = lower(Circuit(2), d);
  EXPECT_EQ(p.instruction_count(), 0);
  EXPECT_EQ(p.makespan_cycles(), 0);
  EXPECT_DOUBLE_EQ(p.average_bundle_width(), 0.0);
}

TEST(TimedProgram, ParallelGatesShareBundle) {
  Device d = device::line_device(3);
  Circuit c(3);
  c.rx(0.1, 0).rx(0.2, 1).rx(0.3, 2);
  TimedProgram p = lower(c, d);
  ASSERT_EQ(p.bundles().size(), 1u);
  EXPECT_EQ(p.bundles()[0].instructions.size(), 3u);
  EXPECT_DOUBLE_EQ(p.average_bundle_width(), 3.0);
}

TEST(TimedProgram, SequentialGatesSeparateBundles) {
  Device d = device::line_device(2);
  Circuit c(2);
  c.rx(0.1, 0).rz(0.2, 0);
  TimedProgram p = lower(c, d);
  ASSERT_EQ(p.bundles().size(), 2u);
  EXPECT_EQ(p.bundles()[0].start_cycle, 0);
  EXPECT_EQ(p.bundles()[1].start_cycle, 1);
}

TEST(TimedProgram, BarriersDropped) {
  Device d = device::line_device(2);
  Circuit c(2);
  c.rx(0.1, 0);
  c.barrier({0, 1});
  c.rx(0.2, 1);
  TimedProgram p = lower(c, d);
  EXPECT_EQ(p.instruction_count(), 2);
  for (const auto& b : p.bundles()) {
    for (const auto& ins : b.instructions) {
      EXPECT_NE(ins.kind, GateKind::kBarrier);
    }
  }
}

TEST(TimedProgram, MakespanMatchesSchedule) {
  Device d = device::line_device(4);
  Circuit c(4);
  c.cz(0, 1).cz(1, 2).measure(3);
  auto schedule = compiler::asap_schedule(c, d);
  TimedProgram p = lower_to_timed_program(c, schedule);
  EXPECT_EQ(p.makespan_cycles(), schedule.makespan_cycles);
}

TEST(TimedProgram, QubitUtilization) {
  Device d = device::line_device(2);
  Circuit c(2);
  c.cz(0, 1);  // 2 cycles on both qubits, makespan 2
  TimedProgram p = lower(c, d);
  auto util = p.qubit_utilization();
  EXPECT_DOUBLE_EQ(util[0], 1.0);
  EXPECT_DOUBLE_EQ(util[1], 1.0);
}

TEST(TimedProgram, TextFormat) {
  Device d = device::line_device(2);
  Circuit c(2, "demo");
  c.rx(1.5, 0).cz(0, 1);
  TimedProgram p = lower(c, d);
  std::string text = p.to_text();
  EXPECT_NE(text.find("# timed program: demo"), std::string::npos);
  EXPECT_NE(text.find(".qubits 2"), std::string::npos);
  EXPECT_NE(text.find("rx(1.5"), std::string::npos);
  EXPECT_NE(text.find("cz Q0,Q1"), std::string::npos);
  EXPECT_NE(text.find("0: {"), std::string::npos);
}

TEST(TimedProgram, BundleOrderingEnforced) {
  std::vector<Bundle> out_of_order(2);
  out_of_order[0].start_cycle = 5;
  out_of_order[1].start_cycle = 3;
  EXPECT_THROW(TimedProgram("bad", 20.0, 2, out_of_order), AssertionError);
}

// ---------------------------------------------------------------------------
// Pulse lowering (control electronics)
// ---------------------------------------------------------------------------

TEST(Pulse, ChannelsByInstructionKind) {
  Device d = device::line_device(3);
  Circuit c(3);
  c.rx(0.5, 0).cz(1, 2).measure(0);
  auto result = lower_to_pulses(lower(c, d), d);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const PulseSchedule& ps = result.value();
  EXPECT_EQ(ps.total_pulses(), 3);
  bool have_drive = false, have_flux = false, have_readout = false;
  for (const auto& [id, pulses] : ps.channels()) {
    (void)pulses;
    if (id.kind == ChannelKind::kDrive) have_drive = true;
    if (id.kind == ChannelKind::kFlux) have_flux = true;
    if (id.kind == ChannelKind::kReadout) have_readout = true;
  }
  EXPECT_TRUE(have_drive);
  EXPECT_TRUE(have_flux);
  EXPECT_TRUE(have_readout);
}

TEST(Pulse, WaveformNamesCarryAngles) {
  Device d = device::line_device(2);
  Circuit c(2);
  c.rx(1.5, 0);
  auto result = lower_to_pulses(lower(c, d), d);
  ASSERT_TRUE(result.is_ok());
  const auto& pulses = result.value().channels().begin()->second;
  ASSERT_EQ(pulses.size(), 1u);
  EXPECT_NE(pulses[0].waveform.find("drag(rx,1.5"), std::string::npos);
}

TEST(Pulse, UncoupledPairRejected) {
  Device d = device::line_device(3);
  Bundle b;
  b.start_cycle = 0;
  b.instructions.push_back(Instruction{GateKind::kCz, {0, 2}, {}, 2});
  TimedProgram p("bad", 20.0, 3, {b});
  auto result = lower_to_pulses(p, d);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("flux"), std::string::npos);
}

TEST(Pulse, ChannelExclusivityValidated) {
  Device d = device::line_device(2);
  // Two overlapping pulses on one drive channel — an invalid hand-built
  // program (same qubit, overlapping bundles).
  Bundle b0, b1;
  b0.start_cycle = 0;
  b0.instructions.push_back(Instruction{GateKind::kRx, {0}, {0.1}, 3});
  b1.start_cycle = 1;
  b1.instructions.push_back(Instruction{GateKind::kRz, {0}, {0.1}, 3});
  TimedProgram p("bad", 20.0, 2, {b0, b1});
  auto result = lower_to_pulses(p, d);
  EXPECT_FALSE(result.is_ok());
}

TEST(Pulse, MappedScheduledCircuitLowersCleanly) {
  Device d = device::surface17_device();
  qfs::Rng rng(4);
  Circuit c = workloads::qft(5);
  mapper::MappingResult r = mapper::map_circuit(c, d, rng);
  TimedProgram p = lower(r.mapped, d);
  auto result = lower_to_pulses(p, d);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(p.average_bundle_width(), 1.0);  // some parallelism exists
  EXPECT_EQ(result.value().total_pulses(), p.instruction_count());
  EXPECT_TRUE(result.value().channels_exclusive());
  // Every pulse lies inside the program's makespan.
  for (const auto& [id, pulses] : result.value().channels()) {
    for (const auto& pulse : pulses) {
      EXPECT_GE(pulse.start_cycle, 0) << channel_name(id);
      EXPECT_LE(pulse.start_cycle + pulse.duration_cycles, p.makespan_cycles())
          << channel_name(id);
    }
  }
}

TEST(Pulse, ChannelNames) {
  EXPECT_EQ(channel_name(ChannelId{ChannelKind::kDrive, 3, -1}), "drive:Q3");
  EXPECT_EQ(channel_name(ChannelId{ChannelKind::kFlux, 1, 4}), "flux:Q1-Q4");
  EXPECT_EQ(channel_name(ChannelId{ChannelKind::kReadout, 0, -1}),
            "readout:Q0");
}

}  // namespace
}  // namespace qfs::isa
