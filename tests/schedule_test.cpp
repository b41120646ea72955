#include <gtest/gtest.h>

#include <cmath>

#include "compiler/schedule.h"
#include "device/device.h"
#include "support/rng.h"
#include "workloads/random_circuit.h"

namespace qfs::compiler {
namespace {

using circuit::Circuit;
using device::Device;

Device ungrouped_line(int n) {
  // line device has no control groups configured.
  return device::line_device(n);
}

TEST(Schedule, EmptyCircuit) {
  Device d = ungrouped_line(3);
  Schedule s = asap_schedule(Circuit(3), d);
  EXPECT_EQ(s.makespan_cycles, 0);
  EXPECT_TRUE(s.gates.empty());
}

TEST(Schedule, ParallelSingleQubitGatesShareCycle) {
  Device d = ungrouped_line(3);
  Circuit c(3);
  c.rx(0.1, 0).rx(0.2, 1).rx(0.3, 2);
  Schedule s = asap_schedule(c, d);
  for (const auto& sg : s.gates) EXPECT_EQ(sg.start_cycle, 0);
  EXPECT_EQ(s.makespan_cycles, 1);  // 20ns gate / 20ns cycle
}

TEST(Schedule, SharedQubitSerialises) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.rx(0.1, 0).rz(0.2, 0);
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[0].start_cycle, 0);
  EXPECT_EQ(s.gates[1].start_cycle, 1);
}

TEST(Schedule, TwoQubitGateDuration) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.cz(0, 1).rx(0.1, 0);
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[0].duration_cycles, 2);  // 40ns / 20ns
  EXPECT_EQ(s.gates[1].start_cycle, 2);
  EXPECT_DOUBLE_EQ(s.makespan_ns(), 60.0);
}

TEST(Schedule, MeasurementIsLong) {
  Device d = ungrouped_line(1);
  Circuit c(1);
  c.measure(0);
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[0].duration_cycles, 30);  // 600ns / 20ns
}

TEST(Schedule, BarrierOrdersWithoutCycleCost) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.rx(0.1, 0);
  c.barrier({0, 1});
  c.rx(0.2, 1);
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[1].duration_cycles, 0);
  EXPECT_EQ(s.gates[2].start_cycle, 1);  // pushed after rx(0) via barrier
  EXPECT_EQ(s.makespan_cycles, 2);
}

TEST(Schedule, AsapIsValid) {
  qfs::Rng rng(3);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 6;
  spec.num_gates = 120;
  spec.two_qubit_fraction = 0.4;
  Circuit c = workloads::random_circuit(spec, rng);
  Device d = ungrouped_line(6);
  Schedule s = asap_schedule(c, d);
  EXPECT_TRUE(schedule_is_valid(c, d, s));
}

TEST(Schedule, AlapIsValidAndSameMakespan) {
  qfs::Rng rng(5);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 5;
  spec.num_gates = 80;
  spec.two_qubit_fraction = 0.3;
  Circuit c = workloads::random_circuit(spec, rng);
  Device d = ungrouped_line(5);
  Schedule asap = asap_schedule(c, d);
  Schedule alap = alap_schedule(c, d);
  EXPECT_TRUE(schedule_is_valid(c, d, alap));
  EXPECT_EQ(asap.makespan_cycles, alap.makespan_cycles);
  // ALAP never starts a gate earlier than ASAP.
  for (std::size_t i = 0; i < asap.gates.size(); ++i) {
    EXPECT_GE(alap.gates[i].start_cycle, asap.gates[i].start_cycle);
  }
}

TEST(Schedule, ControlGroupsForbidMixedKindsInOneCycle) {
  Device d = device::surface17_device();
  // Qubits 0 and 1 share control group 0; rx and ry must not overlap.
  Circuit c(17);
  c.rx(0.1, 0).ry(0.2, 1);
  Schedule s = asap_schedule(c, d);
  EXPECT_TRUE(schedule_is_valid(c, d, s));
  EXPECT_NE(s.gates[0].start_cycle, s.gates[1].start_cycle);
}

TEST(Schedule, ControlGroupsAllowSameKindBroadcast) {
  Device d = device::surface17_device();
  Circuit c(17);
  c.x(0).x(1);  // same kind, same group: may share the cycle
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[0].start_cycle, s.gates[1].start_cycle);
}

TEST(Schedule, ControlGroupsDifferentGroupsUnconstrained) {
  Device d = device::surface17_device();
  Circuit c(17);
  c.rx(0.1, 0).ry(0.2, 2);  // rows 0 and 1: groups 0 and 1
  Schedule s = asap_schedule(c, d);
  EXPECT_EQ(s.gates[0].start_cycle, s.gates[1].start_cycle);
}

TEST(Schedule, ControlGroupsCanBeDisabled) {
  Device d = device::surface17_device();
  Circuit c(17);
  c.rx(0.1, 0).ry(0.2, 1);
  ScheduleOptions opts;
  opts.respect_control_groups = false;
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_EQ(s.gates[0].start_cycle, s.gates[1].start_cycle);
}

TEST(Schedule, GroupedRandomCircuitsAreValid) {
  qfs::Rng rng(7);
  Device d = device::surface17_device();
  for (int trial = 0; trial < 5; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 17;
    spec.num_gates = 100;
    spec.two_qubit_fraction = 0.35;
    Circuit c = workloads::random_circuit(spec, rng);
    Schedule s = asap_schedule(c, d);
    EXPECT_TRUE(schedule_is_valid(c, d, s)) << "trial " << trial;
    Schedule alap = alap_schedule(c, d);
    EXPECT_TRUE(schedule_is_valid(c, d, alap)) << "trial " << trial;
  }
}

TEST(Schedule, ValidatorCatchesOverlap) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.rx(0.1, 0).rz(0.2, 0);
  Schedule s = asap_schedule(c, d);
  s.gates[1].start_cycle = 0;  // force overlap on qubit 0
  EXPECT_FALSE(schedule_is_valid(c, d, s));
}

TEST(Schedule, ValidatorCatchesWrongDuration) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.cz(0, 1);
  Schedule s = asap_schedule(c, d);
  s.gates[0].duration_cycles = 1;
  EXPECT_FALSE(schedule_is_valid(c, d, s));
}

TEST(Schedule, ValidatorCatchesMakespanViolation) {
  Device d = ungrouped_line(1);
  Circuit c(1);
  c.x(0);
  Schedule s = asap_schedule(c, d);
  s.makespan_cycles = 0;
  EXPECT_FALSE(schedule_is_valid(c, d, s));
}

TEST(Schedule, CustomCycleTime) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.cz(0, 1);
  ScheduleOptions opts;
  opts.cycle_time_ns = 10.0;
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_EQ(s.gates[0].duration_cycles, 4);  // 40ns / 10ns
  EXPECT_DOUBLE_EQ(s.makespan_ns(), 40.0);
}

TEST(Schedule, DurationBeyondIntCyclesIsRejected) {
  // Calibrations only promise finite positive durations: 1e300 ns is
  // 5e298 cycles, which no int holds.
  Device d = device::surface7_device();
  d.mutable_error_model().set_durations_ns(1e300, 40.0, 600.0);
  Circuit c(7);
  c.x(0);
  EXPECT_THROW(asap_schedule(c, d), AssertionError);
  EXPECT_THROW(alap_schedule(c, d), AssertionError);
  Schedule s;
  s.gates.push_back(ScheduledGate{0, 0, 1});
  s.makespan_cycles = 1;
  EXPECT_THROW(schedule_is_valid(c, d, s), AssertionError);

  // Only a kind the circuit uses is rejected.
  Circuit two_qubit_only(7);
  two_qubit_only.cz(0, 2);
  Schedule ok = asap_schedule(two_qubit_only, d);
  EXPECT_EQ(ok.makespan_cycles, 2);
  EXPECT_TRUE(schedule_is_valid(two_qubit_only, d, ok));
}

TEST(Schedule, EndCycleOverflowIsRejected) {
  // 1.5e9 cycles fit in an int; two of them back to back do not.
  Device d = ungrouped_line(1);
  d.mutable_error_model().set_durations_ns(3e10, 40.0, 600.0);
  Circuit one(1);
  one.x(0);
  EXPECT_EQ(asap_schedule(one, d).makespan_cycles, 1500000000);
  Circuit two(1);
  two.x(0).x(0);
  EXPECT_THROW(asap_schedule(two, d), AssertionError);
}

TEST(Schedule, LongConflictIsSkippedInOneProbe) {
  // x and y on qubits 0 and 1 share control group 0, so y waits for all
  // 5e6 cycles of x. A one-cycle retry would probe 5e6 starts of 5e6
  // cycles each; the skip jumps straight past the conflict.
  Device d = device::surface7_device();
  d.mutable_error_model().set_durations_ns(1e9, 40.0, 600.0);
  ScheduleOptions opts;
  opts.cycle_time_ns = 200.0;
  Circuit c(7);
  c.x(0).y(1).x(1);
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_EQ(s.gates[0].start_cycle, 0);
  EXPECT_EQ(s.gates[1].start_cycle, 5000000);
  EXPECT_EQ(s.gates[2].start_cycle, 10000000);
  EXPECT_EQ(s.makespan_cycles, 15000000);
  EXPECT_TRUE(schedule_is_valid(c, d, s, opts));
}

TEST(Crosstalk, AdjacentTwoQubitGatesSerialised) {
  // Line 0-1-2-3: cz(0,1) and cz(2,3) share the coupled pair (1,2), so the
  // crosstalk-aware schedule must not overlap them.
  Device d = ungrouped_line(4);
  Circuit c(4);
  c.cz(0, 1).cz(2, 3);
  Schedule plain = asap_schedule(c, d);
  EXPECT_EQ(plain.gates[0].start_cycle, plain.gates[1].start_cycle);
  EXPECT_EQ(count_crosstalk_pairs(c, d, plain), 1);

  ScheduleOptions opts;
  opts.avoid_crosstalk = true;
  Schedule safe = asap_schedule(c, d, opts);
  EXPECT_TRUE(schedule_is_valid(c, d, safe, opts));
  EXPECT_EQ(count_crosstalk_pairs(c, d, safe), 0);
  EXPECT_GT(safe.makespan_cycles, plain.makespan_cycles);
}

TEST(Crosstalk, DistantGatesStayParallel) {
  Device d = ungrouped_line(8);
  Circuit c(8);
  c.cz(0, 1).cz(5, 6);  // far apart: no spectator coupling
  ScheduleOptions opts;
  opts.avoid_crosstalk = true;
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_EQ(s.gates[0].start_cycle, s.gates[1].start_cycle);
  EXPECT_EQ(count_crosstalk_pairs(c, d, s), 0);
}

TEST(Crosstalk, SingleQubitGatesUnconstrained) {
  Device d = ungrouped_line(3);
  Circuit c(3);
  c.rx(0.1, 0).rx(0.2, 1).rx(0.3, 2);
  ScheduleOptions opts;
  opts.avoid_crosstalk = true;
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_EQ(s.makespan_cycles, 1);
}

TEST(Crosstalk, RandomCircuitsScheduleCleanly) {
  qfs::Rng rng(11);
  Device d = device::surface17_device();
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 17;
  spec.num_gates = 80;
  spec.two_qubit_fraction = 0.5;
  Circuit c = workloads::random_circuit(spec, rng);
  ScheduleOptions opts;
  opts.avoid_crosstalk = true;
  Schedule s = asap_schedule(c, d, opts);
  EXPECT_TRUE(schedule_is_valid(c, d, s, opts));
  EXPECT_EQ(count_crosstalk_pairs(c, d, s), 0);
}

TEST(Crosstalk, ScheduledFidelityPenalisesConflicts) {
  Device d = ungrouped_line(4);
  Circuit c(4);
  c.cz(0, 1).cz(2, 3);
  Schedule plain = asap_schedule(c, d);
  ScheduleOptions opts;
  opts.avoid_crosstalk = true;
  Schedule safe = asap_schedule(c, d, opts);
  double factor = 0.98;
  double f_plain = estimate_scheduled_log_fidelity(c, d, plain, factor);
  double f_safe = estimate_scheduled_log_fidelity(c, d, safe, factor);
  EXPECT_LT(f_plain, f_safe);
  EXPECT_NEAR(f_safe - f_plain, -std::log(factor), 1e-12);
}

TEST(Crosstalk, FactorValidation) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.cz(0, 1);
  Schedule s = asap_schedule(c, d);
  EXPECT_THROW(estimate_scheduled_log_fidelity(c, d, s, 0.0), AssertionError);
  EXPECT_THROW(estimate_scheduled_log_fidelity(c, d, s, 1.5), AssertionError);
}

TEST(Decoherence, IdleQubitsDecay) {
  Device d = ungrouped_line(3);
  // Qubit 0 runs a long measurement while qubit 1 idles next to it.
  Circuit c(3);
  c.measure(0).rx(0.1, 1);
  Schedule s = asap_schedule(c, d);
  double with = estimate_log_fidelity_with_decoherence(c, d, s);
  // Gate-only fidelity (no decoherence).
  double gate_only = std::log(d.error_model().measurement_fidelity()) +
                     std::log(d.error_model().single_qubit_fidelity());
  EXPECT_LT(with, gate_only);
}

TEST(Decoherence, UnusedQubitsExempt) {
  Device d = ungrouped_line(5);
  Circuit c(5);
  c.rx(0.1, 0);
  Schedule s = asap_schedule(c, d);
  // Only qubit 0 is used and it is busy the whole makespan: no decay.
  double f = estimate_log_fidelity_with_decoherence(c, d, s);
  EXPECT_NEAR(f, std::log(d.error_model().single_qubit_fidelity()), 1e-12);
}

TEST(Decoherence, ShorterScheduleHigherFidelity) {
  // Serial execution (forced by artificial dependencies) vs parallel: the
  // parallel schedule leaves less idle time, hence less decay.
  Device d = ungrouped_line(4);
  Circuit parallel(4);
  parallel.rx(0.1, 0).rx(0.1, 1).rx(0.1, 2).rx(0.1, 3);
  Circuit serial(4);
  serial.rx(0.1, 0);
  serial.barrier({0, 1, 2, 3});
  serial.rx(0.1, 1);
  serial.barrier({0, 1, 2, 3});
  serial.rx(0.1, 2);
  serial.barrier({0, 1, 2, 3});
  serial.rx(0.1, 3);
  Schedule sp = asap_schedule(parallel, d);
  Schedule ss = asap_schedule(serial, d);
  EXPECT_LT(sp.makespan_cycles, ss.makespan_cycles);
  EXPECT_GT(estimate_log_fidelity_with_decoherence(parallel, d, sp),
            estimate_log_fidelity_with_decoherence(serial, d, ss));
}

TEST(Decoherence, CoherenceTimesConfigurable) {
  Device d = ungrouped_line(2);
  Circuit c(2);
  c.measure(0).rx(0.1, 1);
  Schedule s = asap_schedule(c, d);
  double base = estimate_log_fidelity_with_decoherence(c, d, s);
  d.mutable_error_model().set_coherence_times_ns(30000.0, 2000.0);  // worse T2
  double worse = estimate_log_fidelity_with_decoherence(c, d, s);
  EXPECT_LT(worse, base);
  EXPECT_THROW(d.mutable_error_model().set_coherence_times_ns(-1, 10),
               AssertionError);
}

TEST(Schedule, DeeperCircuitLongerMakespan) {
  Device d = ungrouped_line(2);
  Circuit shallow(2), deep(2);
  shallow.rx(0.1, 0).rx(0.1, 1);
  deep.rx(0.1, 0).rz(0.1, 0).rx(0.1, 0);
  EXPECT_LT(asap_schedule(shallow, d).makespan_cycles,
            asap_schedule(deep, d).makespan_cycles);
}

}  // namespace
}  // namespace qfs::compiler
