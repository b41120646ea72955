#include "compiler/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

namespace qfs::compiler {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

constexpr const char* kDurationTooLong =
    "gate duration does not fit in an int count of cycles";

/// Cycles a gate of `ns` nanoseconds occupies (at least one), or -1 when
/// the count is not finite or does not fit in int. Calibrations only
/// promise finite positive durations, so a huge one over a small cycle time
/// must be caught here: casting it would be UB.
int cycles_for_ns(double ns, double cycle_time_ns) {
  const double cycles = std::ceil(ns / cycle_time_ns);
  if (!(cycles <= std::numeric_limits<int>::max())) return -1;  // NaN too
  return cycles < 1.0 ? 1 : static_cast<int>(cycles);
}

int duration_in_cycles(const Gate& g, const device::Device& device,
                       double cycle_time_ns) {
  if (g.kind == GateKind::kBarrier) return 0;
  const int cycles = cycles_for_ns(
      device.error_model().gate_duration_ns(g.kind), cycle_time_ns);
  QFS_ASSERT_MSG(cycles >= 0, kDurationTooLong);
  return cycles;
}

static_assert(circuit::kNumGateKinds < 255, "kind + 1 must fit in a byte");

/// Occupancy of one control group: one byte per cycle, 0 when free and
/// kind + 1 when held. Same-kind gates may share a cycle; different kinds
/// may not. The table grows to the group's last occupied cycle.
class GroupOccupancy {
 public:
  /// The latest cycle in [start, start + duration) held by a kind other
  /// than `tag`, or -1 when the window is compatible. Scanning from the
  /// end makes the returned cycle the largest exact skip (see
  /// asap_schedule).
  int last_conflict(int start, int duration, std::uint8_t tag) const {
    const int end = std::min(start + duration,
                             static_cast<int>(tag_by_cycle_.size()));
    for (int c = end - 1; c >= start; --c) {
      const std::uint8_t held = tag_by_cycle_[static_cast<std::size_t>(c)];
      if (held != 0 && held != tag) return c;
    }
    return -1;
  }

  void occupy(int start, int duration, std::uint8_t tag) {
    const auto end = static_cast<std::size_t>(start + duration);
    if (tag_by_cycle_.size() < end) tag_by_cycle_.resize(end, 0);
    std::fill(tag_by_cycle_.begin() + start,
              tag_by_cycle_.begin() + static_cast<std::ptrdiff_t>(end), tag);
  }

 private:
  std::vector<std::uint8_t> tag_by_cycle_;
};

/// Scheduled two-qubit span [start, end), for crosstalk exclusion checks.
struct Span {
  int start, end;
};

/// Calls `visit(q)` for every qubit of the closed coupling neighbourhood of
/// `a` and of `b` (a qubit near both is visited twice). Two gates on
/// edges {a,b} and {c,d} crosstalk exactly when c or d is visited: the
/// edges share a qubit or some endpoint of one couples to an endpoint of
/// the other (spectator coupling).
template <typename Visit>
void for_each_neighbourhood_qubit(const device::Device& device, int a, int b,
                                  Visit&& visit) {
  const device::TopologyTables* tables = device.topology().tables();
  for (int p : {a, b}) {
    visit(p);
    if (tables == nullptr || p >= tables->n) continue;
    const auto first = static_cast<std::size_t>(
        tables->nbr_offsets[static_cast<std::size_t>(p)]);
    const auto last = static_cast<std::size_t>(
        tables->nbr_offsets[static_cast<std::size_t>(p) + 1]);
    for (std::size_t k = first; k < last; ++k) visit(tables->nbr[k]);
  }
}

/// The two-qubit spans placed so far, indexed by each physical qubit they
/// touch. Qubit exclusivity keeps each qubit's list in time order (starts
/// and ends ascending), so the spans still live at a cycle are a suffix.
class CrosstalkIndex {
 public:
  explicit CrosstalkIndex(int num_qubits)
      : spans_by_qubit_(static_cast<std::size_t>(num_qubits)) {}

  /// `start` when a two-qubit gate on {a, b} may run in
  /// [start, start + duration) without crosstalk; otherwise the latest end
  /// among the spans it would crosstalk with, the earliest start not ruled
  /// out by them.
  int next_start(const device::Device& device, int a, int b, int start,
                 int duration) const {
    int next = start;
    for_each_neighbourhood_qubit(device, a, b, [&](int q) {
      if (q >= static_cast<int>(spans_by_qubit_.size())) return;
      const auto& spans = spans_by_qubit_[static_cast<std::size_t>(q)];
      for (auto it = spans.rbegin(); it != spans.rend() && it->end > start;
           ++it) {
        if (it->start < start + duration) next = std::max(next, it->end);
      }
    });
    return next;
  }

  void add(int a, int b, Span span) {
    spans_by_qubit_[static_cast<std::size_t>(a)].push_back(span);
    spans_by_qubit_[static_cast<std::size_t>(b)].push_back(span);
  }

 private:
  std::vector<std::vector<Span>> spans_by_qubit_;
};

}  // namespace

Schedule asap_schedule(const Circuit& circuit, const device::Device& device,
                       const ScheduleOptions& options) {
  Schedule schedule;
  schedule.cycle_time_ns = options.cycle_time_ns;
  const bool use_groups =
      options.respect_control_groups && device.has_control_groups();
  const int num_qubits = circuit.num_qubits();

  // The inner loop reads per-kind tables (duration, two-qubit flag) instead
  // of re-deriving each gate's duration from the error model. A kind whose
  // duration does not fit is rejected only if it occurs.
  int duration_by_kind[circuit::kNumGateKinds];
  bool two_qubit_kind[circuit::kNumGateKinds];
  for (int k = 0; k < circuit::kNumGateKinds; ++k) {
    const GateKind kind = static_cast<GateKind>(k);
    two_qubit_kind[k] = circuit::is_two_qubit(kind);
    duration_by_kind[k] =
        kind == GateKind::kBarrier
            ? 0
            : cycles_for_ns(device.error_model().gate_duration_ns(kind),
                            options.cycle_time_ns);
  }

  // Each qubit's control group, read once; -1 past the device's qubits,
  // which is an error only if such a qubit runs a gate.
  std::vector<int> group_of;
  std::vector<GroupOccupancy> groups;
  if (use_groups) {
    group_of.assign(static_cast<std::size_t>(num_qubits), -1);
    int num_groups = 0;
    for (int q = 0; q < std::min(num_qubits, device.num_qubits()); ++q) {
      group_of[static_cast<std::size_t>(q)] = device.control_group(q);
      num_groups =
          std::max(num_groups, group_of[static_cast<std::size_t>(q)] + 1);
    }
    groups.resize(static_cast<std::size_t>(num_groups));
  }
  const bool avoid_crosstalk = options.avoid_crosstalk;
  CrosstalkIndex crosstalk(avoid_crosstalk ? num_qubits : 0);

  std::vector<int> qubit_free(static_cast<std::size_t>(num_qubits), 0);
  const std::vector<Gate>& gates = circuit.gates();
  schedule.gates.reserve(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const int kind = static_cast<int>(gates[i].kind);
    const auto tag = static_cast<std::uint8_t>(kind + 1);
    const int operand_count = static_cast<int>(gates[i].qubits.size());
    const std::int32_t* operands = gates[i].qubits.data();
    const int duration = duration_by_kind[kind];
    QFS_ASSERT_MSG(duration >= 0, kDurationTooLong);
    int start = 0;
    for (int s = 0; s < operand_count; ++s) {
      start = std::max(start, qubit_free[static_cast<std::size_t>(operands[s])]);
    }
    if (duration > 0) {
      // Probe, then skip to the earliest start the probe did not rule out.
      // Each skip is exact: a window conflicting at a foreign-kind cycle c
      // of a group conflicts there for every start in (start, c], and one
      // overlapping a crosstalking span [s, e) does so for every start in
      // (start, e). So the first feasible start is the one a one-cycle
      // retry would reach.
      while (true) {
        QFS_ASSERT_MSG(start <= std::numeric_limits<int>::max() - duration,
                       "schedule end cycle does not fit in int");
        int next = start;
        if (use_groups) {
          for (int s = 0; s < operand_count; ++s) {
            const int group = group_of[static_cast<std::size_t>(operands[s])];
            QFS_ASSERT_MSG(group >= 0, "qubit out of range");
            const GroupOccupancy& occupancy =
                groups[static_cast<std::size_t>(group)];
            next = std::max(next,
                            occupancy.last_conflict(start, duration, tag) + 1);
          }
        }
        if (avoid_crosstalk && two_qubit_kind[kind]) {
          next = std::max(next, crosstalk.next_start(device, operands[0],
                                                     operands[1], start,
                                                     duration));
        }
        if (next == start) break;
        start = next;
      }
      if (use_groups) {
        for (int s = 0; s < operand_count; ++s) {
          groups[static_cast<std::size_t>(
                     group_of[static_cast<std::size_t>(operands[s])])]
              .occupy(start, duration, tag);
        }
      }
      if (avoid_crosstalk && two_qubit_kind[kind]) {
        crosstalk.add(operands[0], operands[1],
                      Span{start, start + duration});
      }
    }
    for (int s = 0; s < operand_count; ++s) {
      qubit_free[static_cast<std::size_t>(operands[s])] = start + duration;
    }
    schedule.gates.push_back(ScheduledGate{static_cast<int>(i), start, duration});
    schedule.makespan_cycles = std::max(schedule.makespan_cycles, start + duration);
  }
  return schedule;
}

int count_crosstalk_pairs(const Circuit& circuit, const device::Device& device,
                          const Schedule& schedule) {
  struct Edge {
    Span span;
    int a, b;
  };
  std::vector<Edge> edges;
  for (const auto& sg : schedule.gates) {
    const Gate& g = circuit.gates()[static_cast<std::size_t>(sg.gate_index)];
    if (!circuit::is_two_qubit(g.kind)) continue;
    edges.push_back(Edge{{sg.start_cycle, sg.start_cycle + sg.duration_cycles},
                         g.qubits[0], g.qubits[1]});
  }
  // Sweep in start order. Every overlapping pair is found once, by its
  // later-starting member, among the spans still live on its
  // neighbourhood qubits; a span seen through two qubits is counted once.
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return x.span.start < y.span.start;
  });
  const int num_qubits = circuit.num_qubits();
  std::vector<std::vector<std::size_t>> live(static_cast<std::size_t>(num_qubits));
  std::vector<std::size_t> counted_by(edges.size(), edges.size());
  int pairs = 0;
  for (std::size_t j = 0; j < edges.size(); ++j) {
    const Edge& e = edges[j];
    for_each_neighbourhood_qubit(device, e.a, e.b, [&](int q) {
      if (q >= num_qubits) return;
      auto& spans = live[static_cast<std::size_t>(q)];
      std::erase_if(spans, [&](std::size_t i) {
        return edges[i].span.end <= e.span.start;
      });
      for (std::size_t i : spans) {
        if (counted_by[i] == j || edges[i].span.start >= e.span.end) continue;
        counted_by[i] = j;
        ++pairs;
      }
    });
    live[static_cast<std::size_t>(e.a)].push_back(j);
    live[static_cast<std::size_t>(e.b)].push_back(j);
  }
  return pairs;
}

double estimate_scheduled_log_fidelity(const Circuit& circuit,
                                       const device::Device& device,
                                       const Schedule& schedule,
                                       double crosstalk_fidelity_factor) {
  QFS_ASSERT_MSG(0.0 < crosstalk_fidelity_factor &&
                     crosstalk_fidelity_factor <= 1.0,
                 "bad crosstalk factor");
  double log_f = 0.0;
  const auto& em = device.error_model();
  for (const Gate& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) continue;
    log_f += std::log(em.gate_fidelity(g));
  }
  log_f += count_crosstalk_pairs(circuit, device, schedule) *
           std::log(crosstalk_fidelity_factor);
  return log_f;
}

Schedule alap_schedule(const Circuit& circuit, const device::Device& device,
                       const ScheduleOptions& options) {
  // Schedule the reversed circuit ASAP, then mirror the times. Control-group
  // validity is preserved because the constraint is time-symmetric.
  Circuit reversed(circuit.num_qubits(), circuit.name());
  const auto& gates = circuit.gates();
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) reversed.add(*it);

  Schedule rev = asap_schedule(reversed, device, options);
  Schedule schedule;
  schedule.cycle_time_ns = options.cycle_time_ns;
  schedule.makespan_cycles = rev.makespan_cycles;
  schedule.gates.resize(gates.size());
  const int n = static_cast<int>(gates.size());
  for (int rev_index = 0; rev_index < n; ++rev_index) {
    const ScheduledGate& sg = rev.gates[static_cast<std::size_t>(rev_index)];
    int orig_index = n - 1 - rev_index;
    int mirrored_start =
        rev.makespan_cycles - (sg.start_cycle + sg.duration_cycles);
    schedule.gates[static_cast<std::size_t>(orig_index)] =
        ScheduledGate{orig_index, mirrored_start, sg.duration_cycles};
  }
  return schedule;
}

double estimate_log_fidelity_with_decoherence(const Circuit& circuit,
                                              const device::Device& device,
                                              const Schedule& schedule) {
  const auto& em = device.error_model();
  double log_f = 0.0;
  for (const Gate& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) continue;
    log_f += std::log(em.gate_fidelity(g));
  }
  // Busy cycles per qubit.
  std::vector<long long> busy(static_cast<std::size_t>(circuit.num_qubits()), 0);
  std::vector<bool> used(static_cast<std::size_t>(circuit.num_qubits()), false);
  for (const auto& sg : schedule.gates) {
    const Gate& g = circuit.gates()[static_cast<std::size_t>(sg.gate_index)];
    if (g.kind == GateKind::kBarrier) continue;
    for (int q : g.qubits) {
      busy[static_cast<std::size_t>(q)] += sg.duration_cycles;
      used[static_cast<std::size_t>(q)] = true;
    }
  }
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    if (!used[static_cast<std::size_t>(q)]) continue;
    double idle_ns =
        (schedule.makespan_cycles - busy[static_cast<std::size_t>(q)]) *
        schedule.cycle_time_ns;
    log_f -= idle_ns / em.t2_ns();
  }
  return log_f;
}

bool schedule_is_valid(const Circuit& circuit, const device::Device& device,
                       const Schedule& schedule,
                       const ScheduleOptions& options) {
  const auto& gates = circuit.gates();
  if (schedule.gates.size() != gates.size()) return false;

  // Qubit exclusivity + dependency order (program order on shared qubits).
  std::vector<std::vector<std::pair<int, int>>> qubit_busy(
      static_cast<std::size_t>(circuit.num_qubits()));
  for (const auto& sg : schedule.gates) {
    const Gate& g = gates[static_cast<std::size_t>(sg.gate_index)];
    int expected =
        duration_in_cycles(g, device, options.cycle_time_ns);
    if (sg.duration_cycles != expected) return false;
    if (sg.start_cycle < 0) return false;
    if (sg.start_cycle > std::numeric_limits<int>::max() - sg.duration_cycles) {
      return false;  // end cycle overflows int
    }
    if (sg.start_cycle + sg.duration_cycles > schedule.makespan_cycles) {
      return false;
    }
    for (int q : g.qubits) {
      for (const auto& [s, e] : qubit_busy[static_cast<std::size_t>(q)]) {
        if (sg.start_cycle < e && s < sg.start_cycle + sg.duration_cycles) {
          return false;  // overlap on a qubit
        }
      }
      qubit_busy[static_cast<std::size_t>(q)].emplace_back(
          sg.start_cycle, sg.start_cycle + sg.duration_cycles);
    }
  }

  // Program order on shared qubits: gate j after gate i must not start
  // before i ends when they share a qubit.
  std::vector<int> last_end(static_cast<std::size_t>(circuit.num_qubits()), 0);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto& sg = schedule.gates[i];
    for (int q : gates[i].qubits) {
      if (sg.start_cycle < last_end[static_cast<std::size_t>(q)]) return false;
      last_end[static_cast<std::size_t>(q)] =
          std::max(last_end[static_cast<std::size_t>(q)],
                   sg.start_cycle + sg.duration_cycles);
    }
  }

  if (options.respect_control_groups && device.has_control_groups()) {
    // No two different kinds overlapping within one group.
    struct Span {
      int start, end;
      GateKind kind;
    };
    std::map<int, std::vector<Span>> spans;
    for (const auto& sg : schedule.gates) {
      const Gate& g = gates[static_cast<std::size_t>(sg.gate_index)];
      if (sg.duration_cycles == 0) continue;
      for (int q : g.qubits) {
        spans[device.control_group(q)].push_back(
            {sg.start_cycle, sg.start_cycle + sg.duration_cycles, g.kind});
      }
    }
    for (const auto& [group, list] : spans) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        for (std::size_t j = i + 1; j < list.size(); ++j) {
          if (list[i].kind != list[j].kind && list[i].start < list[j].end &&
              list[j].start < list[i].end) {
            return false;
          }
        }
      }
    }
  }

  if (options.avoid_crosstalk &&
      count_crosstalk_pairs(circuit, device, schedule) != 0) {
    return false;
  }
  return true;
}

}  // namespace qfs::compiler
