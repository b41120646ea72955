#include "isa/pulse.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace qfs::isa {

using circuit::GateKind;

const char* channel_kind_name(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::kDrive: return "drive";
    case ChannelKind::kFlux: return "flux";
    case ChannelKind::kReadout: return "readout";
  }
  return "?";
}

std::string channel_name(const ChannelId& id) {
  std::ostringstream os;
  os << channel_kind_name(id.kind) << ':' << 'Q' << id.a;
  if (id.b >= 0) os << "-Q" << id.b;
  return os.str();
}

void PulseSchedule::add(const ChannelId& channel, Pulse pulse) {
  QFS_ASSERT_MSG(pulse.duration_cycles > 0, "pulse needs positive duration");
  channels_[channel].push_back(std::move(pulse));
}

int PulseSchedule::total_pulses() const {
  int n = 0;
  for (const auto& [id, pulses] : channels_) {
    n += static_cast<int>(pulses.size());
  }
  return n;
}

bool PulseSchedule::channels_exclusive() const {
  for (const auto& [id, pulses] : channels_) {
    std::vector<std::pair<int, int>> spans;
    for (const Pulse& p : pulses) {
      spans.emplace_back(p.start_cycle, p.start_cycle + p.duration_cycles);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].first < spans[i - 1].second) return false;
    }
  }
  return true;
}

std::string PulseSchedule::to_string() const {
  std::ostringstream os;
  for (const auto& [id, pulses] : channels_) {
    os << channel_name(id) << ":";
    for (const Pulse& p : pulses) {
      os << "  [" << p.start_cycle << "," << p.start_cycle + p.duration_cycles
         << ") " << p.waveform;
    }
    os << '\n';
  }
  return os.str();
}

namespace {

std::string waveform_for(const Instruction& ins) {
  std::ostringstream os;
  switch (ins.kind) {
    case GateKind::kMeasure:
      return "readout";
    case GateKind::kReset:
      return "reset";
    case GateKind::kCz:
    case GateKind::kCx:
    case GateKind::kCy:
    case GateKind::kCphase:
    case GateKind::kSwap:
      os << "flux(" << circuit::gate_name(ins.kind);
      for (double p : ins.params) os << ',' << qfs::format_double(p, 6);
      os << ')';
      return os.str();
    default:
      os << "drag(" << circuit::gate_name(ins.kind);
      for (double p : ins.params) os << ',' << qfs::format_double(p, 6);
      os << ')';
      return os.str();
  }
}

}  // namespace

qfs::StatusOr<PulseSchedule> lower_to_pulses(const TimedProgram& program,
                                             const device::Device& device) {
  if (program.num_qubits() > device.num_qubits()) {
    return qfs::invalid_argument("program wider than device");
  }
  PulseSchedule schedule;
  for (const Bundle& bundle : program.bundles()) {
    for (const Instruction& ins : bundle.instructions) {
      Pulse pulse;
      pulse.start_cycle = bundle.start_cycle;
      pulse.duration_cycles = ins.duration_cycles;
      pulse.waveform = waveform_for(ins);
      if (ins.kind == GateKind::kMeasure || ins.kind == GateKind::kReset) {
        schedule.add(ChannelId{ChannelKind::kReadout, ins.qubits[0], -1},
                     pulse);
      } else if (ins.qubits.size() == 1) {
        schedule.add(ChannelId{ChannelKind::kDrive, ins.qubits[0], -1}, pulse);
      } else if (ins.qubits.size() == 2) {
        int a = std::min(ins.qubits[0], ins.qubits[1]);
        int b = std::max(ins.qubits[0], ins.qubits[1]);
        if (!device.topology().adjacent(a, b)) {
          return qfs::invalid_argument(
              "no flux channel for uncoupled pair Q" + std::to_string(a) +
              "-Q" + std::to_string(b));
        }
        schedule.add(ChannelId{ChannelKind::kFlux, a, b}, pulse);
      } else {
        return qfs::invalid_argument(
            "three-qubit instruction has no channel; decompose first");
      }
    }
  }
  if (!schedule.channels_exclusive()) {
    return qfs::invalid_argument("channel conflict in pulse schedule");
  }
  return schedule;
}

}  // namespace qfs::isa
