// Control-electronics model: the bottom layer of the full stack.
//
// A timed program lowers onto analog channels: one microwave drive channel
// per qubit (single-qubit rotations), one flux channel per coupling edge
// (two-qubit gates), and one readout channel per qubit (measurement).
// Each instruction becomes a waveform on its channel(s); channels are
// exclusive resources, so the lowering doubles as a hardware-level check
// that the schedule is executable by the electronics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "device/device.h"
#include "isa/timed_program.h"
#include "support/status.h"

namespace qfs::isa {

enum class ChannelKind { kDrive, kFlux, kReadout };

const char* channel_kind_name(ChannelKind kind);

/// Identity of one analog channel.
struct ChannelId {
  ChannelKind kind = ChannelKind::kDrive;
  int a = 0;  ///< qubit (drive/readout) or lower edge endpoint (flux)
  int b = -1; ///< -1, or upper edge endpoint for flux channels

  bool operator<(const ChannelId& other) const {
    if (kind != other.kind) return kind < other.kind;
    if (a != other.a) return a < other.a;
    return b < other.b;
  }
  bool operator==(const ChannelId& other) const = default;
};

std::string channel_name(const ChannelId& id);

/// One waveform on a channel.
struct Pulse {
  int start_cycle = 0;
  int duration_cycles = 1;
  std::string waveform;  ///< e.g. "drag(rx,1.570796)", "cz_flux", "readout"
};

class PulseSchedule {
 public:
  PulseSchedule() = default;

  void add(const ChannelId& channel, Pulse pulse);

  const std::map<ChannelId, std::vector<Pulse>>& channels() const {
    return channels_;
  }

  int num_channels() const { return static_cast<int>(channels_.size()); }
  int total_pulses() const;

  /// True when no channel carries overlapping pulses.
  bool channels_exclusive() const;

  /// Multi-line listing for logs/examples.
  std::string to_string() const;

 private:
  std::map<ChannelId, std::vector<Pulse>> channels_;
};

/// Lower a timed program onto the device's channels. Fails with a status
/// (not a crash) when an instruction has no realisable channel — e.g. a
/// two-qubit gate on an uncoupled pair.
qfs::StatusOr<PulseSchedule> lower_to_pulses(const TimedProgram& program,
                                             const device::Device& device);

}  // namespace qfs::isa
