#include "qasm/writer.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "support/assert.h"
#include "support/strings.h"

namespace qfs::qasm {

using circuit::Gate;
using circuit::GateKind;

namespace {

/// Each distinct angle's text, formatted once and then copied: lowered
/// circuits repeat a few angles (+-pi/2, +-pi/4, pi). Slots are keyed by
/// the double's bits, direct-mapped; a colliding angle takes one over.
struct AngleTexts {
  std::string_view text(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    Slot& slot = slots_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
    if (slot.size != 0 && slot.bits == bits) return {slot.text, slot.size};
    // 12 significant decimals round-trips doubles well enough for angles.
    formatted_.clear();
    qfs::append_double(formatted_, value, 12);
    if (formatted_.size() > sizeof slot.text) return formatted_;
    slot.bits = bits;
    slot.size = static_cast<std::uint8_t>(formatted_.size());
    std::memcpy(slot.text, formatted_.data(), formatted_.size());
    return {slot.text, slot.size};
  }
  static constexpr int kSlotBits = 8;
  struct Slot {
    std::uint64_t bits = 0;
    std::uint8_t size = 0;  ///< 0 while empty; no rendering is empty
    char text[23];          ///< |angle| < 1e9 fits
  };
  Slot slots_[1 << kSlotBits] = {};
  std::string formatted_;
};

/// A qubit operand, rendered "q[N]", and an angle parameter.
struct Qubit {
  int index;
};
struct Angle {
  double value;
};

/// The program: with kWrite, written through one pointer into a buffer
/// sized once; without, only counted to size that buffer.
template <bool kWrite>
struct Out {
  char* buffer = nullptr;
  std::size_t size = 0;
  AngleTexts* angles = nullptr;
  template <typename... Parts>
  void put(const Parts&... parts) {
    (one(parts), ...);
  }
  void one(std::string_view s) {
    if constexpr (kWrite) std::memcpy(buffer + size, s.data(), s.size());
    size += s.size();
  }
  void one(char c) { one(std::string_view(&c, 1)); }
  void one(int v) {  // qubit indices and counts: non-negative
    if constexpr (kWrite) {
      size = static_cast<std::size_t>(
          std::to_chars(buffer + size, buffer + size + 10, v).ptr - buffer);
    } else {
      for (++size; v >= 10; v /= 10) ++size;
    }
  }
  void one(Qubit q) { put("q[", q.index, ']'); }
  void one(Angle a) {
    // Counting, the length of the rendering is sign, integer digits, point
    // and twelve decimals. Rounding can carry into a new digit only within
    // 1e-12 below a power of ten; those angles, and huge ones, render.
    const double m = std::fabs(a.value);
    std::size_t digits = 1;
    double next = 10;
    for (; next <= m && next < 1e16; next *= 10) ++digits;
    if (kWrite || !(m < 1e15) || next - m < 1e-12) {
      one(angles->text(a.value));
    } else {
      size += std::signbit(a.value) + digits + 13;
    }
  }
};

template <bool kWrite>
void emit(Out<kWrite>& out, const circuit::Circuit& circuit) {
  const auto operands = [&out](const Gate& g) {
    const char* separator = "";
    for (int q : g.qubits) out.put(std::exchange(separator, ","), Qubit{q});
    out.put(";\n");
  };
  out.put("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
  if (!circuit.name().empty()) {
    out.put("// circuit: ", std::string_view(circuit.name()), '\n');
  }
  const int n = circuit.num_qubits();
  out.put("qreg q[", n, "];\ncreg c[", n, "];\n");
  for (const Gate& g : circuit.gates()) {
    switch (g.kind) {
      case GateKind::kMeasure:
        out.put("measure ", Qubit{g.qubits[0]}, " -> c[", g.qubits[0], "];\n");
        continue;
      case GateKind::kReset:
        out.put("reset ", Qubit{g.qubits[0]}, ";\n");
        continue;
      case GateKind::kCcz:
        // qelib1 has no ccz; emit the standard h-ccx-h conjugation.
        out.put("h ", Qubit{g.qubits[2]}, ";\nccx ");
        operands(g);
        out.put("h ", Qubit{g.qubits[2]}, ";\n");
        continue;
      case GateKind::kPhase:  // qelib1 calls the phase gates u1 and cu1
        out.put("u1");
        break;
      case GateKind::kCphase:
        out.put("cu1");
        break;
      default:
        out.put(std::string_view(circuit::gate_name(g.kind)));
    }
    for (std::size_t i = 0; i < g.params.size(); ++i) {
      out.put(i == 0 ? '(' : ',', Angle{g.params[i]});
    }
    out.put(g.params.empty() ? "" : ")", ' ');
    operands(g);
  }
}

}  // namespace

std::string to_qasm(const circuit::Circuit& circuit) {
  AngleTexts angles;
  Out<false> counter{nullptr, 0, &angles};
  emit(counter, circuit);
  std::string text(counter.size, '\0');
  Out<true> writer{text.data(), 0, &angles};
  emit(writer, circuit);
  QFS_ASSERT(writer.size == text.size());
  return text;
}

}  // namespace qfs::qasm
