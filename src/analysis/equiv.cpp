#include "analysis/equiv.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/checkers.h"
#include "compiler/decompose.h"

namespace qfs::analysis {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using device::Device;

namespace {

/// A diagnostic with its code's severity from checker_registry().
Diagnostic make_diag(const char* code, std::string message,
                     SourceLocation loc = {}) {
  const CheckerInfo* info = find_checker(code);
  QFS_ASSERT_MSG(info != nullptr, std::string("unregistered code ") + code);
  Diagnostic d;
  d.code = code;
  d.severity = info->severity;
  d.message = std::move(message);
  d.location = loc;
  return d;
}

/// Minimal physical<->virtual permutation tracker, mirroring
/// mapper::Layout::from_partial / apply_swap exactly (reimplemented here so
/// the analysis library does not depend on the mapper). Padding virtual ids
/// (>= the source width) fill the free physical qubits in ascending order;
/// which padding id sits where never affects validation, only the >= width
/// test does.
struct Perm {
  std::vector<int> v2p;
  std::vector<int> p2v;

  static Perm from_partial(const std::vector<int>& virtual_to_physical,
                           int num_physical) {
    Perm p;
    p.v2p.assign(static_cast<std::size_t>(num_physical), -1);
    p.p2v.assign(static_cast<std::size_t>(num_physical), -1);
    for (std::size_t v = 0; v < virtual_to_physical.size(); ++v) {
      int phys = virtual_to_physical[v];
      p.v2p[v] = phys;
      p.p2v[static_cast<std::size_t>(phys)] = static_cast<int>(v);
    }
    int next_virtual = static_cast<int>(virtual_to_physical.size());
    for (int phys = 0; phys < num_physical; ++phys) {
      if (p.p2v[static_cast<std::size_t>(phys)] == -1) {
        p.p2v[static_cast<std::size_t>(phys)] = next_virtual;
        p.v2p[static_cast<std::size_t>(next_virtual)] = phys;
        ++next_virtual;
      }
    }
    return p;
  }

  void apply_swap(int pa, int pb) {
    int va = p2v[static_cast<std::size_t>(pa)];
    int vb = p2v[static_cast<std::size_t>(pb)];
    std::swap(p2v[static_cast<std::size_t>(pa)],
              p2v[static_cast<std::size_t>(pb)]);
    v2p[static_cast<std::size_t>(va)] = pb;
    v2p[static_cast<std::size_t>(vb)] = pa;
  }
};

std::string gate_text(const Gate& g) { return circuit::gate_to_string(g); }

/// A router window shape lowered to `gateset` exactly as the pipeline
/// lowers it (expand_swaps, then decompose_to_gateset).
std::vector<Gate> lower(const Circuit& c, const device::GateSet& gateset) {
  return compiler::decompose_to_gateset(compiler::expand_swaps(c), gateset)
      .gates();
}

/// Structural sanity of the artifact itself (QFS101). Matching is
/// meaningless when these fail, so the caller bails out early.
void check_structure(const Circuit& source, const Device& device,
                     const TranslationArtifact& artifact,
                     std::vector<Diagnostic>& out) {
  const int np = device.num_qubits();
  const int nv = source.num_qubits();
  if (nv > np) {
    std::ostringstream os;
    os << "source circuit uses " << nv << " qubits but device '"
       << device.name() << "' has only " << np;
    out.push_back(make_diag("QFS101", os.str()));
    return;
  }
  if (artifact.mapped->num_qubits() > np) {
    std::ostringstream os;
    os << "mapped circuit declares " << artifact.mapped->num_qubits()
       << " qubits but device '" << device.name() << "' has only " << np;
    out.push_back(make_diag("QFS101", os.str()));
    return;
  }
  auto check_layout = [&](const char* label, const std::vector<int>& layout) {
    if (static_cast<int>(layout.size()) != nv) {
      std::ostringstream os;
      os << label << " has " << layout.size() << " entries for a " << nv
         << "-qubit source circuit";
      out.push_back(make_diag("QFS101", os.str()));
      return;
    }
    std::vector<bool> taken(static_cast<std::size_t>(np), false);
    for (int v = 0; v < nv; ++v) {
      int p = layout[static_cast<std::size_t>(v)];
      if (p < 0 || p >= np) {
        std::ostringstream os;
        os << label << " maps virtual qubit " << v << " to physical " << p
           << ", outside device '" << device.name() << "'";
        out.push_back(make_diag("QFS101", os.str(), SourceLocation{-1, -1, v}));
        return;
      }
      if (taken[static_cast<std::size_t>(p)]) {
        std::ostringstream os;
        os << label << " maps two virtual qubits to physical " << p;
        out.push_back(make_diag("QFS101", os.str(), SourceLocation{-1, -1, v}));
        return;
      }
      taken[static_cast<std::size_t>(p)] = true;
    }
  };
  check_layout("initial layout", artifact.initial_layout);
  check_layout("final layout", artifact.final_layout);
}

/// QFS105/QFS106: every gate native, every multi-qubit unitary on a live
/// coupler. A cursor over the mapped circuit that the matching walk
/// advances as it passes each gate or window, so legality and matching
/// share one walk. Its findings go to `out` in gate order, ahead of the
/// matcher's, which the matcher holds back; and it judges every gate the
/// walk passes whatever the matcher made of it, so a corrupted
/// permutation cannot mask a dead-coupler gate. Once `out` fills the
/// budget at a gate, no later gate is judged.
class Legality {
 public:
  Legality(const Device& device, const Circuit& mapped,
           std::vector<Diagnostic>& out, int budget)
      : device_(device), gates_(mapped.gates()), out_(out), budget_(budget) {}

  int count() const { return static_cast<int>(out_.size()); }
  bool full() const { return count() >= budget_; }

  /// Judge every gate before `end` not judged yet; false once full.
  bool check_through(int end) {
    for (; next_ < end; ++next_) {
      if (full()) return false;
      check_gate(next_);
    }
    return !full();
  }

  /// The SWAP window [next, end) equals the lowered swap template on
  /// (pa, pb). When that template is native, every gate of the window is,
  /// and every multi-qubit gate acts on (pa, pb), so one adjacency test
  /// stands for the per-gate checks; when it fails, each gate is judged
  /// as usual so the findings are the same.
  bool check_swap_window(int end, int pa, int pb, bool native_template) {
    if (full()) return false;
    if (native_template && device_.topology().adjacent(pa, pb)) {
      next_ = end;
      return true;
    }
    return check_through(end);
  }

 private:
  void check_gate(int i) {
    const Gate& g = gates_[static_cast<std::size_t>(i)];
    const auto& gateset = device_.gateset();
    if (!gateset.supports(g.kind)) {
      std::ostringstream os;
      os << "mapped gate " << i << " '" << circuit::gate_name(g.kind)
         << "' is not native to gate set '" << gateset.name() << "'";
      out_.push_back(make_diag("QFS106", os.str(), SourceLocation{-1, i, -1}));
    }
    if (!circuit::is_unitary(g.kind) || g.qubits.size() < 2) return;
    const auto& topo = device_.topology();
    for (std::size_t a = 0; a < g.qubits.size(); ++a) {
      for (std::size_t b = a + 1; b < g.qubits.size(); ++b) {
        if (topo.adjacent(g.qubits[a], g.qubits[b])) continue;
        std::ostringstream os;
        os << "mapped gate " << i << " '" << gate_text(g)
           << "' couples physical qubits " << g.qubits[a] << " and "
           << g.qubits[b] << ", which share no live coupler on device '"
           << device_.name() << "'";
        out_.push_back(
            make_diag("QFS105", os.str(), SourceLocation{-1, i, g.qubits[a]}));
      }
    }
  }

  const Device& device_;
  const std::vector<Gate>& gates_;
  std::vector<Diagnostic>& out_;
  const int budget_;
  int next_ = 0;  ///< first gate not judged yet
};

/// The matching engine: reference stream + per-qubit FIFO cursors + the
/// tracked permutation. The per-qubit FIFOs are one CSR array: qubit q's
/// pending reference indices are queue_[heads[q] .. queue_offsets_[q+1]).
class Matcher {
 public:
  Matcher(const Circuit& source, const Device& device,
          const TranslationArtifact& artifact)
      : device_(device),
        mapped_(*artifact.mapped),
        num_virtual_(source.num_qubits()),
        reference_(
            compiler::decompose_to_gateset(source, device.gateset())),
        perm_(Perm::from_partial(artifact.initial_layout,
                                 device.num_qubits())),
        templates_(device.gateset()),
        swap_native_(std::all_of(
            templates_.swap.begin(), templates_.swap.end(),
            [&](const Gate& g) { return device.gateset().supports(g.kind); })) {
    // Counting pass, then fill each qubit's range in reference order,
    // using heads_ as the write cursors.
    const auto nv = static_cast<std::size_t>(num_virtual_);
    queue_offsets_.assign(nv + 1, 0);
    const auto& gates = reference_.gates();
    for (const Gate& g : gates) {
      for (int q : g.qubits) ++queue_offsets_[static_cast<std::size_t>(q) + 1];
    }
    for (std::size_t q = 0; q < nv; ++q) {
      queue_offsets_[q + 1] += queue_offsets_[q];
    }
    queue_.resize(static_cast<std::size_t>(queue_offsets_[nv]));
    heads_.assign(queue_offsets_.begin(), queue_offsets_.end() - 1);
    for (int i = 0; i < static_cast<int>(gates.size()); ++i) {
      for (int q : gates[static_cast<std::size_t>(i)].qubits) {
        int& cursor = heads_[static_cast<std::size_t>(q)];
        queue_[static_cast<std::size_t>(cursor++)] = i;
      }
    }
    heads_.assign(queue_offsets_.begin(), queue_offsets_.end() - 1);
  }

  /// Walk the mapped circuit, consuming reference gates and swap/bridge
  /// templates, and advance `legality` past each gate or window as it goes.
  /// Holds its own QFS102/103/104/107/109/110 findings back in `held`; the
  /// caller appends them after the legality findings. Returns early, with
  /// `legality` short of the end, when legality fills the budget (the
  /// held findings are then dropped) or the walk loses alignment (the
  /// caller judges the remaining gates).
  void run(const TranslationArtifact& artifact, const EquivOptions& options,
           Legality& legality, std::vector<Diagnostic>& held) {
    const auto& gates = mapped_.gates();
    int swaps_seen = 0;
    int i = 0;
    while (i < static_cast<int>(gates.size())) {
      const Gate& g = gates[static_cast<std::size_t>(i)];
      std::optional<SwapWindow> swap;
      if (g.qubits.empty()) {
        // Zero-operand gates (an operand-less barrier) are structural
        // no-ops on both sides of the translation.
        ++i;
      } else if ((swap = consumed_swap_at(i, swaps_seen))) {
        i += swap->length;
      } else if (auto ri = match_reference_at(g, heads_)) {
        // Ordinary gate: one mapped gate realizes one reference gate.
        consume(*ri, heads_);
        ++i;
      } else if (auto bridge = bridge_at(i)) {
        // BridgeRouter realizes a distance-2 CX/CZ as a 4-CX bridge (CZ
        // conjugated by H on the target) without touching the layout.
        consume(bridge->reference_index, heads_);
        i += bridge->length;
      } else {
        diagnose_mismatch(i, held);
        return;  // alignment is lost; later findings would be noise
      }
      const bool room =
          swap ? legality.check_swap_window(i, swap->pa, swap->pb,
                                            swap_native_)
               : legality.check_through(i);
      if (!room) return;
    }

    // Legality has judged every gate and left room; the held findings
    // share what is left of the budget.
    const int budget = options.max_diagnostics - legality.count();
    auto full = [&] { return static_cast<int>(held.size()) >= budget; };

    // Every reference gate must have been realized.
    report_unconsumed(held, budget);
    if (full()) return;

    // The accumulated permutation must equal the reported final layout.
    for (int v = 0; v < num_virtual_; ++v) {
      if (full()) return;
      int expected = perm_.v2p[static_cast<std::size_t>(v)];
      int reported = artifact.final_layout[static_cast<std::size_t>(v)];
      if (expected == reported) continue;
      std::ostringstream os;
      os << "final layout maps virtual qubit " << v << " to physical "
         << reported << ", but the tracked permutation ends at physical "
         << expected;
      held.push_back(make_diag("QFS107", os.str(), SourceLocation{-1, -1, v}));
    }

    // Router-reported swap count vs what the walk actually saw.
    if (artifact.swaps_inserted >= 0 && swaps_seen != artifact.swaps_inserted &&
        !full()) {
      std::ostringstream os;
      os << "artifact metadata reports " << artifact.swaps_inserted
         << " inserted swap(s) but the mapped circuit contains " << swaps_seen
         << " swap expansion(s)";
      held.push_back(make_diag("QFS109", os.str()));
    }
  }

 private:
  struct SwapWindow {
    int pa = 0, pb = 0;
    int length = 0;
  };
  struct BridgeWindow {
    int reference_index = 0;
    int length = 0;
  };

  /// Reference index ready for consumption matching `g` (kind, params, and
  /// operand order under the current permutation), or nullopt.
  /// Operands are compared in place under the permutation (a barrier may
  /// carry any number of them), so no gate is copied.
  std::optional<int> match_reference_at(const Gate& g,
                                        const std::vector<int>& heads) const {
    if (g.qubits.empty()) return std::nullopt;
    for (int p : g.qubits) {
      if (virtual_of(p) >= num_virtual_) return std::nullopt;  // padding
    }
    auto q0 = static_cast<std::size_t>(virtual_of(g.qubits[0]));
    if (!pending(q0, heads)) return std::nullopt;
    int ri = queue_[static_cast<std::size_t>(heads[q0])];
    const Gate& ref = reference_.gates()[static_cast<std::size_t>(ri)];
    if (ref.kind != g.kind || ref.qubits.size() != g.qubits.size() ||
        ref.params != g.params) {
      return std::nullopt;
    }
    for (std::size_t k = 0; k < g.qubits.size(); ++k) {
      if (ref.qubits[k] != virtual_of(g.qubits[k])) return std::nullopt;
    }
    if (!ready(ri, heads)) return std::nullopt;
    return ri;
  }

  /// Qubit q's FIFO is not exhausted under cursors `heads`.
  bool pending(std::size_t q, const std::vector<int>& heads) const {
    return heads[q] < queue_offsets_[q + 1];
  }

  int virtual_of(int physical) const {
    return perm_.p2v[static_cast<std::size_t>(physical)];
  }

  bool ready(int ri, const std::vector<int>& heads) const {
    const Gate& ref = reference_.gates()[static_cast<std::size_t>(ri)];
    for (int q : ref.qubits) {
      auto idx = static_cast<std::size_t>(q);
      if (!pending(idx, heads)) return false;
      if (queue_[static_cast<std::size_t>(heads[idx])] != ri) return false;
    }
    return true;
  }

  void consume(int ri, std::vector<int>& heads) const {
    for (int q : reference_.gates()[static_cast<std::size_t>(ri)].qubits) {
      ++heads[static_cast<std::size_t>(q)];
    }
  }

  /// The mapped window at `start` equals `tmpl` relabelled onto `labels`.
  bool window_equals(int start, const std::vector<Gate>& tmpl,
                     std::span<const int> labels) const {
    const std::span<const Gate> gates(mapped_.gates());
    return matches_relabelled(gates.subspan(static_cast<std::size_t>(start)),
                              tmpl, labels);
  }

  /// Full swap-expansion window starting at mapped gate `start`, if any.
  /// The candidate physical pair is read off the window itself: on a
  /// CX-target the first gate is cx(a,b); on a CZ-target with native Ry the
  /// template opens with ry(-pi/2) on b followed by cz(a,b). CZ-only bases
  /// without Ry (sycamore's {rz,sx,x,cz}) lower the conjugating Ry further,
  /// so the pair is read off the window's first cz instead and both swap
  /// orientations are checked against the fully lowered template.
  std::optional<SwapWindow> swap_template_at(int start) const {
    const std::vector<Gate>& tmpl = templates_.swap;
    if (tmpl.empty()) return std::nullopt;
    const auto& gates = mapped_.gates();
    const Gate& g = gates[static_cast<std::size_t>(start)];
    int pa = -1, pb = -1;
    if (device_.gateset().supports(GateKind::kCx)) {
      if (g.kind != GateKind::kCx) return std::nullopt;
      pa = g.qubits[0];
      pb = g.qubits[1];
    } else if (device_.gateset().supports(GateKind::kRy)) {
      if (g.kind != GateKind::kRy ||
          start + 1 >= static_cast<int>(gates.size())) {
        return std::nullopt;
      }
      const Gate& next = gates[static_cast<std::size_t>(start) + 1];
      if (next.kind != GateKind::kCz || next.qubits[1] != g.qubits[0]) {
        return std::nullopt;
      }
      pa = next.qubits[0];
      pb = next.qubits[1];
    } else {
      // Generic CZ-only path. The template's gate kinds/params are
      // position-independent, so its first gate is a cheap pre-filter
      // before the window scan.
      if (g.kind != tmpl[0].kind || g.params != tmpl[0].params) {
        return std::nullopt;
      }
      const int horizon = std::min(static_cast<int>(tmpl.size()),
                                   static_cast<int>(gates.size()) - start);
      for (int k = 0; k < horizon; ++k) {
        const Gate& w = gates[static_cast<std::size_t>(start + k)];
        if (w.kind == GateKind::kCz) {
          pa = w.qubits[0];
          pb = w.qubits[1];
          break;
        }
      }
      if (pa < 0) return std::nullopt;
      for (const auto& [x, y] : {std::pair{pa, pb}, std::pair{pb, pa}}) {
        const int labels[] = {x, y};
        if (window_equals(start, tmpl, labels)) {
          return SwapWindow{x, y, static_cast<int>(tmpl.size())};
        }
      }
      return std::nullopt;
    }
    const int labels[] = {pa, pb};
    if (!window_equals(start, tmpl, labels)) return std::nullopt;
    return SwapWindow{pa, pb, static_cast<int>(tmpl.size())};
  }

  /// A SWAP window at `start` that the walk consumes as a swap: an inserted
  /// SWAP (applied to the permutation, counted in `swaps_seen`) or a source
  /// swap. A router SWAP expands to a fixed template (cx a,b; cx b,a; cx a,b
  /// — further lowered on CZ-only targets) that is always contiguous in
  /// the mapped circuit, because expansion happens after routing.
  std::optional<SwapWindow> consumed_swap_at(int start, int& swaps_seen) {
    auto tmpl = swap_template_at(start);
    if (!tmpl) return std::nullopt;
    // Disambiguate against a *source* swap: the source gate lowers to the
    // identical window but consumes a reference gate and leaves the
    // permutation alone (its state exchange is the program's own).
    if (auto ri = ready_reference_swap(tmpl->pa, tmpl->pb)) {
      consume(*ri, heads_);
      return tmpl;
    }
    // ... or against the source genuinely containing the whole expanded
    // pattern gate for gate (e.g. three alternating CXs): prefer the
    // reference reading, which keeps the queues and permutation in sync.
    if (window_matches_references(start, tmpl->length)) return std::nullopt;
    perm_.apply_swap(tmpl->pa, tmpl->pb);
    ++swaps_seen;
    return tmpl;
  }

  /// Ready reference kSwap whose remapped expansion produced this window
  /// (only reachable on gate sets where the source's own swaps survive
  /// step-1 decomposition and are expanded after routing).
  std::optional<int> ready_reference_swap(int pa, int pb) const {
    int va = perm_.p2v[static_cast<std::size_t>(pa)];
    int vb = perm_.p2v[static_cast<std::size_t>(pb)];
    if (va >= num_virtual_ || vb >= num_virtual_) return std::nullopt;
    auto qa = static_cast<std::size_t>(va);
    if (!pending(qa, heads_)) return std::nullopt;
    int ri = queue_[static_cast<std::size_t>(heads_[qa])];
    const Gate& ref = reference_.gates()[static_cast<std::size_t>(ri)];
    if (ref.kind != GateKind::kSwap || ref.qubits[0] != va ||
        ref.qubits[1] != vb) {
      return std::nullopt;
    }
    if (!ready(ri, heads_)) return std::nullopt;
    return ri;
  }

  /// True when the whole window [start, start+length) can be consumed as
  /// plain reference gates (tried on scratch cursors; the permutation is
  /// never touched by 1:1 matches).
  bool window_matches_references(int start, int length) {
    scratch_heads_.assign(heads_.begin(), heads_.end());
    const auto& gates = mapped_.gates();
    for (int k = 0; k < length; ++k) {
      auto ri =
          match_reference_at(gates[static_cast<std::size_t>(start + k)],
                             scratch_heads_);
      if (!ri) return false;
      consume(*ri, scratch_heads_);
    }
    return true;
  }

  /// Bridge window starting at `start`: some ready reference CX/CZ whose
  /// operand pair sits at hop distance 2 and whose BridgeRouter emission
  /// (4-CX bridge, CZ conjugated by H on the target, then lowered) equals
  /// the window. Only tried after plain matching fails, so the quadratic
  /// candidate scan stays off the hot path.
  std::optional<BridgeWindow> bridge_at(int start) const {
    const auto& topo = device_.topology();
    for (int v = 0; v < num_virtual_; ++v) {
      auto idx = static_cast<std::size_t>(v);
      if (!pending(idx, heads_)) continue;
      int ri = queue_[static_cast<std::size_t>(heads_[idx])];
      const Gate& ref = reference_.gates()[static_cast<std::size_t>(ri)];
      if (ref.qubits.empty() || ref.qubits[0] != v) continue;  // once per ref
      if (ref.kind != GateKind::kCx && ref.kind != GateKind::kCz) continue;
      if (!ready(ri, heads_)) continue;
      int pa = perm_.v2p[static_cast<std::size_t>(ref.qubits[0])];
      int pb = perm_.v2p[static_cast<std::size_t>(ref.qubits[1])];
      if (topo.distance(pa, pb) != 2) continue;
      auto path = topo.shortest_path(pa, pb);
      if (path.size() != 3) continue;
      const int labels[] = {pa, path[1], pb};
      const std::vector<Gate>& tmpl = ref.kind == GateKind::kCz
                                          ? templates_.bridge_cz
                                          : templates_.bridge_cx;
      if (window_equals(start, tmpl, labels)) {
        return BridgeWindow{ri, static_cast<int>(tmpl.size())};
      }
    }
    return std::nullopt;
  }

  /// The window at `start` matched nothing: attribute the failure to the
  /// most specific cause (QFS110 swapped operands, QFS104 wrong parameters,
  /// QFS102 anything else).
  void diagnose_mismatch(int i, std::vector<Diagnostic>& out) const {
    const Gate& g = mapped_.gates()[static_cast<std::size_t>(i)];
    std::vector<int> virt;
    bool padding = false;
    for (int p : g.qubits) {
      int v = perm_.p2v[static_cast<std::size_t>(p)];
      padding = padding || v >= num_virtual_;
      virt.push_back(v);
    }
    if (!padding && !virt.empty()) {
      auto q0 = static_cast<std::size_t>(virt[0]);
      if (pending(q0, heads_)) {
        int ri = queue_[static_cast<std::size_t>(heads_[q0])];
        const Gate& ref = reference_.gates()[static_cast<std::size_t>(ri)];
        if (ref.kind == g.kind && ready(ri, heads_)) {
          std::vector<int> reversed(virt.rbegin(), virt.rend());
          if (ref.qubits == reversed && ref.params == g.params &&
              virt.size() == 2) {
            std::ostringstream os;
            os << "mapped gate " << i << " '" << gate_text(g)
               << "' reverses the operand order of source gate " << ri
               << " (expected virtual (" << ref.qubits[0] << ","
               << ref.qubits[1] << "), got (" << virt[0] << "," << virt[1]
               << "))";
            out.push_back(
                make_diag("QFS110", os.str(), SourceLocation{-1, i, -1}));
            return;
          }
          if (ref.qubits == virt && ref.params != g.params) {
            std::ostringstream os;
            os << "mapped gate " << i << " '" << gate_text(g)
               << "' realizes source gate " << ri
               << " with mismatched parameters";
            out.push_back(
                make_diag("QFS104", os.str(), SourceLocation{-1, i, -1}));
            return;
          }
        }
      }
    }
    std::ostringstream os;
    os << "mapped gate " << i << " '" << gate_text(g) << "'";
    if (!virt.empty()) {
      os << " (virtual";
      for (int v : virt) {
        if (v >= num_virtual_) {
          os << " <pad>";
        } else {
          os << ' ' << v;
        }
      }
      os << ")";
    }
    os << " matches no pending source gate under the tracked permutation";
    out.push_back(make_diag("QFS102", os.str(), SourceLocation{-1, i, -1}));
  }

  void report_unconsumed(std::vector<Diagnostic>& out, int budget) const {
    int missing = 0;
    int first = -1;
    std::vector<bool> reported(reference_.gates().size(), false);
    for (int q = 0; q < num_virtual_; ++q) {
      auto idx = static_cast<std::size_t>(q);
      for (int h = heads_[idx]; h < queue_offsets_[idx + 1]; ++h) {
        int ri = queue_[static_cast<std::size_t>(h)];
        if (reported[static_cast<std::size_t>(ri)]) continue;
        reported[static_cast<std::size_t>(ri)] = true;
        ++missing;
        if (first < 0 || ri < first) first = ri;
      }
    }
    if (missing == 0 || static_cast<int>(out.size()) >= budget) return;
    const Gate& ref = reference_.gates()[static_cast<std::size_t>(first)];
    std::ostringstream os;
    os << "source gate " << first << " '" << gate_text(ref)
       << "' (decomposed form) was never realized in the mapped circuit ("
       << missing << " source gate(s) unmatched)";
    out.push_back(make_diag("QFS103", os.str(), SourceLocation{-1, first, -1}));
  }

  const Device& device_;
  const Circuit& mapped_;
  int num_virtual_;
  Circuit reference_;
  Perm perm_;
  const WindowTemplates templates_;  ///< lowered once, matched relabelled
  const bool swap_native_;           ///< every swap-template gate is native
  std::vector<int> queue_offsets_;   ///< qubit q's FIFO starts here in queue_
  std::vector<int> queue_;           ///< ref indices, grouped by qubit
  std::vector<int> heads_;           ///< per-qubit cursor into queue_
  std::vector<int> scratch_heads_;   ///< trial cursors for a SWAP window
};

/// QFS108: the timed program must carry exactly the mapped circuit's gates
/// in per-qubit program order, with positive durations and no double
/// booking. (Bundle-level overlap against control groups stays QFS007 /
/// analyze_timed_program; this check is about fidelity to the artifact.)
void check_timed_program(const Circuit& mapped, const isa::TimedProgram& timed,
                         std::vector<Diagnostic>& out, int budget) {
  struct Slot {
    int start = 0, end = 0, instr = 0;
    const isa::Instruction* ins = nullptr;
  };
  std::vector<std::vector<Slot>> per_qubit(
      static_cast<std::size_t>(std::max(timed.num_qubits(), 0)));
  int instr_index = 0;
  for (const isa::Bundle& b : timed.bundles()) {
    for (const isa::Instruction& ins : b.instructions) {
      if (ins.duration_cycles < 1) {
        if (static_cast<int>(out.size()) >= budget) return;
        std::ostringstream os;
        os << "timed instruction " << instr_index << " '"
           << circuit::gate_name(ins.kind) << "' at cycle " << b.start_cycle
           << " has non-positive duration " << ins.duration_cycles;
        out.push_back(
            make_diag("QFS108", os.str(), SourceLocation{-1, instr_index, -1}));
      }
      for (int q : ins.qubits) {
        if (q < 0 || q >= timed.num_qubits()) {
          if (static_cast<int>(out.size()) >= budget) return;
          std::ostringstream os;
          os << "timed instruction " << instr_index << " operand " << q
             << " is out of range for a " << timed.num_qubits()
             << "-qubit program";
          out.push_back(make_diag("QFS108", os.str(),
                                  SourceLocation{-1, instr_index, q}));
          continue;
        }
        per_qubit[static_cast<std::size_t>(q)].push_back(
            Slot{b.start_cycle,
                 b.start_cycle + std::max(ins.duration_cycles, 1), instr_index,
                 &ins});
      }
      ++instr_index;
    }
  }

  // Overlap: a qubit executes one instruction at a time.
  for (int q = 0; q < timed.num_qubits(); ++q) {
    const auto& slots = per_qubit[static_cast<std::size_t>(q)];
    for (std::size_t a = 0; a < slots.size(); ++a) {
      for (std::size_t b = a + 1; b < slots.size(); ++b) {
        if (slots[a].start < slots[b].end && slots[b].start < slots[a].end) {
          if (static_cast<int>(out.size()) >= budget) return;
          std::ostringstream os;
          os << "qubit " << q << " is double-booked: timed instructions "
             << slots[a].instr << " and " << slots[b].instr
             << " overlap in cycles ["
             << std::max(slots[a].start, slots[b].start) << ", "
             << std::min(slots[a].end, slots[b].end) << ")";
          out.push_back(make_diag("QFS108", os.str(),
                                  SourceLocation{-1, slots[b].instr, q}));
        }
      }
    }
  }

  // Per-qubit order and content must equal the mapped circuit's (barriers
  // are structural and never lowered into timed programs).
  for (int q = 0; q < timed.num_qubits(); ++q) {
    std::vector<Slot> slots = per_qubit[static_cast<std::size_t>(q)];
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot& a, const Slot& b) {
                       return a.start < b.start;
                     });
    std::vector<const Gate*> expected;
    for (const Gate& g : mapped.gates()) {
      if (g.kind == GateKind::kBarrier) continue;
      for (int gq : g.qubits) {
        if (gq == q) expected.push_back(&g);
      }
    }
    bool mismatch = slots.size() != expected.size();
    for (std::size_t k = 0; !mismatch && k < slots.size(); ++k) {
      const isa::Instruction& ins = *slots[k].ins;
      const Gate& g = *expected[k];
      mismatch = ins.kind != g.kind || ins.qubits != g.qubits ||
                 ins.params != g.params;
    }
    if (!mismatch) continue;
    if (static_cast<int>(out.size()) >= budget) return;
    std::ostringstream os;
    os << "timed program does not replay the mapped circuit on qubit " << q
       << " (" << slots.size() << " instruction(s) vs " << expected.size()
       << " gate(s), or order/content differ)";
    out.push_back(make_diag("QFS108", os.str(), SourceLocation{-1, -1, q}));
  }
}

}  // namespace

WindowTemplates::WindowTemplates(const device::GateSet& gateset) {
  if (!gateset.supports(GateKind::kCx) && !gateset.supports(GateKind::kCz)) {
    return;
  }
  Circuit s(2);
  s.swap(0, 1);
  swap = lower(s, gateset);
  Circuit b(3);
  b.cx(0, 1).cx(1, 2).cx(0, 1).cx(1, 2);
  bridge_cx = lower(b, gateset);
  Circuit bz(3);
  bz.h(2).cx(0, 1).cx(1, 2).cx(0, 1).cx(1, 2).h(2);
  bridge_cz = lower(bz, gateset);
}

bool matches_relabelled(std::span<const Gate> window,
                        const std::vector<Gate>& tmpl,
                        std::span<const int> labels) {
  if (window.size() < tmpl.size()) return false;
  for (std::size_t k = 0; k < tmpl.size(); ++k) {
    const Gate& w = window[k];
    const Gate& t = tmpl[k];
    if (w.kind != t.kind || w.qubits.size() != t.qubits.size() ||
        w.params != t.params) {
      return false;
    }
    for (std::size_t j = 0; j < t.qubits.size(); ++j) {
      if (w.qubits[j] != labels[static_cast<std::size_t>(t.qubits[j])]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<Diagnostic> validate_translation(const Circuit& source,
                                             const Device& device,
                                             const TranslationArtifact& artifact,
                                             const EquivOptions& options) {
  std::vector<Diagnostic> out;
  if (artifact.mapped == nullptr) {
    out.push_back(make_diag("QFS101", "artifact carries no mapped circuit"));
    return out;
  }
  check_structure(source, device, artifact, out);
  if (!out.empty()) return out;  // matching needs a well-formed skeleton

  // One walk: the matcher advances the legality cursor as it passes each
  // gate, and the cursor judges the rest once the matcher stops early.
  // Legality findings come first in gate order; the matcher's follow only
  // while legality leaves room. The matcher may throw (a gate set that
  // cannot lower the source); that exception surfaces under the same
  // condition, after legality has judged every gate.
  Legality legality(device, *artifact.mapped, out, options.max_diagnostics);
  std::vector<Diagnostic> held;
  std::exception_ptr matcher_failure;
  try {
    Matcher matcher(source, device, artifact);
    matcher.run(artifact, options, legality, held);
  } catch (...) {
    matcher_failure = std::current_exception();
  }
  if (legality.check_through(static_cast<int>(artifact.mapped->size()))) {
    if (matcher_failure) std::rethrow_exception(matcher_failure);
    out.insert(out.end(), std::make_move_iterator(held.begin()),
               std::make_move_iterator(held.end()));
  }
  if (artifact.timed != nullptr &&
      static_cast<int>(out.size()) < options.max_diagnostics) {
    check_timed_program(*artifact.mapped, *artifact.timed, out,
                        options.max_diagnostics);
  }
  if (static_cast<int>(out.size()) > options.max_diagnostics) {
    out.resize(static_cast<std::size_t>(options.max_diagnostics));
  }
  return out;
}

bool translation_is_valid(const Circuit& source, const Device& device,
                          const TranslationArtifact& artifact,
                          const EquivOptions& options) {
  for (const Diagnostic& d :
       validate_translation(source, device, artifact, options)) {
    if (d.severity == Severity::kError) return false;
  }
  return true;
}

}  // namespace qfs::analysis
