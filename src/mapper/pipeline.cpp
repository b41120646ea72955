#include "mapper/pipeline.h"

#include <cmath>
#include <iterator>
#include <sstream>

#include "analysis/equiv.h"
#include "compiler/decompose.h"
#include "device/fidelity.h"
#include "sim/equivalence.h"

namespace qfs::mapper {

using circuit::Circuit;
using device::Device;

namespace {

/// Fidelity of the pre-mapping circuit: evaluated with the same error model
/// but ignoring connectivity (as if the chip were fully connected), which is
/// exactly the paper's "before mapping" reference point.
double log_fidelity_uniform(const Circuit& circuit, const Device& device) {
  const auto& em = device.error_model();
  double log_f = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) continue;
    if (g.qubits.size() == 1) {
      log_f += std::log(em.single_qubit_fidelity());
    } else {
      log_f += std::log(em.two_qubit_fidelity());
    }
  }
  return log_f;
}

}  // namespace

MappingResult map_circuit(const Circuit& circuit, const Device& device,
                          const MappingOptions& options, qfs::Rng& rng) {
  QFS_ASSERT_MSG(circuit.num_qubits() <= device.num_qubits(),
                 "circuit wider than device");

  // Step 1: decompose to the primitive gate set.
  Circuit decomposed = compiler::decompose_to_gateset(circuit, device.gateset());

  // Step 2: initial placement.
  Layout initial;
  if (!options.initial_layout.empty()) {
    QFS_ASSERT_MSG(static_cast<int>(options.initial_layout.size()) ==
                       circuit.num_qubits(),
                   "explicit initial layout must cover every circuit qubit");
    initial = Layout::from_partial(options.initial_layout, device.num_qubits());
  } else {
    initial = make_placer(options.placer)->place(decomposed, device, rng);
  }

  // Step 3: routing, optionally preceded by SABRE-style refinement: the
  // final layout of a forward+backward routing pass becomes the next
  // initial placement, letting the circuit's own traffic shape the layout.
  auto router = make_router(options.router);
  if (options.sabre_refinement_rounds > 0) {
    Circuit reversed(decomposed.num_qubits(), decomposed.name());
    for (auto it = decomposed.gates().rbegin(); it != decomposed.gates().rend();
         ++it) {
      reversed.add(*it);
    }
    for (int round = 0; round < options.sabre_refinement_rounds; ++round) {
      RoutingResult forward = router->route(decomposed, device, initial, rng);
      RoutingResult backward =
          router->route(reversed, device, forward.final_layout, rng);
      initial = backward.final_layout;
    }
  }
  RoutingResult routed = router->route(decomposed, device, initial, rng);

  // Each circuit below is freed once its last reader returns, so at most
  // two of them are live at a time. The "before" metrics are the last
  // readers of `decomposed`.
  MappingResult result;
  result.gates_before = decomposed.gate_count();
  result.depth_before = decomposed.depth();
  result.log_fidelity_before = log_fidelity_uniform(decomposed, device);
  compiler::ScheduleOptions sched;
  if (options.compute_latency) {
    result.latency_before_ns =
        compiler::asap_schedule(decomposed, device, sched).makespan_ns();
  }
  decomposed = Circuit();

  // Step 4: expand SWAPs, then lower any CX they introduced on CZ devices.
  Circuit expanded = compiler::expand_swaps(routed.mapped);
  routed.mapped = Circuit();
  result.mapped = compiler::decompose_to_gateset(expanded, device.gateset());
  expanded = Circuit();

  QFS_ASSERT_MSG(respects_connectivity(result.mapped, device),
                 "routing postcondition violated");

  result.initial_layout = initial.initial_segment(circuit.num_qubits());
  result.final_layout =
      routed.final_layout.initial_segment(circuit.num_qubits());
  result.swaps_inserted = routed.swaps_inserted;

  result.gates_after = result.mapped.gate_count();
  if (result.gates_before > 0) {
    result.gate_overhead_pct =
        100.0 * (result.gates_after - result.gates_before) /
        static_cast<double>(result.gates_before);
  }

  result.depth_after = result.mapped.depth();
  if (result.depth_before > 0) {
    result.depth_overhead_pct =
        100.0 * (result.depth_after - result.depth_before) /
        static_cast<double>(result.depth_before);
  }

  result.log_fidelity_after =
      device::estimate_log_gate_fidelity(result.mapped, device);
  result.fidelity_before = std::exp(result.log_fidelity_before);
  result.fidelity_after = std::exp(result.log_fidelity_after);
  result.fidelity_decrease_pct =
      100.0 *
      (1.0 - std::exp(result.log_fidelity_after - result.log_fidelity_before));

  if (options.compute_latency) {
    result.latency_after_ns =
        compiler::asap_schedule(result.mapped, device, sched).makespan_ns();
    if (result.latency_before_ns > 0.0) {
      result.latency_overhead_pct =
          100.0 * (result.latency_after_ns - result.latency_before_ns) /
          result.latency_before_ns;
    }
  }
  return result;
}

MappingResult map_circuit(const Circuit& circuit, const Device& device,
                          qfs::Rng& rng) {
  return map_circuit(circuit, device, MappingOptions{}, rng);
}

// ---------------------------------------------------------------------------
// Resilient compilation
// ---------------------------------------------------------------------------

namespace {

bool unitary_only(const Circuit& circuit) {
  for (const auto& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) return false;
  }
  return true;
}

/// Validate one mapping attempt against the contracts external callers rely
/// on. Returns ok when the result is safe to hand out.
qfs::Status validate_attempt(const Circuit& original,
                             const MappingResult& result, const Device& device,
                             const ResilientOptions& options,
                             std::uint64_t seed) {
  // Translation validation subsumes the old ad-hoc connectivity and
  // gate-set checks: the validator proves every physical gate is native, on
  // a live coupler, and realizes exactly one source gate under the tracked
  // permutation (QFS101-QFS110).
  analysis::TranslationArtifact artifact;
  artifact.mapped = &result.mapped;
  artifact.initial_layout = result.initial_layout;
  artifact.final_layout = result.final_layout;
  artifact.swaps_inserted = result.swaps_inserted;
  analysis::EquivOptions equiv;
  equiv.max_diagnostics = 1;  // the first finding decides the attempt
  std::vector<analysis::Diagnostic> findings =
      analysis::validate_translation(original, device, artifact, equiv);
  if (!findings.empty()) {
    return qfs::failed_precondition("translation validation failed: " +
                                    analysis::diagnostic_to_string(
                                        findings.front()));
  }
  if (!std::isfinite(result.log_fidelity_after) ||
      result.log_fidelity_after > 1e-9 ||
      !(result.fidelity_after >= 0.0 && result.fidelity_after <= 1.0 + 1e-9)) {
    return qfs::failed_precondition("fidelity estimate is not sane");
  }
  if (device.num_qubits() <= options.equivalence_max_qubits &&
      unitary_only(original) && unitary_only(result.mapped)) {
    qfs::Rng eq_rng(seed ^ 0x5eed5eedULL);
    if (!sim::mapping_preserves_semantics(
            original, result.mapped, result.initial_layout,
            result.final_layout, eq_rng, options.equivalence_trials)) {
      return qfs::failed_precondition(
          "mapped circuit is not equivalent to the input circuit");
    }
  }
  return qfs::Status::ok();
}

}  // namespace

std::string attempt_log_to_string(const CompileAttemptLog& log) {
  std::ostringstream os;
  for (const auto& a : log) {
    os << "attempt " << a.attempt << " [placer=" << a.placer
       << " router=" << a.router << " seed=" << a.seed << "]: ";
    if (a.status.is_ok()) {
      os << "ok (gates=" << a.gates_after << " swaps=" << a.swaps_inserted
         << ")";
    } else {
      os << a.status.to_string();
    }
    os << '\n';
  }
  return os.str();
}

qfs::StatusOr<ResilientResult> compile_resilient(const Circuit& circuit,
                                                 const Device& device,
                                                 const ResilientOptions& options,
                                                 CompileAttemptLog* log_out) {
  if (log_out) log_out->clear();
  if (circuit.num_qubits() > device.num_qubits()) {
    return qfs::resource_exhausted(
        "circuit needs " + std::to_string(circuit.num_qubits()) +
        " qubits but " + device.name() + " has only " +
        std::to_string(device.num_qubits()) + " healthy");
  }
  if (options.max_attempts < 1) {
    return qfs::invalid_argument("max_attempts must be >= 1");
  }

  // The fallback ladder: progressively different strategies; once the list
  // is exhausted the ladder wraps around with fresh seeds.
  const std::pair<const char*, const char*> kFallbacks[] = {
      {"trivial", "trivial"},        {"degree-match", "lookahead"},
      {"annealing", "lookahead"},    {"noise-aware", "noise-aware"},
      {"subgraph", "lookahead"},
  };
  const int num_fallbacks = static_cast<int>(std::size(kFallbacks));

  CompileAttemptLog log;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    MappingOptions opts = options.base;
    std::uint64_t seed = options.seed;
    if (attempt > 0) {
      // A retry with the exact same options would fail identically; the
      // explicit initial layout (if any) is also dropped, since it may be
      // the reason routing cannot make progress.
      const auto& fb = kFallbacks[(attempt - 1) % num_fallbacks];
      opts.placer = fb.first;
      opts.router = fb.second;
      opts.initial_layout.clear();
      seed = options.seed + 0x9e37ULL * static_cast<std::uint64_t>(attempt);
    }

    CompileAttempt entry;
    entry.attempt = attempt;
    entry.placer = opts.placer;
    entry.router = opts.router;
    entry.seed = seed;

    // Attempt-level memo key; the cache folds it into the full
    // circuit/device/pipeline fingerprint (see cache/memo.h).
    std::string attempt_key =
        opts.placer + "|" + opts.router + "|" + std::to_string(seed);

    try {
      MappingResult result;
      bool memoized = options.memo != nullptr && options.memo->lookup &&
                      options.memo->lookup(attempt_key, &result);
      if (memoized) {
        entry.status = validate_attempt(circuit, result, device, options, seed);
      }
      if (!memoized || !entry.status.is_ok()) {
        // Fresh compile: also the fallback when a memoized artifact fails
        // validation (a corrupt or stale entry must degrade, not escape).
        qfs::Rng rng(seed);
        result = map_circuit(circuit, device, opts, rng);
        entry.status = validate_attempt(circuit, result, device, options, seed);
        if (entry.status.is_ok() && options.memo != nullptr &&
            options.memo->store) {
          options.memo->store(attempt_key, result);
        }
      }
      entry.fidelity_after = result.fidelity_after;
      entry.gates_after = result.gates_after;
      entry.swaps_inserted = result.swaps_inserted;
      log.push_back(entry);
      if (entry.status.is_ok()) {
        ResilientResult out;
        out.mapping = std::move(result);
        out.options_used = std::move(opts);
        out.seed_used = seed;
        out.log = log;
        if (log_out) *log_out = std::move(log);
        return out;
      }
    } catch (const qfs::AssertionError& e) {
      // A contract violation inside a strategy must not take the driver
      // down: record it and climb to the next rung.
      entry.status =
          qfs::failed_precondition(std::string("mapper aborted: ") + e.what());
      log.push_back(entry);
    }
  }

  std::string last = log.empty() ? "no attempts made"
                                 : log.back().status.to_string();
  if (log_out) *log_out = std::move(log);
  return qfs::resource_exhausted(
      "compilation failed after " + std::to_string(options.max_attempts) +
      " attempt(s); last error: " + last);
}

}  // namespace qfs::mapper
