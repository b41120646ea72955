#include "replay.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <iterator>
#include <optional>
#include <utility>

#include "analysis/equiv.h"
#include "cache/artifact.h"
#include "cache/fingerprint.h"
#include "cache/memo.h"
#include "compiler/decompose.h"
#include "compiler/schedule.h"
#include "device/fidelity.h"
#include "mapper/pipeline.h"
#include "mapper/placement.h"
#include "mapper/routing.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "service/service.h"
#include "sim/equivalence.h"
#include "support/assert.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/timer.h"
#include "trace.h"

namespace perfbench {

namespace {

using qfs::circuit::Circuit;
using qfs::device::Device;
using qfs::mapper::MappingOptions;
using qfs::mapper::MappingResult;
using qfs::service::CompileRequest;
using qfs::service::CompileResponse;

struct ReplayOutcome {
  bool ok = false;
  std::string error;
  std::string digest;
  int attempts = 0;
  bool cache_hit = false;
  /// Work counters for the per-layer rates.
  long swaps_routed = 0;
  long routed_gates = 0;
  std::size_t source_bytes = 0;
};

struct Context {
  Tracer& tracer;
  const Circuit& source;
  const Device& device;
  qfs::cache::CompileCache* cache;
  qfs::cache::Fingerprint base;
  ReplayOutcome& out;
};

qfs::analysis::TranslationArtifact artifact_of(const MappingResult& result) {
  qfs::analysis::TranslationArtifact artifact;
  artifact.mapped = &result.mapped;
  artifact.initial_layout = result.initial_layout;
  artifact.final_layout = result.final_layout;
  artifact.swaps_inserted = result.swaps_inserted;
  return artifact;
}

bool unitary_only(const Circuit& circuit) {
  return std::all_of(
      circuit.gates().begin(), circuit.gates().end(),
      [](const auto& g) { return qfs::circuit::is_unitary(g.kind); });
}

// --- mapper::map_circuit ---------------------------------------------------

double log_fidelity_uniform(const Circuit& circuit, const Device& device) {
  const auto& em = device.error_model();
  double log_f = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!qfs::circuit::is_unitary(g.kind)) continue;
    log_f += std::log(g.qubits.size() == 1 ? em.single_qubit_fidelity()
                                           : em.two_qubit_fidelity());
  }
  return log_f;
}

MappingResult map_circuit(Context& c, const MappingOptions& options,
                          qfs::Rng& rng) {
  Scope map_span(c.tracer, "mapper.map");
  QFS_ASSERT_MSG(c.source.num_qubits() <= c.device.num_qubits(),
                 "circuit wider than device");
  const auto& gateset = c.device.gateset();
  Circuit decomposed = timed(c.tracer, "compiler.decompose", [&] {
    return qfs::compiler::decompose_to_gateset(c.source, gateset);
  });

  qfs::mapper::Layout initial;
  if (!options.initial_layout.empty()) {
    QFS_ASSERT_MSG(static_cast<int>(options.initial_layout.size()) ==
                       c.source.num_qubits(),
                   "explicit initial layout must cover every circuit qubit");
    initial = qfs::mapper::Layout::from_partial(options.initial_layout,
                                                c.device.num_qubits());
  } else {
    initial = timed(c.tracer, "mapper.place", [&] {
      return qfs::mapper::make_placer(options.placer)
          ->place(decomposed, c.device, rng);
    });
  }

  auto router = qfs::mapper::make_router(options.router);
  auto route = [&](const Circuit& circuit, const qfs::mapper::Layout& from) {
    return timed(c.tracer, "mapper.route", [&] {
      return router->route(circuit, c.device, from, rng);
    });
  };
  if (options.sabre_refinement_rounds > 0) {
    Circuit reversed(decomposed.num_qubits(), decomposed.name());
    for (auto it = decomposed.gates().rbegin(); it != decomposed.gates().rend();
         ++it) {
      reversed.add(*it);
    }
    for (int round = 0; round < options.sabre_refinement_rounds; ++round) {
      auto forward = route(decomposed, initial);
      initial = route(reversed, forward.final_layout).final_layout;
    }
  }
  qfs::mapper::RoutingResult routed = route(decomposed, initial);
  c.out.swaps_routed += routed.swaps_inserted;
  c.out.routed_gates += decomposed.gate_count();

  Circuit expanded = timed(c.tracer, "compiler.expand_swaps", [&] {
    return qfs::compiler::expand_swaps(routed.mapped);
  });
  Circuit final_circuit = timed(c.tracer, "compiler.decompose", [&] {
    return qfs::compiler::decompose_to_gateset(expanded, gateset);
  });
  QFS_ASSERT_MSG(qfs::mapper::respects_connectivity(final_circuit, c.device),
                 "routing postcondition violated");

  MappingResult result;
  result.mapped = std::move(final_circuit);
  result.initial_layout = initial.initial_segment(c.source.num_qubits());
  result.final_layout =
      routed.final_layout.initial_segment(c.source.num_qubits());
  result.swaps_inserted = routed.swaps_inserted;
  result.gates_before = decomposed.gate_count();
  result.gates_after = result.mapped.gate_count();
  if (result.gates_before > 0) {
    result.gate_overhead_pct =
        100.0 * (result.gates_after - result.gates_before) /
        static_cast<double>(result.gates_before);
  }
  result.depth_before = decomposed.depth();
  result.depth_after = result.mapped.depth();
  if (result.depth_before > 0) {
    result.depth_overhead_pct =
        100.0 * (result.depth_after - result.depth_before) /
        static_cast<double>(result.depth_before);
  }
  result.log_fidelity_before = log_fidelity_uniform(decomposed, c.device);
  result.log_fidelity_after =
      qfs::device::estimate_log_gate_fidelity(result.mapped, c.device);
  result.fidelity_before = std::exp(result.log_fidelity_before);
  result.fidelity_after = std::exp(result.log_fidelity_after);
  result.fidelity_decrease_pct =
      100.0 *
      (1.0 - std::exp(result.log_fidelity_after - result.log_fidelity_before));
  if (options.compute_latency) {
    Scope schedule_span(c.tracer, "compiler.schedule");
    qfs::compiler::ScheduleOptions sched;
    result.latency_before_ns =
        qfs::compiler::asap_schedule(decomposed, c.device, sched).makespan_ns();
    result.latency_after_ns =
        qfs::compiler::asap_schedule(result.mapped, c.device, sched)
            .makespan_ns();
    if (result.latency_before_ns > 0.0) {
      result.latency_overhead_pct =
          100.0 * (result.latency_after_ns - result.latency_before_ns) /
          result.latency_before_ns;
    }
  }
  return result;
}

// --- cache::make_attempt_memo (with hit revalidation) -----------------------

qfs::cache::Fingerprint attempt_key_fingerprint(Context& c,
                                                const std::string& key) {
  return timed(c.tracer, "cache.fingerprint", [&] {
    return qfs::cache::attempt_fingerprint(c.base, key);
  });
}

bool memo_lookup(Context& c, const std::string& attempt_key,
                 MappingResult* out) {
  qfs::cache::Fingerprint key = attempt_key_fingerprint(c, attempt_key);
  std::optional<std::string> payload =
      timed(c.tracer, "cache.lookup", [&] { return c.cache->lookup(key); });
  if (!payload) return false;
  auto decoded = timed(c.tracer, "cache.deserialize", [&] {
    return qfs::cache::deserialize_mapping_result(*payload);
  });
  if (!decoded.is_ok()) {
    c.cache->count_corrupt_payload();
    return false;
  }
  qfs::analysis::EquivOptions options;
  options.max_diagnostics = 1;
  bool valid = timed(c.tracer, "analysis.validate", [&] {
    return qfs::analysis::translation_is_valid(
        c.source, c.device, artifact_of(decoded.value()), options);
  });
  if (!valid) {
    c.cache->count_corrupt_payload();
    return false;
  }
  *out = std::move(decoded).value();
  return true;
}

void memo_store(Context& c, const std::string& attempt_key,
                const MappingResult& result) {
  qfs::cache::Fingerprint key = attempt_key_fingerprint(c, attempt_key);
  std::string payload = timed(c.tracer, "cache.serialize", [&] {
    return qfs::cache::serialize_mapping_result(result);
  });
  Scope store_span(c.tracer, "cache.store");
  c.cache->store(key, payload);
}

// --- mapper::compile_resilient ---------------------------------------------

bool validate_attempt(Context& c, const MappingResult& result,
                      const qfs::mapper::ResilientOptions& options,
                      std::uint64_t seed) {
  qfs::analysis::EquivOptions equiv;
  equiv.max_diagnostics = 1;
  bool valid = timed(c.tracer, "analysis.validate", [&] {
    return qfs::analysis::validate_translation(c.source, c.device,
                                               artifact_of(result), equiv)
        .empty();
  });
  if (!valid) return false;
  if (!std::isfinite(result.log_fidelity_after) ||
      result.log_fidelity_after > 1e-9 ||
      !(result.fidelity_after >= 0.0 && result.fidelity_after <= 1.0 + 1e-9)) {
    return false;
  }
  if (c.device.num_qubits() <= options.equivalence_max_qubits &&
      unitary_only(c.source) && unitary_only(result.mapped)) {
    Scope sim_span(c.tracer, "sim.equivalence");
    qfs::Rng eq_rng(seed ^ 0x5eed5eedULL);
    return qfs::sim::mapping_preserves_semantics(
        c.source, result.mapped, result.initial_layout, result.final_layout,
        eq_rng, options.equivalence_trials);
  }
  return true;
}

std::optional<MappingResult> compile_resilient(
    Context& c, const qfs::mapper::ResilientOptions& options) {
  if (c.source.num_qubits() > c.device.num_qubits()) return std::nullopt;
  const std::pair<const char*, const char*> kFallbacks[] = {
      {"trivial", "trivial"},        {"degree-match", "lookahead"},
      {"annealing", "lookahead"},    {"noise-aware", "noise-aware"},
      {"subgraph", "lookahead"},
  };
  const int num_fallbacks = static_cast<int>(std::size(kFallbacks));
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    MappingOptions opts = options.base;
    std::uint64_t seed = options.seed;
    if (attempt > 0) {
      const auto& fb = kFallbacks[(attempt - 1) % num_fallbacks];
      opts.placer = fb.first;
      opts.router = fb.second;
      opts.initial_layout.clear();
      seed = options.seed + 0x9e37ULL * static_cast<std::uint64_t>(attempt);
    }
    ++c.out.attempts;
    std::string attempt_key =
        opts.placer + "|" + opts.router + "|" + std::to_string(seed);
    try {
      MappingResult result;
      bool memoized =
          c.cache != nullptr && memo_lookup(c, attempt_key, &result);
      c.out.cache_hit = c.out.cache_hit || memoized;
      bool ok = memoized && validate_attempt(c, result, options, seed);
      if (!ok) {
        qfs::Rng rng(seed);
        result = map_circuit(c, opts, rng);
        ok = validate_attempt(c, result, options, seed);
        if (ok && c.cache != nullptr) memo_store(c, attempt_key, result);
      }
      if (ok) return result;
    } catch (const qfs::AssertionError&) {
      // The service records the rung as failed and climbs the ladder.
    }
  }
  return std::nullopt;
}

bool replayable(const CompileRequest& r) {
  return r.mode == qfs::service::RequestMode::kCompile &&
         r.pipeline == "resilient" && !r.qasm.empty() && r.qasm_path.empty() &&
         r.circuit == nullptr && r.device_obj == nullptr &&
         r.calibration.empty() && r.calibration_path.empty() &&
         r.fault_spec.empty() && !r.recommend && !r.emit_qasm &&
         !r.emit_cqasm && !r.emit_timed && !r.verify_artifact &&
         r.deadline_ms != 0.0 && r.chaos.empty();
}

/// Rungs in a response's attempt log (1 for a first-try success).
int attempts_of(const CompileResponse& response) {
  if (response.attempt_log.empty()) return response.ok() ? 1 : 0;
  return static_cast<int>(std::count(response.attempt_log.begin(),
                                     response.attempt_log.end(), '\n'));
}

/// Replay one request against `cache` (may be null), recording spans.
ReplayOutcome replay_execute(const CompileRequest& request,
                             qfs::cache::CompileCache* cache, Tracer& tracer) {
  ReplayOutcome out;
  Scope root(tracer, "service.execute");
  if (!replayable(request)) {
    out.error = "request uses a feature the replay does not model";
    return out;
  }
  out.source_bytes = request.qasm.size();
  auto parsed = timed(tracer, "qasm.parse",
                      [&] { return qfs::qasm::parse(request.qasm); });
  if (!parsed.is_ok()) {
    out.error = parsed.status().to_string();
    return out;
  }
  const Circuit& circuit = parsed.value();
  Device device;
  std::string error;
  if (!qfs::service::CompileService::parse_device(request.device, device,
                                                  error)) {
    out.error = error;
    return out;
  }
  const MappingOptions& options = request.options;
  if (!options.initial_layout.empty() &&
      static_cast<int>(options.initial_layout.size()) != circuit.num_qubits()) {
    out.error = "initial_layout size mismatch";
    return out;
  }
  if (request.cache_policy == qfs::service::CachePolicy::kBypass) {
    cache = nullptr;
  }

  Context c{tracer, circuit, device, cache, {}, out};
  if (cache != nullptr) {
    std::string canonical =
        timed(tracer, "qasm.emit", [&] { return qfs::qasm::to_qasm(circuit); });
    c.base = timed(tracer, "cache.fingerprint", [&] {
      return qfs::cache::compile_fingerprint(canonical, device, options,
                                             request.seed);
    });
  }
  qfs::mapper::ResilientOptions resilient;
  resilient.base = options;
  resilient.max_attempts = request.max_attempts;
  resilient.seed = request.seed;
  std::optional<MappingResult> mapping = compile_resilient(c, resilient);
  if (!mapping) {
    out.error = "compilation failed after the whole ladder";
    return out;
  }
  if (request.want_digest) {
    Scope digest_span(tracer, "service.digest");
    std::string text = timed(tracer, "qasm.emit", [&] {
      return qfs::qasm::to_qasm(mapping->mapped);
    });
    out.digest = qfs::hash128(text).hex();
  }
  out.ok = true;
  return out;
}

/// A request drifts when its replay time leaves this share of its untraced
/// execute time (plus kDriftSlackMs for sub-millisecond requests); the run
/// fails the fidelity check when more than kMaxDriftFraction of requests
/// drift or the summed replay time leaves kTotalShare of the summed execute
/// time.
constexpr double kDriftShare = 0.5;
constexpr double kDriftSlackMs = 1.0;
constexpr double kMaxDriftFraction = 0.01;
constexpr double kTotalShare = 0.15;

double per_request(const std::map<std::string, Tracer::Totals>& totals,
                   const char* name, double n, bool self = false) {
  auto it = totals.find(name);
  if (it == totals.end()) return 0.0;
  return (self ? it->second.self_ms : it->second.total_ms) / n;
}

}  // namespace

void traced_replay(
    const std::vector<CompileRequest>& requests,
    const std::function<std::unique_ptr<qfs::cache::CompileCache>()>&
        make_cache,
    const std::string& span_path, Report& report) {
  const int n = static_cast<int>(requests.size());
  const double dn = std::max(1, n);

  // Each request runs untraced (the program as users run it) and traced,
  // back to back and in alternating order, each side over its own fresh
  // cache, so both see the same host state and the same cache history.
  std::unique_ptr<qfs::cache::CompileCache> service_cache = make_cache();
  std::unique_ptr<qfs::cache::CompileCache> replay_cache = make_cache();
  qfs::service::ServiceConfig config;
  config.cache = service_cache.get();
  qfs::service::CompileService service(config);
  Tracer tracer;
  std::vector<CompileResponse> responses(requests.size());
  std::vector<ReplayOutcome> outcomes(requests.size());
  std::vector<double> execute_ms(requests.size());
  for (int i = 0; i < n; ++i) {
    auto k = static_cast<std::size_t>(i);
    auto untraced = [&] {
      qfs::StopWatch watch;
      responses[k] = service.execute(requests[k]);
      execute_ms[k] = watch.elapsed_ms();
    };
    auto traced = [&] {
      tracer.begin_request(i);
      outcomes[k] = replay_execute(requests[k], replay_cache.get(), tracer);
    };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
  }
  qfs::cache::CacheStatsSnapshot stats = service_cache->stats();
  service_cache.reset();
  replay_cache.reset();

  // Replay fidelity.
  std::vector<double> replay_ms = tracer.request_ms(n);
  long drifted = 0;
  long attempts = 0;
  double sum_execute = 0.0;
  double sum_replay = 0.0;
  for (int i = 0; i < n; ++i) {
    auto k = static_cast<std::size_t>(i);
    const CompileResponse& response = responses[k];
    const ReplayOutcome& outcome = outcomes[k];
    ++report.attempted;
    attempts += attempts_of(response);
    if (!response.ok() || !outcome.ok ||
        outcome.digest != response.mapped_digest ||
        outcome.attempts != attempts_of(response) ||
        outcome.cache_hit != response.cache_hit) {
      ++report.failed;
      report.error("replay drift on request " + std::to_string(i) +
                   ": service " + qfs::service::error_code_name(response.code) +
                   " digest=" + response.mapped_digest +
                   " attempts=" + std::to_string(attempts_of(response)) +
                   " hit=" + std::to_string(response.cache_hit) +
                   "; replay digest=" + outcome.digest +
                   " attempts=" + std::to_string(outcome.attempts) +
                   " hit=" + std::to_string(outcome.cache_hit) + " " +
                   outcome.error);
      continue;
    }
    sum_execute += execute_ms[k];
    sum_replay += replay_ms[k];
    if (std::abs(replay_ms[k] - execute_ms[k]) >
        kDriftShare * execute_ms[k] + kDriftSlackMs) {
      ++drifted;
    }
  }
  double share = sum_execute > 0.0 ? sum_replay / sum_execute : 0.0;
  if (drifted > kMaxDriftFraction * n || std::abs(share - 1.0) > kTotalShare) {
    report.error("replay timing drift: " + std::to_string(drifted) + " of " +
                 std::to_string(n) +
                 " requests outside the per-request share; replay/execute = " +
                 std::to_string(share));
  }
  std::cerr << "perfbench: replay fidelity: " << drifted << " of " << n
            << " requests outside +-" << kDriftShare * 100 << "% + "
            << kDriftSlackMs << " ms; replay/execute time " << share << "\n";

  if (!tracer.write(span_path)) {
    report.error("cannot write the span file " + span_path);
  }

  // Per-layer metrics: per-request means of span time, plus work rates.
  const auto totals = tracer.totals();
  auto ms = [&](const char* name) { return per_request(totals, name, dn); };
  long swaps = 0;
  long routed_gates = 0;
  double source_bytes = 0.0;
  for (const ReplayOutcome& o : outcomes) {
    swaps += o.swaps_routed;
    routed_gates += o.routed_gates;
    source_bytes += static_cast<double>(o.source_bytes);
  }
  double parse_s = ms("qasm.parse") * dn / 1e3;
  double route_s = ms("mapper.route") * dn / 1e3;
  auto validate = totals.find("analysis.validate");

  report.metric("qasm.parse.ms", ms("qasm.parse"));
  report.metric("qasm.parse.mb_s",
                parse_s > 0 ? source_bytes / 1e6 / parse_s : 0);
  report.metric("qasm.emit.ms", ms("qasm.emit"));
  report.metric("compiler.decompose.ms", ms("compiler.decompose"));
  report.metric("compiler.expand_swaps.ms", ms("compiler.expand_swaps"));
  report.metric("compiler.schedule.ms", ms("compiler.schedule"));
  report.metric("mapper.place.ms", ms("mapper.place"));
  report.metric("mapper.route.ms", ms("mapper.route"));
  report.metric("mapper.route.kgates_s",
                route_s > 0 ? routed_gates / 1e3 / route_s : 0);
  report.metric("mapper.self.ms", per_request(totals, "mapper.map", dn, true));
  report.metric("mapper.swaps", swaps / dn);
  report.metric("mapper.attempts_per_request", attempts / dn);
  report.metric("analysis.validate.ms", ms("analysis.validate"));
  report.metric("analysis.validate.calls_per_request",
                validate == totals.end() ? 0.0 : validate->second.count / dn);
  report.metric("cache.fingerprint.ms", ms("cache.fingerprint"));
  report.metric("cache.lookup.ms", ms("cache.lookup"));
  report.metric("cache.deserialize.ms", ms("cache.deserialize"));
  report.metric("cache.serialize.ms", ms("cache.serialize"));
  report.metric("cache.store.ms", ms("cache.store"));
  report.metric("cache.payload_mb",
                static_cast<double>(stats.bytes_written + stats.bytes_read) /
                    1e6);
  report.metric("cache.hit_ratio",
                stats.lookups() > 0
                    ? static_cast<double>(stats.hits()) / stats.lookups()
                    : 0.0);
  report.metric("cache.evictions", static_cast<double>(stats.evictions));
  report.metric("service.digest.ms", ms("service.digest"));
  report.metric("service.execute.ms", ms("service.execute"));
  report.metric("service.self.ms",
                per_request(totals, "service.execute", dn, true));
  report.metric("replay.drift_requests", static_cast<double>(drifted));
  report.metric("trace.overhead_ms", (sum_replay - sum_execute) / dn);

  // JSON codecs on the workload's own request and response lines.
  double request_us = 0.0;
  double response_us = 0.0;
  for (int i = 0; i < n; ++i) {
    auto k = static_cast<std::size_t>(i);
    qfs::StopWatch watch;
    std::string line = qfs::service::request_to_json(requests[k]).to_string();
    bool decoded = qfs::service::parse_request_line(line).is_ok();
    request_us += watch.elapsed_ms() * 1e3;
    watch.restart();
    std::string reply =
        qfs::service::response_to_json(responses[k]).to_string();
    auto json = qfs::JsonValue::parse(reply);
    decoded = decoded && json.is_ok() &&
              qfs::service::response_from_json(json.value()).is_ok();
    response_us += watch.elapsed_ms() * 1e3;
    if (!decoded) report.error("codec round trip failed on request " +
                               std::to_string(i));
  }
  report.metric("codec.request.us", request_us / dn);
  report.metric("codec.response.us", response_us / dn);
}

}  // namespace perfbench
