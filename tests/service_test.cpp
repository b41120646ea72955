// Tests for the unified compile service: the wire error taxonomy and its
// exit-code contract, CompileRequest/CompileResponse JSON codecs, request
// validation against hostile input, CompileService execution semantics
// (deadlines, size limits, cache interaction, offline equivalence), and
// cross-request concurrency over one shared cache (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact.h"
#include "cache/cache.h"
#include "cache/fingerprint.h"
#include "cache/memo.h"
#include "device/device.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "service/api.h"
#include "service/flags.h"
#include "service/service.h"
#include "support/strings.h"

namespace qfs::service {
namespace {

const char* kBellQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n";

CompileRequest bell_request() {
  CompileRequest req;
  req.qasm = kBellQasm;
  req.options.compute_latency = true;
  return req;
}

// ---------------------------------------------------------------------------
// Error taxonomy: names and exit codes are a frozen wire contract.
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, NamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidRequest),
               "invalid_request");
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kCompileFailed), "compile_failed");
  EXPECT_STREQ(error_code_name(ErrorCode::kLintError), "lint_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorTaxonomy, ExitCodesMatchTheQfscContract) {
  // 1 = unusable input, 2 = compile failure, 3 = lint errors: pinned since
  // the pre-service qfsc; the service-only codes extend without renumbering.
  EXPECT_EQ(exit_code_for(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code_for(ErrorCode::kInvalidRequest), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kParseError), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kCompileFailed), 2);
  EXPECT_EQ(exit_code_for(ErrorCode::kLintError), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kDeadlineExceeded), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kResourceExhausted), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 6);
}

TEST(ErrorTaxonomy, NamesRoundTrip) {
  for (ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kInvalidRequest, ErrorCode::kParseError,
        ErrorCode::kCompileFailed, ErrorCode::kLintError,
        ErrorCode::kDeadlineExceeded, ErrorCode::kResourceExhausted,
        ErrorCode::kInternal}) {
    ErrorCode back = ErrorCode::kInternal;
    ASSERT_TRUE(error_code_from_name(error_code_name(code), back));
    EXPECT_EQ(back, code);
  }
  ErrorCode out;
  EXPECT_FALSE(error_code_from_name("no_such_code", out));
}

// ---------------------------------------------------------------------------
// Request JSON codec.
// ---------------------------------------------------------------------------

TEST(RequestCodec, RoundTripsNonDefaultFields) {
  CompileRequest req;
  req.id = "req-7";
  req.mode = RequestMode::kVerify;
  req.qasm = kBellQasm;
  req.source_name = "bell.qasm";
  req.device = "line:20";
  req.calibration = "# cal\n";
  req.fault_spec = "q3:dead";
  req.options.placer = "degree-match";
  req.options.router = "lookahead";
  req.options.sabre_refinement_rounds = 3;
  req.options.compute_latency = true;
  req.pipeline = "direct";
  req.seed = 7;
  req.max_attempts = 2;
  req.recommend = true;
  req.crosstalk_safe = true;
  req.emit_qasm = true;
  req.emit_timed = true;
  req.want_digest = false;
  req.verify_artifact = true;
  req.cache_policy = CachePolicy::kBypass;
  req.deadline_ms = 1500.0;

  auto decoded = request_from_json(request_to_json(req));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const CompileRequest& back = decoded.value();
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.mode, req.mode);
  EXPECT_EQ(back.qasm, req.qasm);
  EXPECT_EQ(back.source_name, req.source_name);
  EXPECT_EQ(back.device, req.device);
  EXPECT_EQ(back.calibration, req.calibration);
  EXPECT_EQ(back.fault_spec, req.fault_spec);
  EXPECT_EQ(back.options.placer, req.options.placer);
  EXPECT_EQ(back.options.router, req.options.router);
  EXPECT_EQ(back.options.sabre_refinement_rounds,
            req.options.sabre_refinement_rounds);
  EXPECT_EQ(back.options.compute_latency, req.options.compute_latency);
  EXPECT_EQ(back.pipeline, req.pipeline);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.max_attempts, req.max_attempts);
  EXPECT_EQ(back.recommend, req.recommend);
  EXPECT_EQ(back.crosstalk_safe, req.crosstalk_safe);
  EXPECT_EQ(back.emit_qasm, req.emit_qasm);
  EXPECT_EQ(back.emit_timed, req.emit_timed);
  EXPECT_EQ(back.want_digest, req.want_digest);
  EXPECT_EQ(back.verify_artifact, req.verify_artifact);
  EXPECT_EQ(back.cache_policy, req.cache_policy);
  EXPECT_DOUBLE_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(RequestCodec, BorrowedCircuitIsRenderedToQasm) {
  auto parsed = qasm::parse(kBellQasm);
  ASSERT_TRUE(parsed.is_ok());
  CompileRequest req;
  req.circuit = &parsed.value();
  JsonValue json = request_to_json(req);
  const JsonValue* qasm_member = json.find("qasm");
  ASSERT_NE(qasm_member, nullptr);
  EXPECT_EQ(qasm_member->as_string(), qasm::to_qasm(parsed.value()));
}

TEST(RequestCodec, UnknownFieldRejectedWithSuggestion) {
  auto r = parse_request_line("{\"qasm\":\"x\",\"plaser\":\"trivial\"}");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("unknown request field 'plaser'"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("placer"), std::string::npos);
}

TEST(RequestCodec, WrongFieldTypeNamesTheField) {
  auto r = parse_request_line("{\"qasm\":\"x\",\"seed\":\"not-a-number\"}");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("'seed'"), std::string::npos);
}

TEST(RequestCodec, TruncatedLineIsParseError) {
  auto r = parse_request_line("{\"qasm\":\"OPENQASM");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(RequestCodec, RequiresExactlyOneSource) {
  EXPECT_FALSE(parse_request_line("{}").is_ok());
  EXPECT_FALSE(
      parse_request_line("{\"qasm\":\"x\",\"qasm_path\":\"a.qasm\"}")
          .is_ok());
  EXPECT_TRUE(parse_request_line("{\"qasm\":\"x\"}").is_ok());
}

TEST(RequestCodec, RejectsOutOfRangeValues) {
  EXPECT_FALSE(
      parse_request_line("{\"qasm\":\"x\",\"max_attempts\":0}").is_ok());
  EXPECT_FALSE(
      parse_request_line("{\"qasm\":\"x\",\"deadline_ms\":-5}").is_ok());
  EXPECT_FALSE(parse_request_line("{\"qasm\":\"x\",\"seed\":-1}").is_ok());
  EXPECT_FALSE(
      parse_request_line("{\"qasm\":\"x\",\"mode\":\"transpile\"}").is_ok());
}

// ---------------------------------------------------------------------------
// Response JSON codec.
// ---------------------------------------------------------------------------

TEST(ResponseCodec, SuccessRoundTripsThroughJson) {
  CompileService service;
  CompileRequest req = bell_request();
  req.id = "rt-1";
  CompileResponse resp = service.execute(req);
  ASSERT_TRUE(resp.ok()) << resp.error_message;

  auto decoded = response_from_json(response_to_json(resp));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const CompileResponse& back = decoded.value();
  EXPECT_EQ(back.id, "rt-1");
  EXPECT_EQ(back.code, ErrorCode::kOk);
  EXPECT_TRUE(back.has_mapping);
  EXPECT_EQ(back.device_name, resp.device_name);
  EXPECT_EQ(back.placer_used, resp.placer_used);
  EXPECT_EQ(back.seed_used, resp.seed_used);
  EXPECT_EQ(back.mapping.gates_after, resp.mapping.gates_after);
  EXPECT_EQ(back.mapping.swaps_inserted, resp.mapping.swaps_inserted);
  EXPECT_EQ(back.mapped_digest, resp.mapped_digest);
  EXPECT_EQ(back.cache_hit, resp.cache_hit);
}

TEST(ResponseCodec, ErrorResponseCarriesCodeAndId) {
  JsonValue err = error_response_json(ErrorCode::kResourceExhausted,
                                      "admission queue full", "c-3");
  EXPECT_EQ(err.find("id")->as_string(), "c-3");
  EXPECT_EQ(err.find("ok")->as_bool(), false);
  EXPECT_EQ(err.find("code")->as_string(), "resource_exhausted");
  EXPECT_EQ(err.find("error")->as_string(), "admission queue full");
}

// ---------------------------------------------------------------------------
// Shared request flags (the deduped --jobs/--cache-dir/... parser).
// ---------------------------------------------------------------------------

TEST(RequestFlags, LenientScanPicksOutSharedFlags) {
  const char* argv[] = {"bench", "--whatever", "--jobs", "8",
                        "--seed", "99",        "--placer", "annealing"};
  RequestFlagValues flags;
  ASSERT_TRUE(
      parse_request_flags(8, const_cast<char**>(argv), flags).is_ok());
  EXPECT_EQ(flags.jobs, 8);
  EXPECT_TRUE(flags.jobs_set);
  EXPECT_EQ(flags.seed, 99u);
  EXPECT_EQ(flags.placer, "annealing");
  EXPECT_FALSE(flags.router_set);
  EXPECT_EQ(flags.router, "trivial");  // default untouched
}

TEST(RequestFlags, MalformedValueIsAnError) {
  const char* argv[] = {"bench", "--jobs", "-3"};
  RequestFlagValues flags;
  qfs::Status status = parse_request_flags(3, const_cast<char**>(argv), flags);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "bad --jobs value '-3'");
}

TEST(RequestFlags, SuggestsNearMissFlags) {
  EXPECT_EQ(closest_match("--jbos", shared_request_flags()), "--jobs");
  EXPECT_EQ(closest_match("--cachedir", shared_request_flags()),
            "--cache-dir");
  EXPECT_EQ(closest_match("--zzzzzzzz", shared_request_flags()), "");
}

// ---------------------------------------------------------------------------
// CompileService execution semantics.
// ---------------------------------------------------------------------------

TEST(Service, CompilesInlineQasm) {
  CompileService service;
  CompileResponse resp = service.execute(bell_request());
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  EXPECT_TRUE(resp.has_mapping);
  EXPECT_EQ(resp.device_name, "surface-17");
  EXPECT_GE(resp.mapping.gates_after, resp.mapping.gates_before);
  EXPECT_EQ(resp.mapped_digest.size(), 32u);  // hash128 hex
  EXPECT_FALSE(resp.cache_hit);
}

TEST(Service, VerifyArtifactPassesOnHealthyCompiles) {
  CompileService service;
  CompileRequest req = bell_request();
  req.verify_artifact = true;
  req.emit_timed = true;  // the timed program is validated too (QFS108)
  CompileResponse resp = service.execute(req);
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  EXPECT_TRUE(resp.has_mapping);
  EXPECT_TRUE(resp.diagnostics.empty());
  EXPECT_FALSE(resp.timed_text.empty());

  // Both pipelines honor the flag.
  req.pipeline = "direct";
  resp = service.execute(req);
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  EXPECT_TRUE(resp.diagnostics.empty());
}

TEST(Service, WideBarrierCompilesAndValidatesWithBothRouters) {
  // A barrier over a whole 300-qubit register is one gate with 300
  // operands. Both routers, and the scheduler behind compute_latency, must
  // carry it through to an artifact the validator proves.
  CompileService service;
  for (const char* router : {"lookahead", "trivial"}) {
    CompileRequest req;
    req.qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[300];\n"
        "h q[0];\ncx q[0],q[1];\nbarrier q;\ncx q[1],q[2];\n";
    req.device = "heavy_hex(rows=13,cols=29)";
    req.options.router = router;
    req.options.compute_latency = true;
    req.verify_artifact = true;
    req.emit_timed = true;
    CompileResponse resp = service.execute(req);
    ASSERT_TRUE(resp.ok()) << router << ": " << resp.error_message << "\n"
                           << resp.attempt_log;
    EXPECT_TRUE(resp.diagnostics.empty()) << router;
    EXPECT_EQ(resp.router_used, router);
    EXPECT_GT(resp.mapping.latency_after_ns, 0.0) << router;
    int barrier_width = 0;
    for (const circuit::Gate& g : resp.mapping.mapped.gates()) {
      if (g.kind == circuit::GateKind::kBarrier) {
        barrier_width = static_cast<int>(g.qubits.size());
      }
    }
    EXPECT_EQ(barrier_width, 300) << router;
  }
}

TEST(Service, QasmParseErrorIsTyped) {
  CompileService service;
  CompileRequest req;
  req.qasm = "qreg q[2];\nnot_a_gate q[0];\n";
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kParseError);
  EXPECT_FALSE(resp.error_message.empty());
  EXPECT_FALSE(resp.has_mapping);
}

TEST(Service, UnknownDeviceIsInvalidRequest) {
  CompileService service;
  CompileRequest req = bell_request();
  req.device = "hypercube:9";
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kInvalidRequest);
}

TEST(Service, UnknownPlacerSuggestsAlternativeOnDirectPipeline) {
  CompileService service;
  CompileRequest req = bell_request();
  req.pipeline = "direct";
  req.options.placer = "anealing";
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kInvalidRequest);
  EXPECT_NE(resp.error_message.find("annealing"), std::string::npos)
      << resp.error_message;
}

TEST(Service, ResilientPipelineSalvagesUnknownPlacer) {
  // The fallback ladder has always turned an unknown strategy into a
  // successful compile on safer options; the service must not reject it
  // up front and break that contract.
  CompileService service;
  CompileRequest req = bell_request();
  req.pipeline = "resilient";
  req.options.placer = "bogus";
  CompileResponse resp = service.execute(req);
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  EXPECT_NE(resp.attempt_log.find("mapper aborted"), std::string::npos)
      << resp.attempt_log;
}

TEST(Service, OversizedSourceIsResourceExhausted) {
  ServiceConfig config;
  config.max_source_bytes = 16;
  CompileService service(config);
  CompileResponse resp = service.execute(bell_request());
  EXPECT_EQ(resp.code, ErrorCode::kResourceExhausted);
}

TEST(Service, ZeroDeadlineExpiresBeforeCompiling) {
  CompileService service;
  CompileRequest req = bell_request();
  req.deadline_ms = 0.0;  // contract: already expired
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(resp.has_mapping);
}

TEST(Service, TooWideCircuitFailsCompilation) {
  CompileService service;
  CompileRequest req;
  req.qasm = "qreg q[40];\nh q[39];\n";  // surface-17 has 17 qubits
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kCompileFailed);
  EXPECT_NE(resp.error_message.find("resource_exhausted"),
            std::string::npos);
}

TEST(Service, LintModeReportsParseDiagnostics) {
  CompileService service;
  CompileRequest req;
  req.mode = RequestMode::kLint;
  req.qasm = "qreg q[2];\nnot_a_gate q[0];\n";
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kLintError);
  ASSERT_FALSE(resp.diagnostics.empty());
  EXPECT_EQ(resp.diagnostics[0].code, "QFS100");
}

TEST(Service, LintModeCleanCircuitIsOk) {
  CompileService service;
  CompileRequest req = bell_request();
  req.mode = RequestMode::kLint;
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kOk) << resp.error_message;
  EXPECT_FALSE(resp.has_mapping);
}

TEST(Service, SameSeedIsDeterministicAcrossInstances) {
  CompileService a, b;
  CompileRequest req = bell_request();
  req.seed = 1234;
  CompileResponse ra = a.execute(req);
  CompileResponse rb = b.execute(req);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.mapped_digest, rb.mapped_digest);
  EXPECT_EQ(mapping_metrics_json(ra).to_string(),
            mapping_metrics_json(rb).to_string());
}

TEST(Service, DirectPipelineUsesCacheAcrossRequests) {
  cache::CompileCache cache{cache::CacheConfig{}};
  ServiceConfig config;
  config.cache = &cache;
  CompileService service(config);

  CompileRequest req = bell_request();
  req.pipeline = "direct";
  CompileResponse cold = service.execute(req);
  ASSERT_TRUE(cold.ok()) << cold.error_message;
  EXPECT_FALSE(cold.cache_hit);

  CompileResponse warm = service.execute(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.mapped_digest, cold.mapped_digest);

  // kBypass must neither read nor count as a hit.
  req.cache_policy = CachePolicy::kBypass;
  CompileResponse bypass = service.execute(req);
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(bypass.mapped_digest, cold.mapped_digest);
}

TEST(Service, ResilientPipelineMemoHitsOnRepeat) {
  cache::CompileCache cache{cache::CacheConfig{}};
  ServiceConfig config;
  config.cache = &cache;
  CompileService service(config);

  CompileRequest req = bell_request();
  CompileResponse cold = service.execute(req);
  ASSERT_TRUE(cold.ok()) << cold.error_message;
  EXPECT_FALSE(cold.cache_hit);
  CompileResponse warm = service.execute(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.mapped_digest, cold.mapped_digest);
}

// The key a direct request's rung 0 reads: the attempt key of the
// request's options and seed, folded into its compile fingerprint.
cache::Fingerprint rung0_key(const CompileRequest& req) {
  auto parsed = qasm::parse(req.qasm);
  EXPECT_TRUE(parsed.is_ok());
  cache::Fingerprint base = cache::compile_fingerprint(
      qasm::to_qasm(parsed.value()), device::surface17_device(), req.options,
      req.seed);
  return cache::attempt_fingerprint(
      base, req.options.placer + "|" + req.options.router + "|" +
                std::to_string(req.seed));
}

TEST(Service, DirectHitOfAnotherCircuitIsRecompiled) {
  // A well-formed artifact of a different circuit, planted under the key a
  // direct request reads: the ladder's validator must reject it, so the
  // request returns what a cache-free compile returns.
  cache::CompileCache cache{cache::CacheConfig{}};
  ServiceConfig config;
  config.cache = &cache;
  CompileService service(config);

  CompileRequest req = bell_request();
  req.pipeline = "direct";
  CompileRequest other = req;
  other.qasm = "qreg q[3];\nx q[0];\ncx q[2],q[1];\n";
  other.cache_policy = CachePolicy::kBypass;
  CompileResponse planted = service.execute(other);
  ASSERT_TRUE(planted.ok()) << planted.error_message;
  cache::store_mapping(cache, rung0_key(req), planted.mapping);

  CompileRequest bypass = req;
  bypass.cache_policy = CachePolicy::kBypass;
  CompileResponse fresh = service.execute(bypass);
  ASSERT_TRUE(fresh.ok()) << fresh.error_message;
  ASSERT_NE(fresh.mapped_digest, planted.mapped_digest);

  CompileResponse resp = service.execute(req);
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  EXPECT_EQ(resp.mapped_digest, fresh.mapped_digest);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);

  // The fresh compile replaced the planted entry: the repeat is a real hit.
  CompileResponse again = service.execute(req);
  ASSERT_TRUE(again.ok()) << again.error_message;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.mapped_digest, fresh.mapped_digest);
}

TEST(Service, DirectAndResilientRungZeroShareOneEntry) {
  cache::CompileCache cache{cache::CacheConfig{}};
  ServiceConfig config;
  config.cache = &cache;
  CompileService service(config);

  CompileRequest req = bell_request();
  req.pipeline = "direct";
  CompileResponse direct = service.execute(req);
  ASSERT_TRUE(direct.ok()) << direct.error_message;
  EXPECT_FALSE(direct.cache_hit);

  req.pipeline = "resilient";
  CompileResponse resilient = service.execute(req);
  ASSERT_TRUE(resilient.ok()) << resilient.error_message;
  EXPECT_TRUE(resilient.cache_hit);
  EXPECT_EQ(resilient.mapped_digest, direct.mapped_digest);
  EXPECT_TRUE(resilient.attempt_log.empty());  // served by rung 0
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(Service, DirectTooWideCircuitFailsCompilation) {
  CompileService service;
  CompileRequest req;
  req.pipeline = "direct";
  req.qasm = "qreg q[40];\nh q[39];\n";  // surface-17 has 17 qubits
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kCompileFailed);
  EXPECT_EQ(resp.error_message,
            "resource_exhausted: circuit needs 40 qubits but surface-17 has "
            "only 17 healthy");
  EXPECT_FALSE(resp.has_mapping);
}

TEST(Service, DirectMapperAbortFailsCompilation) {
  // A contract violation inside the mapper (here a non-injective layout)
  // fails the one rung; it is a compile failure, not an internal error.
  CompileService service;
  CompileRequest req = bell_request();
  req.pipeline = "direct";
  req.options.initial_layout = {0, 0, 1};
  CompileResponse resp = service.execute(req);
  EXPECT_EQ(resp.code, ErrorCode::kCompileFailed);
  EXPECT_TRUE(starts_with(resp.error_message,
                          "resource_exhausted: compilation failed after 1 "
                          "attempt(s); last error: failed_precondition: "
                          "mapper aborted: assertion failed: "))
      << resp.error_message;
  EXPECT_TRUE(std::string_view(resp.error_message)
                  .ends_with("placement is not injective"))
      << resp.error_message;
  EXPECT_NE(resp.attempt_log.find("attempt 0 [placer=trivial"),
            std::string::npos)
      << resp.attempt_log;
  EXPECT_FALSE(resp.has_mapping);
}

TEST(Service, BorrowedCircuitAndDeviceMatchWireRequest) {
  // The in-process fast path (what bench::run_suite uses) must produce the
  // same bytes as the same request arriving as QASM text over the wire.
  auto parsed = qasm::parse(kBellQasm);
  ASSERT_TRUE(parsed.is_ok());
  device::Device dev = device::surface17_device();
  CompileService service;

  CompileRequest borrowed;
  borrowed.circuit = &parsed.value();
  borrowed.device_obj = &dev;
  borrowed.options.compute_latency = true;

  CompileResponse from_ptr = service.execute(borrowed);
  CompileResponse from_text = service.execute(bell_request());
  ASSERT_TRUE(from_ptr.ok()) << from_ptr.error_message;
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(mapping_metrics_json(from_ptr).to_string(),
            mapping_metrics_json(from_text).to_string());
}

// ---------------------------------------------------------------------------
// Cross-request concurrency over one shared cache (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(Service, ConcurrentRequestsShareOneCacheSafely) {
  cache::CompileCache cache{cache::CacheConfig{}};
  ServiceConfig config;
  config.cache = &cache;
  CompileService service(config);

  const char* sources[] = {
      kBellQasm,
      "qreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[2],q[3];\n",
      "qreg q[2];\nrz(pi/4) q[0];\ncx q[0],q[1];\n",
  };
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> failures{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        CompileRequest req;
        req.qasm = sources[(t + i) % 3];
        req.options.compute_latency = true;
        req.pipeline = (i % 2 == 0) ? "direct" : "resilient";
        CompileResponse resp = service.execute(req);
        if (!resp.ok()) failures.fetch_add(1);
        if (resp.cache_hit) hits.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hits.load(), 0);  // the shared cache must actually get warm
  EXPECT_GT(cache.stats().memory_hits, 0u);
}

}  // namespace
}  // namespace qfs::service
