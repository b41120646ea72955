// The two-tier compilation cache, end to end: fingerprint sensitivity,
// artifact round-trips, cold/warm suite runs with byte-identical output,
// exact counters under a parallel fan-out, LRU eviction, and the
// corruption contract (a damaged entry is a recorded miss, never a crash).
#include "cache/cache.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backends/registry.h"
#include "cache/artifact.h"
#include "cache/fingerprint.h"
#include "cache/memo.h"
#include "common.h"
#include "device/calibration.h"
#include "device/device.h"
#include "device/faults.h"
#include "gtest/gtest.h"
#include "mapper/pipeline.h"
#include "qasm/writer.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qfs::cache {
namespace {

namespace fs = std::filesystem;

// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("qfs_cache_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Fingerprint test_key(std::string_view tag) {
  return qfs::hash128(tag);
}

// The small suite the cold/warm tests compile: 40 distinct circuits (so
// every fingerprint is unique and hit/miss counts are exact even when the
// compiles race).
bench::SuiteRunConfig small_suite_config(CompileCache* cache, int jobs = 1) {
  bench::SuiteRunConfig config;
  config.jobs = jobs;
  config.cache = cache;
  config.suite.random_count = 20;
  config.suite.real_count = 15;
  config.suite.reversible_count = 5;
  config.suite.max_qubits = 17;
  config.suite.max_gates = 300;
  return config;
}

TEST(FingerprintTest, HugeAnglesKeepDistinctKeys) {
  // The key hashes the canonical QASM text, so a large angle must be spelt
  // in full. Cut to 63 characters, rz(1e100) read back as about 1e62, and
  // rz(2^300) and rz(10 * 2^300) (whose digits differ only by a trailing
  // zero) shared one key.
  device::Device dev = device::surface17_device();
  mapper::MappingOptions options;
  auto key = [&](double angle) {
    circuit::Circuit c(1);
    c.rz(angle, 0);
    return compile_fingerprint(qasm::to_qasm(c), dev, options, 2022);
  };
  double truncated = 0.0;
  ASSERT_TRUE(qfs::parse_double(
      "100000000000000001590289110975991804683608085639452813897813275",
      truncated));
  EXPECT_NE(key(1e100), key(truncated));
  EXPECT_NE(key(std::ldexp(1.0, 300)), key(10.0 * std::ldexp(1.0, 300)));
}

/// compile_fingerprint of a fixed circuit on `dev` with the default
/// options and with a non-default set, as hex.
std::vector<std::string> fingerprint_hexes(const device::Device& dev) {
  circuit::Circuit c(3, "golden");
  c.h(0).cx(0, 1).rz(0.25, 2).ccx(0, 1, 2).measure(2);
  const std::string text = qasm::to_qasm(c);
  mapper::MappingOptions other;
  other.placer = "sabre";
  other.router = "lookahead";
  other.sabre_refinement_rounds = 3;
  other.initial_layout = {2, 0, 1};
  other.compute_latency = true;
  return {compile_fingerprint(text, dev, mapper::MappingOptions{}, 2022).hex(),
          compile_fingerprint(text, dev, other, 7331).hex()};
}

device::Device registry_device(const char* spec) {
  auto made = backends::make_device(spec);
  QFS_ASSERT_MSG(made.is_ok(), made.status().to_string());
  return std::move(made).value();
}

// Pins the cache keys themselves: any change to canonical_device_text,
// canonical_options_text or the field framing shows here.
TEST(FingerprintGolden, Surface97) {
  EXPECT_EQ(fingerprint_hexes(registry_device("surface97")),
            (std::vector<std::string>{"ada52423361c5767f69abc0a07f07eff",
                                      "8f579a0341247263f7735b01fe671d4b"}));
}

TEST(FingerprintGolden, HeavyHex13x29) {
  EXPECT_EQ(fingerprint_hexes(registry_device("heavy_hex(rows=13,cols=29)")),
            (std::vector<std::string>{"161ac3106b3e86ad584b6e0dd9b88818",
                                      "7b339352739d1da2bda1f5a04516f419"}));
}

TEST(FingerprintGolden, CalibrationFile) {
  device::Device dev = registry_device("surface17");
  std::ifstream in(std::string(QFS_TESTDATA_DIR) +
                   "/long_durations_calibration.txt");
  std::ostringstream text;
  text << in.rdbuf();
  auto model = device::parse_calibration(text.str(), dev.num_qubits());
  ASSERT_TRUE(model.is_ok()) << model.status().to_string();
  dev.mutable_error_model() = model.value();
  EXPECT_EQ(fingerprint_hexes(dev),
            (std::vector<std::string>{"2f8d46b05509a6c8e9b490cd1f8114f4",
                                      "7b2ccf62b5c0cb6861802f000afc9e7f"}));
}

TEST(FingerprintGolden, FaultInjectedDevice) {
  auto spec =
      device::parse_fault_spec("dead_edge_fraction=0.1;drift=0.02;seed=7");
  ASSERT_TRUE(spec.is_ok());
  auto degraded = device::FaultInjector(std::move(spec).value())
                      .apply(registry_device("surface97"));
  ASSERT_TRUE(degraded.is_ok());
  EXPECT_EQ(fingerprint_hexes(degraded.value().device),
            (std::vector<std::string>{"423ca688c769be529fd89c4a77bfb154",
                                      "5167adeeb4fa9e92afb1b2efb2ce6b2e"}));
}

TEST(FingerprintTest, StableAndSensitive) {
  device::Device dev = device::surface17_device();
  mapper::MappingOptions options;
  const std::string qasm_text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n";

  Fingerprint base = compile_fingerprint(qasm_text, dev, options, 2022);
  EXPECT_EQ(base, compile_fingerprint(qasm_text, dev, options, 2022));

  // Every key ingredient perturbs the digest.
  EXPECT_NE(base, compile_fingerprint(qasm_text + " ", dev, options, 2022));
  EXPECT_NE(base, compile_fingerprint(qasm_text, device::surface7_device(),
                                      options, 2022));
  mapper::MappingOptions other = options;
  other.placer = "annealing";
  EXPECT_NE(base, compile_fingerprint(qasm_text, dev, other, 2022));
  EXPECT_NE(base, compile_fingerprint(qasm_text, dev, options, 2023));
  EXPECT_NE(base,
            compile_fingerprint(qasm_text, dev, options, 2022, "other-salt"));

  // Calibration overrides change the effective error model, hence the key.
  device::Device recalibrated = dev;
  recalibrated.mutable_error_model().set_qubit_fidelity(0, 0.9);
  EXPECT_NE(base, compile_fingerprint(qasm_text, recalibrated, options, 2022));
  // Overriding an edge absent from the coupling graph is a no-op for
  // compilation, so it must be a no-op for the key too.
  device::Device unchanged = dev;
  unchanged.mutable_error_model().set_edge_fidelity(0, 1, 0.5);
  EXPECT_EQ(base, compile_fingerprint(qasm_text, unchanged, options, 2022));
}

TEST(FingerprintTest, BackendSpecDistinguishesIdenticalHardware) {
  // Two devices that agree on every hashed hardware dimension (topology,
  // gate set, calibration, control groups) but carry different registry
  // specs must key differently — the canonical spec line is what makes
  // cross-backend collisions impossible by construction.
  auto made = backends::make_device("grid(rows=4,cols=5)");
  ASSERT_TRUE(made.is_ok());
  const device::Device& a = made.value();
  device::Device b = a;
  b.set_spec("neutral_atom(rows=4,cols=5,radius=1)");
  mapper::MappingOptions options;
  const std::string qasm_text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n";
  EXPECT_NE(compile_fingerprint(qasm_text, a, options, 2022),
            compile_fingerprint(qasm_text, b, options, 2022));
}

TEST(FingerprintTest, ZooBackendsNeverCollide) {
  // Same circuit, options and seed on every zoo backend: pairwise-distinct
  // cache keys (different devices can never serve each other's artifacts).
  const char* specs[] = {
      "surface17",
      "heavyhex27",
      "heavy_hex(rows=3,cols=9)",
      "sycamore(rows=5,cols=4)",
      "trapped_ion(ions=20)",
      "neutral_atom(rows=4,cols=5,radius=1.5)",
      "neutral_atom(rows=4,cols=5,radius=2)",
      "grid(rows=4,cols=5)",
      "full(n=20)",
  };
  mapper::MappingOptions options;
  const std::string qasm_text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n";
  std::vector<Fingerprint> keys;
  for (const char* spec : specs) {
    auto dev = backends::make_device(spec);
    ASSERT_TRUE(dev.is_ok()) << spec;
    keys.push_back(compile_fingerprint(qasm_text, dev.value(), options, 2022));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << specs[i] << " vs " << specs[j];
    }
  }
}

TEST(FingerprintTest, FieldsAreLengthPrefixed) {
  // ("ab","c") must not collide with ("a","bc") by concatenation.
  FingerprintBuilder a, b;
  a.field("t", "ab").field("t", "c");
  b.field("t", "a").field("t", "bc");
  EXPECT_NE(a.finish(), b.finish());
}

TEST(AttemptFingerprintTest, DistinctPerAttemptAndBase) {
  Fingerprint base1 = test_key("base1");
  Fingerprint base2 = test_key("base2");
  EXPECT_EQ(attempt_fingerprint(base1, "trivial|trivial|2022"),
            attempt_fingerprint(base1, "trivial|trivial|2022"));
  EXPECT_NE(attempt_fingerprint(base1, "trivial|trivial|2022"),
            attempt_fingerprint(base1, "trivial|lookahead|2022"));
  EXPECT_NE(attempt_fingerprint(base1, "trivial|trivial|2022"),
            attempt_fingerprint(base2, "trivial|trivial|2022"));
}

TEST(ArtifactTest, MappingResultRoundTripsExactly) {
  device::Device dev = device::surface17_device();
  Rng rng(2022);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 2;
  suite_opts.real_count = 2;
  suite_opts.reversible_count = 1;
  suite_opts.max_qubits = 17;
  suite_opts.max_gates = 120;
  auto suite = workloads::make_suite(suite_opts, rng);
  mapper::MappingOptions options;
  options.compute_latency = true;
  for (const auto& b : suite) {
    Rng map_rng(7);
    mapper::MappingResult result =
        mapper::map_circuit(b.circuit, dev, options, map_rng);
    std::string payload = serialize_mapping_result(result);
    auto decoded = deserialize_mapping_result(payload);
    ASSERT_TRUE(decoded.is_ok()) << b.name << ": "
                                 << decoded.status().to_string();
    // Exact fixed point: re-serializing reproduces the payload byte for
    // byte, which is what makes warm suite runs byte-identical.
    EXPECT_EQ(serialize_mapping_result(decoded.value()), payload) << b.name;
    EXPECT_EQ(artifact_digest(decoded.value()), artifact_digest(result))
        << b.name;
    EXPECT_EQ(qasm::to_qasm(decoded.value().mapped),
              qasm::to_qasm(result.mapped))
        << b.name;
  }
}

/// Decoding arbitrary bytes must give an error Status or an artifact that
/// re-encodes to exactly those bytes, and must never trip an assertion.
void expect_error_or_fixed_point(const std::string& bytes,
                                 const std::string& what) {
  try {
    auto decoded = deserialize_mapping_result(bytes);
    if (decoded.is_ok()) {
      EXPECT_EQ(serialize_mapping_result(decoded.value()), bytes) << what;
    }
  } catch (const qfs::AssertionError& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

TEST(ArtifactTest, MalformedPayloadsAreErrorsNotCrashes) {
  // A real compiled artifact, plus a wide barrier and a three-angle gate so
  // every gate shape of the format is in the bytes being damaged.
  device::Device dev = device::surface17_device();
  Rng rng(11);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 1;
  suite_opts.real_count = 0;
  suite_opts.reversible_count = 0;
  suite_opts.max_qubits = 6;
  suite_opts.max_gates = 30;
  auto suite = workloads::make_suite(suite_opts, rng);
  ASSERT_EQ(suite.size(), 1u);
  mapper::MappingOptions options;
  options.compute_latency = true;
  Rng map_rng(7);
  mapper::MappingResult result =
      mapper::map_circuit(suite[0].circuit, dev, options, map_rng);
  result.mapped.barrier({0, 1, 2, 3, 4});
  result.mapped.u3(0.1, -0.2, 0.3, 5);
  const std::string payload = serialize_mapping_result(result);
  ASSERT_TRUE(deserialize_mapping_result(payload).is_ok());

  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(deserialize_mapping_result(payload.substr(0, n)).is_ok())
        << "prefix of " << n << " bytes";
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string flipped = payload;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      expect_error_or_fixed_point(flipped, "byte " + std::to_string(i) +
                                               " ^ " + std::to_string(mask));
    }
  }
  // The text payloads of format version 1 are not artifacts any more.
  for (const char* text : {"", "not-an-artifact", "qfs-artifact 1\n",
                           "qfs-artifact 1\nqubits 3\nname x\ngates 0\n"}) {
    EXPECT_FALSE(deserialize_mapping_result(text).is_ok()) << text;
  }
}

TEST(ArtifactTest, HandcraftedMalformedPayloadsAreErrors) {
  // Three qubits named "t": cx(0, 1), rz(0.5, 2), rz(0.25, 2). Byte offsets
  // of that payload: magic [0, 4), version [4, 8), width [8], name length
  // [9], name [10], angle count [11], angles [12, 20) and [20, 28), gate
  // count [28], cx kind [29] and operands [30, 32), the first rz's kind
  // [32], operand [33] and angle index [34], the second rz's [35, 38).
  mapper::MappingResult result;
  result.mapped = circuit::Circuit(3, "t");
  result.mapped.cx(0, 1).rz(0.5, 2).rz(0.25, 2);
  const std::string good = serialize_mapping_result(result);
  ASSERT_TRUE(deserialize_mapping_result(good).is_ok());
  ASSERT_EQ(good[11], 2);
  ASSERT_EQ(good[28], 3);
  ASSERT_EQ(good[29], static_cast<char>(circuit::GateKind::kCx));
  ASSERT_EQ(good[31], 1);
  ASSERT_EQ(good[32], static_cast<char>(circuit::GateKind::kRz));
  ASSERT_EQ(good[34], 0);
  ASSERT_EQ(good[37], 1);

  auto patched = [&good](std::size_t at, char byte) {
    std::string bytes = good;
    bytes[at] = byte;
    return bytes;
  };
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"kind byte == kNumGateKinds",
       patched(29, static_cast<char>(circuit::kNumGateKinds))},
      // 2^31 as a five-byte LEB128 count in place of the one-byte count 3.
      {"gate count 2^31",
       good.substr(0, 28) + std::string("\x80\x80\x80\x80\x08", 5) +
           good.substr(29)},
      {"out-of-range qubit", patched(31, 3)},
      {"repeated operand", patched(31, 0)},
      {"empty barrier",
       good.substr(0, 29) +
           std::string{static_cast<char>(circuit::GateKind::kBarrier), 0} +
           good.substr(32)},
      {"trailing bytes", good + std::string(1, '\0')},
      {"version 1", patched(4, 1)},
      {"version 2", patched(4, 2)},
      {"angle index past the table", patched(37, 2)},
      {"angle index ahead of its first reference", patched(34, 1)},
      {"repeated table entry",
       good.substr(0, 20) + good.substr(12, 8) + good.substr(28)},
      {"unused table entry", patched(37, 0)},
      // Operand 1 as the two-byte 0x81 0x00.
      {"overlong operand varint",
       good.substr(0, 31) + std::string("\x81\x00", 2) + good.substr(32)},
  };
  for (const auto& c : cases) {
    try {
      EXPECT_FALSE(deserialize_mapping_result(c.bytes).is_ok()) << c.what;
    } catch (const qfs::AssertionError& e) {
      ADD_FAILURE() << c.what << ": " << e.what();
    }
  }
}

TEST(ArtifactTest, PayloadIsCompact) {
  // Surface-97's operands fit in one byte, and a lowered circuit repeats a
  // few angles, so a mapped gate costs a kind byte, its operands and about
  // one byte per angle index.
  device::Device dev = device::surface97_device();
  Rng rng(2022);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 4;
  suite_opts.real_count = 4;
  suite_opts.reversible_count = 2;
  suite_opts.max_qubits = 40;
  suite_opts.max_gates = 2000;
  auto suite = workloads::make_suite(suite_opts, rng);
  mapper::MappingOptions options;
  options.placer = "degree-match";
  options.router = "lookahead";
  std::size_t payload_bytes = 0;
  std::size_t mapped_gates = 0;
  for (const auto& b : suite) {
    Rng map_rng(7);
    const mapper::MappingResult result =
        mapper::map_circuit(b.circuit, dev, options, map_rng);
    payload_bytes += serialize_mapping_result(result).size();
    mapped_gates += result.mapped.size();
  }
  ASSERT_GT(mapped_gates, 1000u);
  const double per_gate = static_cast<double>(payload_bytes) /
                          static_cast<double>(mapped_gates);
  EXPECT_LE(per_gate, 4.0) << payload_bytes << " bytes for " << mapped_gates
                           << " mapped gates";
}

TEST(CompileCacheTest, MemoryOnlyStoreAndLookup) {
  CompileCache cache(CacheConfig{});  // no disk tier
  Fingerprint key = test_key("k");
  EXPECT_EQ(cache.entry_path(key), "");
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, "payload-bytes");
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  auto snap = cache.stats();
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.memory_hits, 1u);
  EXPECT_EQ(snap.stores, 1u);
}

TEST(CompileCacheTest, DiskTierSurvivesProcessRestart) {
  std::string dir = fresh_dir("restart");
  Fingerprint key = test_key("persisted");
  {
    CompileCache cache(CacheConfig{dir});
    cache.store(key, "persisted-payload");
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
  }
  // A new instance on the same directory models a new process: the memory
  // tier is cold, the disk tier hits.
  CompileCache cache(CacheConfig{dir});
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "persisted-payload");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  // The disk hit was promoted: the next lookup is a memory hit.
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(CompileCacheTest, LruEvictsUnderByteBudget) {
  CacheConfig config;
  config.memory_budget_bytes = 4096;
  config.shards = 1;  // one shard makes the LRU order fully observable
  CompileCache cache(config);
  const std::string payload(1024, 'p');
  for (int i = 0; i < 8; ++i) {
    cache.store(test_key("evict" + std::to_string(i)), payload);
  }
  auto snap = cache.stats();
  EXPECT_GE(snap.evictions, 4u);
  // The oldest entries are gone (memory-only cache: eviction means miss)...
  EXPECT_FALSE(cache.lookup(test_key("evict0")).has_value());
  // ...while the most recent survive.
  EXPECT_TRUE(cache.lookup(test_key("evict7")).has_value());
}

TEST(CompileCacheTest, EvictedEntriesStillHitDisk) {
  std::string dir = fresh_dir("evict_disk");
  CacheConfig config;
  config.disk_dir = dir;
  config.memory_budget_bytes = 2048;
  config.shards = 1;
  CompileCache cache(config);
  const std::string payload(1024, 'q');
  for (int i = 0; i < 6; ++i) {
    cache.store(test_key("spill" + std::to_string(i)), payload);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  auto hit = cache.lookup(test_key("spill0"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(CompileCacheTest, TruncatedEntryIsARecordedMissAndRecoverable) {
  std::string dir = fresh_dir("truncated");
  CacheConfig config;
  config.disk_dir = dir;
  config.memory_budget_bytes = 0;  // disk-only: no memory tier to mask it
  CompileCache cache(config);
  Fingerprint key = test_key("truncme");
  cache.store(key, "some payload worth caching");
  std::string path = cache.entry_path(key);
  ASSERT_TRUE(fs::exists(path));

  fs::resize_file(path, 10);  // chop mid-header
  EXPECT_FALSE(cache.lookup(key).has_value());
  auto snap = cache.stats();
  EXPECT_EQ(snap.corrupt_entries, 1u);
  EXPECT_EQ(snap.misses, 1u);

  // The contract is self-healing: re-storing overwrites the damaged entry.
  cache.store(key, "some payload worth caching");
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "some payload worth caching");
}

TEST(CompileCacheTest, GarbageAndMismatchedEntriesAreMisses) {
  std::string dir = fresh_dir("garbage");
  CacheConfig config;
  config.disk_dir = dir;
  config.memory_budget_bytes = 0;
  CompileCache cache(config);

  // Flipped payload byte: digest check fails.
  Fingerprint key = test_key("flipped");
  cache.store(key, "payload-abcdefgh");
  {
    std::fstream f(cache.entry_path(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  EXPECT_FALSE(cache.lookup(key).has_value());

  // An entry file copied under the wrong key: embedded-key check fails.
  Fingerprint other = test_key("other");
  cache.store(other, "other-payload");
  fs::create_directories(fs::path(cache.entry_path(key)).parent_path());
  fs::copy_file(cache.entry_path(other), cache.entry_path(key),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_GE(cache.stats().corrupt_entries, 2u);
}

TEST(CacheSuiteTest, ColdThenWarmIsByteIdenticalWithExactCounters) {
  std::string dir = fresh_dir("suite");
  device::Device dev = device::surface17_device();
  const std::uint64_t kCircuits = 40;

  // Cold: every compile misses, then stores.
  CompileCache cold(CacheConfig{dir});
  auto cold_config = small_suite_config(&cold);
  std::string cold_csv = bench::suite_rows_to_csv(bench::run_suite(dev, cold_config));
  auto cold_snap = cold.stats();
  EXPECT_EQ(cold_snap.misses, kCircuits);
  EXPECT_EQ(cold_snap.stores, kCircuits);
  EXPECT_EQ(cold_snap.hits(), 0u);

  // Warm, new instance on the same directory: every compile disk-hits.
  CompileCache warm(CacheConfig{dir});
  auto warm_config = small_suite_config(&warm);
  std::string warm_csv = bench::suite_rows_to_csv(bench::run_suite(dev, warm_config));
  auto warm_snap = warm.stats();
  EXPECT_EQ(warm_snap.disk_hits, kCircuits);
  EXPECT_EQ(warm_snap.misses, 0u);
  EXPECT_EQ(cold_csv, warm_csv);

  // Warm again on the *same* instance: the memory tier answers.
  std::string memory_csv =
      bench::suite_rows_to_csv(bench::run_suite(dev, warm_config));
  EXPECT_EQ(warm.stats().memory_hits, kCircuits);
  EXPECT_EQ(cold_csv, memory_csv);
}

TEST(CacheSuiteTest, CountersExactUnderParallelJobs) {
  // The acceptance contract: counters are exact under --jobs 8 because all
  // 40 suite circuits have distinct fingerprints (no same-key races).
  std::string dir = fresh_dir("parallel");
  device::Device dev = device::surface17_device();
  const std::uint64_t kCircuits = 40;

  CompileCache cold(CacheConfig{dir});
  auto cold_config = small_suite_config(&cold, /*jobs=*/8);
  std::string cold_csv = bench::suite_rows_to_csv(bench::run_suite(dev, cold_config));
  EXPECT_EQ(cold.stats().misses, kCircuits);
  EXPECT_EQ(cold.stats().stores, kCircuits);

  CompileCache warm(CacheConfig{dir});
  auto warm_config = small_suite_config(&warm, /*jobs=*/8);
  std::string warm_csv = bench::suite_rows_to_csv(bench::run_suite(dev, warm_config));
  EXPECT_EQ(warm.stats().disk_hits, kCircuits);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().corrupt_entries, 0u);
  EXPECT_EQ(cold_csv, warm_csv);
}

TEST(AttemptMemoTest, ResilientCompileReusesMemoizedAttempts) {
  device::Device dev = device::surface17_device();
  Rng rng(3);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 1;
  suite_opts.real_count = 1;
  suite_opts.reversible_count = 0;
  suite_opts.max_qubits = 10;
  suite_opts.max_gates = 80;
  auto suite = workloads::make_suite(suite_opts, rng);

  CompileCache cache(CacheConfig{});
  for (const auto& b : suite) {
    mapper::ResilientOptions resilient;
    resilient.base.compute_latency = true;
    Fingerprint base = compile_fingerprint(qasm::to_qasm(b.circuit), dev,
                                           resilient.base, resilient.seed);
    mapper::AttemptMemo memo = make_attempt_memo(cache, base);
    resilient.memo = &memo;

    auto first = mapper::compile_resilient(b.circuit, dev, resilient);
    ASSERT_TRUE(first.is_ok()) << b.name;
    auto again = mapper::compile_resilient(b.circuit, dev, resilient);
    ASSERT_TRUE(again.is_ok()) << b.name;
    // The memoized attempt reproduces the fresh compile exactly.
    EXPECT_EQ(qasm::to_qasm(again.value().mapping.mapped),
              qasm::to_qasm(first.value().mapping.mapped))
        << b.name;
  }
  auto snap = cache.stats();
  EXPECT_EQ(snap.stores, 2u);       // one successful attempt per circuit
  EXPECT_EQ(snap.memory_hits, 2u);  // each re-compile hits its memo
}

TEST(AttemptMemoTest, CorruptMemoEntryFallsBackToFreshCompile) {
  device::Device dev = device::surface17_device();
  Rng rng(5);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 1;
  suite_opts.real_count = 0;
  suite_opts.reversible_count = 0;
  suite_opts.max_qubits = 8;
  suite_opts.max_gates = 60;
  auto suite = workloads::make_suite(suite_opts, rng);
  ASSERT_EQ(suite.size(), 1u);
  const auto& b = suite[0];

  CompileCache cache(CacheConfig{});
  mapper::ResilientOptions resilient;
  resilient.base.compute_latency = true;
  Fingerprint base = compile_fingerprint(qasm::to_qasm(b.circuit), dev,
                                         resilient.base, resilient.seed);
  mapper::AttemptMemo memo = make_attempt_memo(cache, base);
  resilient.memo = &memo;

  auto first = mapper::compile_resilient(b.circuit, dev, resilient);
  ASSERT_TRUE(first.is_ok());

  // Overwrite the memoized attempt with undecodable bytes: the next compile
  // must silently fall back to a fresh mapping with the same output.
  std::string attempt_key = resilient.base.placer + "|" +
                            resilient.base.router + "|" +
                            std::to_string(resilient.seed);
  cache.store(attempt_fingerprint(base, attempt_key), "garbage");
  auto again = mapper::compile_resilient(b.circuit, dev, resilient);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(qasm::to_qasm(again.value().mapping.mapped),
            qasm::to_qasm(first.value().mapping.mapped));
  EXPECT_GE(cache.stats().corrupt_entries, 1u);
}

TEST(AttemptMemoTest, SemanticallyCorruptEntryIsARevalidatedMiss) {
  // The nastier corruption class: the payload deserializes cleanly but no
  // longer computes the source circuit. Only hit revalidation through the
  // translation validator (memo.h + analysis/equiv.h) can catch it.
  device::Device dev = device::surface17_device();
  Rng rng(5);
  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 1;
  suite_opts.real_count = 0;
  suite_opts.reversible_count = 0;
  suite_opts.max_qubits = 8;
  suite_opts.max_gates = 60;
  auto suite = workloads::make_suite(suite_opts, rng);
  ASSERT_EQ(suite.size(), 1u);
  const auto& b = suite[0];

  CompileCache cache(CacheConfig{});
  mapper::ResilientOptions resilient;
  resilient.base.compute_latency = true;
  Fingerprint base = compile_fingerprint(qasm::to_qasm(b.circuit), dev,
                                         resilient.base, resilient.seed);
  MemoValidation validation;
  validation.source = &b.circuit;
  validation.device = &dev;
  mapper::AttemptMemo memo = make_attempt_memo(cache, base, validation);
  resilient.memo = &memo;

  auto first = mapper::compile_resilient(b.circuit, dev, resilient);
  ASSERT_TRUE(first.is_ok());
  const auto baseline = cache.stats();

  // Corrupt the stored artifact semantically: drop the mapped circuit's
  // last gate. The serialization stays perfectly parseable.
  std::string attempt_key = resilient.base.placer + "|" +
                            resilient.base.router + "|" +
                            std::to_string(resilient.seed);
  Fingerprint key = attempt_fingerprint(base, attempt_key);
  auto stored = load_mapping(cache, key);
  ASSERT_TRUE(stored.has_value());
  circuit::Circuit truncated(stored->mapped.num_qubits(),
                             stored->mapped.name());
  for (std::size_t i = 0; i + 1 < stored->mapped.gates().size(); ++i) {
    truncated.add(stored->mapped.gates()[i]);
  }
  stored->mapped = truncated;
  store_mapping(cache, key, *stored);
  ASSERT_TRUE(load_mapping(cache, key).has_value())
      << "corruption must survive a plain (unvalidated) load";

  // The next compile revalidates the hit, records the corruption, and
  // degrades to a fresh compile with the original output.
  auto again = mapper::compile_resilient(b.circuit, dev, resilient);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(qasm::to_qasm(again.value().mapping.mapped),
            qasm::to_qasm(first.value().mapping.mapped));
  auto snap = cache.stats();
  EXPECT_EQ(snap.corrupt_entries, baseline.corrupt_entries + 1);
  // Two stores since the baseline: the corruption write above, then the
  // fresh compile re-storing a good artifact over it.
  EXPECT_EQ(snap.stores, baseline.stores + 2);

  // And the re-store healed the cache: one more compile is a clean hit.
  auto healed = mapper::compile_resilient(b.circuit, dev, resilient);
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(cache.stats().corrupt_entries, snap.corrupt_entries);
  EXPECT_GT(cache.stats().memory_hits, snap.memory_hits);
}

}  // namespace
}  // namespace qfs::cache
