// Cache-key derivation: stable fingerprints over canonical text.
//
// A compilation artifact is addressed by a 128-bit digest of everything
// that can change its bytes:
//   - the canonical QASM text of the input circuit (print->parse->print is
//     a fixed point, pinned by tests/qasm_roundtrip_test.cpp),
//   - the full device configuration (topology, gate set, calibration /
//     error model, control groups),
//   - the pass-pipeline configuration (placer, router, SABRE rounds,
//     explicit layout, latency computation) and the RNG seed,
//   - kCacheVersionSalt, bumped whenever compiler output or the artifact
//     format changes incompatibly.
// Fields are length-prefixed before hashing so no two field sequences can
// collide by concatenation.
#pragma once

#include <string>
#include <string_view>

#include "cache/cache.h"
#include "device/device.h"
#include "mapper/pipeline.h"

namespace qfs::cache {

/// Version salt folded into every cache key and printed by `qfsc --version`.
/// Bump the suffix to invalidate all previously stored artifacts.
inline constexpr std::string_view kCacheVersionSalt = "qfs-compile-cache-v3";

/// Accumulates tagged, length-prefixed fields into one digest.
class FingerprintBuilder {
 public:
  FingerprintBuilder& field(std::string_view tag, std::string_view value);
  Fingerprint finish() const { return hasher_.finish(); }

 private:
  qfs::Hasher hasher_;
};

/// Deterministic full rendering of a device: name, topology edge list,
/// gate-set kinds, effective per-qubit/per-edge fidelities (calibration
/// overrides included), durations, coherence times and control groups.
std::string canonical_device_text(const device::Device& device);

/// Deterministic rendering of the mapping pipeline configuration.
std::string canonical_options_text(const mapper::MappingOptions& options);

/// The cache key of one compile: canonical circuit text x device x options
/// x seed x version salt.
Fingerprint compile_fingerprint(std::string_view canonical_qasm,
                                const device::Device& device,
                                const mapper::MappingOptions& options,
                                std::uint64_t seed,
                                std::string_view salt = kCacheVersionSalt);

}  // namespace qfs::cache
