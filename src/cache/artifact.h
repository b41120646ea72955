// Compilation-artifact serialization: MappingResult <-> cache payload.
//
// A length-prefixed binary format (version 3):
//   - magic "qfsa", then the format version as a little-endian uint32,
//   - the circuit width, then the name with its length prefix,
//   - the angle table: its length, then each distinct angle of the mapped
//     circuit as raw IEEE-754 bits, in order of first appearance,
//   - the gate count, then per gate: one GateKind byte, the operand count
//     for a barrier only (every other kind's arity is implied), the
//     operands as varints, and per parameter the varint index of its angle
//     in the table,
//   - the initial and final layouts, each with its length prefix and its
//     entries as int32,
//   - the 5 int metrics as int32 and the 10 double metrics as raw bits.
// Varints and counts are canonical unsigned LEB128; fixed-width fields are
// little-endian. On Surface-97 an operand or angle index takes one byte, so
// the paper suite's mapped gates cost 3.1 bytes each, 8.2 MB for all 200
// artifacts. Doubles are stored bit for bit, so
// serialize(deserialize(p)) == p and a warm-cache compile reproduces the
// cold run byte for byte — metrics, layouts and the mapped circuit
// included. Deserialization never asserts on malformed bytes: every
// violation comes back as a parse_error Status, which callers treat as a
// cache miss (recompute and overwrite). The violations are a bad magic or
// version, a read past the end, a count larger than the bytes left, an
// overlong varint, an unknown kind, an empty barrier, an out-of-range or
// repeated qubit, a repeated or unused table entry, an angle index past
// the table or ahead of first-reference order, and trailing bytes.
#pragma once

#include <optional>
#include <string>

#include "cache/cache.h"
#include "mapper/pipeline.h"
#include "support/hash.h"
#include "support/status.h"

namespace qfs::cache {

std::string serialize_mapping_result(const mapper::MappingResult& result);

qfs::StatusOr<mapper::MappingResult> deserialize_mapping_result(
    const std::string& payload);

/// hash128 over every field of `result` (name, width, each gate's kind,
/// operands and parameter bits, both layouts, every metric's bits), fed
/// field by field in a fixed little-endian layout of its own. Equal digests
/// mean equal artifacts whatever the payload encoding, so goldens pinned on
/// it survive a change of the cache format.
qfs::Hash128 artifact_digest(const mapper::MappingResult& result);

/// Cache-aware convenience: lookup + decode. A payload that fails decoding
/// is counted corrupt and reported as a miss.
std::optional<mapper::MappingResult> load_mapping(CompileCache& cache,
                                                  const Fingerprint& key);

/// Encode + store.
void store_mapping(CompileCache& cache, const Fingerprint& key,
                   const mapper::MappingResult& result);

}  // namespace qfs::cache
