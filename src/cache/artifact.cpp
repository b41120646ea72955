#include "cache/artifact.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace qfs::cache {

namespace {

constexpr char kMagic[4] = {'q', 'f', 's', 'a'};
constexpr std::uint32_t kFormatVersion = 3;
/// Upper bound on the circuit width a payload may declare.
constexpr std::size_t kMaxQubits = std::size_t{1} << 20;
/// Smallest encoded gate: kind byte and one one-byte operand.
constexpr std::size_t kMinGateBytes = 2;
/// Longest varint: 7 bits per byte up to 2^32 - 1.
constexpr std::size_t kMaxVarintBytes = 5;
/// Most bytes of a gate other than a barrier: kind byte, three operands and
/// three angle indices.
constexpr std::size_t kMaxNarrowGateBytes = 1 + 6 * kMaxVarintBytes;
/// Expected bytes per gate, to size the encoder's buffer: one kind byte and
/// one byte for each operand and angle index of a one- or two-qubit gate.
constexpr std::size_t kTypicalGateBytes = 4;

static_assert(sizeof(int) == 4, "artifacts store int fields as int32");

/// The integer and double metrics in payload (and digest) order.
template <class Result>
auto int_metrics(Result& r) {
  return std::array{&r.swaps_inserted, &r.gates_before, &r.gates_after,
                    &r.depth_before, &r.depth_after};
}
template <class Result>
auto double_metrics(Result& r) {
  return std::array{&r.gate_overhead_pct,     &r.depth_overhead_pct,
                    &r.fidelity_before,       &r.fidelity_after,
                    &r.log_fidelity_before,   &r.log_fidelity_after,
                    &r.fidelity_decrease_pct, &r.latency_before_ns,
                    &r.latency_after_ns,      &r.latency_overhead_pct};
}

/// The distinct angles of one artifact by exact bits, numbered in order of
/// first appearance: an open-addressing hash set of indices into the
/// angles themselves.
class AngleTable {
 public:
  AngleTable() : slots_(kInitialSlots, kEmpty) {}

  /// The number of `bits`, appending it as the next one when it is new.
  std::uint32_t index(std::uint64_t bits) {
    for (std::size_t i = slot_of(bits);; i = (i + 1) & (slots_.size() - 1)) {
      const std::uint32_t at = slots_[i];
      if (at == kEmpty) {
        const auto added = static_cast<std::uint32_t>(bits_.size());
        bits_.push_back(bits);
        slots_[i] = added;
        if (2 * bits_.size() > slots_.size()) grow();
        return added;
      }
      if (bits_[at] == bits) return at;
    }
  }

  /// The angles' bits in index order.
  const std::vector<std::uint64_t>& bits() const { return bits_; }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  std::size_t slot_of(std::uint64_t bits) const {
    // Fibonacci hashing: the top bits of the product, as many as the table
    // has slots.
    const int shift = 64 - std::countr_zero(slots_.size());
    return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >> shift);
  }
  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    for (std::uint32_t k = 0; k < bits_.size(); ++k) {
      std::size_t i = slot_of(bits_[k]);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = k;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> bits_;
};

char* put_varint(char* p, std::uint64_t n) {
  for (; n >= 0x80; n >>= 7) *p++ = static_cast<char>(n | 0x80);
  *p++ = static_cast<char>(n);
  return p;
}

/// Writes little-endian fixed-width fields and LEB128 varints into a
/// buffer sized up front. Callers reserve room() before each write that
/// could pass its end; take() trims the buffer to what was written.
class Encoder {
 public:
  explicit Encoder(std::size_t capacity)
      : out_(capacity, '\0'), p_(out_.data()) {}

  std::size_t size() const { return static_cast<std::size_t>(p_ - out_.data()); }
  void room(std::size_t n) {
    const std::size_t used = size();
    if (out_.size() - used < n) {
      out_.resize(std::max(2 * out_.size(), used + n));
      p_ = out_.data() + used;
    }
  }
  void u8(std::uint8_t v) { *p_++ = static_cast<char>(v); }
  void u32(std::uint32_t v) { le<4>(v); }
  void i32(int v) { le<4>(static_cast<std::uint32_t>(v)); }
  void f64(double v) { le<8>(std::bit_cast<std::uint64_t>(v)); }
  void varint(std::uint64_t n) { p_ = put_varint(p_, n); }
  /// One gate: its kind byte, a barrier's operand count, the operands, and
  /// the table index of each angle. Writes through a local cursor, so the
  /// compiler keeps it in a register across the byte stores.
  void gate(const circuit::Gate& g, AngleTable& angles) {
    const bool barrier = g.kind == circuit::GateKind::kBarrier;
    room(barrier ? kMaxVarintBytes * (1 + g.qubits.size()) + 1
                 : kMaxNarrowGateBytes);
    char* p = p_;
    *p++ = static_cast<char>(g.kind);
    if (barrier) p = put_varint(p, g.qubits.size());
    for (int q : g.qubits) p = put_varint(p, static_cast<std::uint32_t>(q));
    for (double v : g.params) {
      p = put_varint(p, angles.index(std::bit_cast<std::uint64_t>(v)));
    }
    p_ = p;
  }
  template <typename Ints>
  void ints(const Ints& values) {
    room(kMaxVarintBytes + 4 * values.size());
    varint(values.size());
    for (int v : values) i32(v);
  }
  void text(std::string_view s) {
    room(kMaxVarintBytes + s.size());
    varint(s.size());
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  /// Inserts `bytes` at offset `at`, moving what was written after it.
  void insert(std::size_t at, std::string_view bytes) {
    const std::size_t used = size();
    room(bytes.size());
    char* to = out_.data() + at;
    std::memmove(to + bytes.size(), to, used - at);
    std::memcpy(to, bytes.data(), bytes.size());
    p_ = out_.data() + used + bytes.size();
  }
  std::string take() {
    out_.resize(size());
    return std::move(out_);
  }

 private:
  template <int N>
  void le(std::uint64_t v) {
    for (int i = 0; i < N; ++i) p_[i] = static_cast<char>(v >> (8 * i));
    p_ += N;
  }

  std::string out_;
  char* p_;
};

/// Bounds-checked reads mirroring Encoder. Every read returns false instead
/// of running past the end; varint() also rejects values above 2^32 - 1 and
/// non-canonical (overlong) encodings, so whatever decodes re-encodes to
/// the same bytes.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes)
      : p_(reinterpret_cast<const unsigned char*>(bytes.data())),
        end_(p_ + bytes.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  bool u8(std::uint8_t& v) {
    if (p_ == end_) return false;
    v = *p_++;
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint64_t raw = 0;
    if (!le<4>(raw)) return false;
    v = static_cast<std::uint32_t>(raw);
    return true;
  }
  bool i32(int& v) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    v = static_cast<int>(raw);
    return true;
  }
  bool u64(std::uint64_t& v) { return le<8>(v); }
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!le<8>(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }
  bool varint(std::size_t& n) {
    if (p_ != end_ && *p_ < 0x80) {  // one byte: every operand on small chips
      n = *p_++;
      return true;
    }
    std::uint64_t value = 0;
    for (int shift = 0; shift < 35; shift += 7) {
      std::uint8_t byte = 0;
      if (!u8(byte)) return false;
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift > 0) return false;  // overlong
        if (value > 0xffffffffu) return false;
        n = static_cast<std::size_t>(value);
        return true;
      }
    }
    return false;  // more than five bytes
  }
  bool ints(std::vector<int>& out) {
    std::size_t n = 0;
    if (!varint(n) || n > remaining() / 4) return false;
    out.resize(n);
    for (int& v : out) i32(v);
    return true;
  }
  bool text(std::string& out) {
    std::size_t n = 0;
    if (!varint(n) || n > remaining()) return false;
    out.assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return true;
  }

 private:
  template <int N>
  bool le(std::uint64_t& v) {
    if (remaining() < N) return false;
    v = 0;
    for (int i = 0; i < N; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    p_ += N;
    return true;
  }

  const unsigned char* p_;
  const unsigned char* end_;
};

qfs::Status bad(const std::string& what) {
  return qfs::parse_error("artifact: " + what);
}

/// The angle table of a payload being decoded, and the canonical-order
/// rule of its indices: each gate may use any angle already referenced, or
/// the first one not referenced yet.
struct DecodedAngles {
  std::vector<double> angles;
  std::size_t referenced = 0;
};

/// Decode one gate and append it, checking everything circuit::make_gate
/// and Circuit::add would assert on first: a cache read must never abort.
qfs::Status decode_gate(Decoder& in, DecodedAngles& table,
                        circuit::Circuit& c) {
  std::uint8_t code = 0;
  if (!in.u8(code)) return bad("truncated gate list");
  if (code >= circuit::kNumGateKinds) {
    return bad("unknown gate kind " + std::to_string(code));
  }
  circuit::Gate gate;
  gate.kind = static_cast<circuit::GateKind>(code);
  auto num_operands = static_cast<std::size_t>(circuit::gate_arity(gate.kind));
  if (num_operands == 0) {  // a barrier: the one kind that stores its count
    if (!in.varint(num_operands)) return bad("bad barrier width");
    if (num_operands == 0) return bad("empty barrier");
    if (num_operands > in.remaining()) return bad("truncated gate list");
  }
  for (std::size_t k = 0; k < num_operands; ++k) {
    std::size_t q = 0;
    if (!in.varint(q)) return bad("bad qubit operand");
    if (q >= static_cast<std::size_t>(c.num_qubits())) {
      return bad("qubit operand out of range");
    }
    gate.qubits.push_back(static_cast<int>(q));
  }
  if (!circuit::operands_distinct(gate.qubits)) {
    return bad("repeated qubit operand");
  }
  for (int k = circuit::gate_param_count(gate.kind); k > 0; --k) {
    std::size_t index = 0;
    if (!in.varint(index)) return bad("bad angle index");
    if (index >= table.angles.size()) return bad("angle index past the table");
    if (index > table.referenced) {
      return bad("angle index ahead of its first reference");
    }
    if (index == table.referenced) ++table.referenced;
    gate.params.push_back(table.angles[index]);
  }
  c.add(std::move(gate));
  return qfs::Status::ok();
}

/// Feeds fixed-width little-endian fields to a Hasher.
class DigestFeed {
 public:
  void u64(std::uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    hasher_.update(bytes, sizeof(bytes));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  template <typename Ints>
  void ints(const Ints& values) {
    u64(values.size());
    for (int v : values) i64(v);
  }
  void text(const std::string& s) {
    u64(s.size());
    hasher_.update(s);
  }
  qfs::Hash128 finish() const { return hasher_.finish(); }

 private:
  qfs::Hasher hasher_;
};

}  // namespace

std::string serialize_mapping_result(const mapper::MappingResult& result) {
  const circuit::Circuit& mapped = result.mapped;
  Encoder out(64 + mapped.name().size() + kTypicalGateBytes * mapped.size() +
              4 * (result.initial_layout.size() + result.final_layout.size()));
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kFormatVersion);
  out.varint(static_cast<std::size_t>(mapped.num_qubits()));
  out.text(mapped.name());
  // One walk numbers the angles and writes the gates; the table goes in
  // front of them afterwards.
  const std::size_t table_at = out.size();
  out.room(kMaxVarintBytes);
  out.varint(mapped.size());
  AngleTable angles;
  for (const auto& g : mapped.gates()) out.gate(g, angles);
  const std::vector<std::uint64_t>& bits = angles.bits();
  Encoder table(kMaxVarintBytes + 8 * bits.size());
  table.varint(bits.size());
  for (std::uint64_t b : bits) table.f64(std::bit_cast<double>(b));
  out.insert(table_at, table.take());
  out.ints(result.initial_layout);
  out.ints(result.final_layout);
  out.room(4 * int_metrics(result).size() + 8 * double_metrics(result).size());
  for (const int* v : int_metrics(result)) out.i32(*v);
  for (const double* v : double_metrics(result)) out.f64(*v);
  return out.take();
}

qfs::StatusOr<mapper::MappingResult> deserialize_mapping_result(
    const std::string& payload) {
  Decoder in(payload);
  std::uint8_t magic[sizeof(kMagic)];
  for (std::uint8_t& byte : magic) {
    if (!in.u8(byte)) return bad("bad magic");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return bad("bad magic");
  std::uint32_t version = 0;
  if (!in.u32(version)) return bad("truncated header");
  if (version != kFormatVersion) {
    return bad("unsupported format version " + std::to_string(version));
  }
  std::size_t num_qubits = 0;
  if (!in.varint(num_qubits) || num_qubits > kMaxQubits) {
    return bad("bad qubit count");
  }
  std::string name;
  if (!in.text(name)) return bad("bad circuit name");

  std::size_t num_angles = 0;
  if (!in.varint(num_angles) || num_angles > in.remaining() / 8) {
    return bad("bad angle table");
  }
  DecodedAngles table;
  table.angles.resize(num_angles);
  AngleTable seen;
  for (std::size_t i = 0; i < num_angles; ++i) {
    std::uint64_t bits = 0;
    in.u64(bits);
    if (seen.index(bits) != i) return bad("repeated angle in the table");
    table.angles[i] = std::bit_cast<double>(bits);
  }

  std::size_t num_gates = 0;
  if (!in.varint(num_gates) || num_gates > in.remaining() / kMinGateBytes) {
    return bad("bad gate count");
  }
  mapper::MappingResult result;
  result.mapped = circuit::Circuit(static_cast<int>(num_qubits), std::move(name));
  result.mapped.reserve(num_gates);
  for (std::size_t i = 0; i < num_gates; ++i) {
    if (auto s = decode_gate(in, table, result.mapped); !s.is_ok()) return s;
  }
  if (table.referenced != num_angles) return bad("unused angle in the table");
  if (!in.ints(result.initial_layout) || !in.ints(result.final_layout)) {
    return bad("bad layout");
  }
  for (int* v : int_metrics(result)) {
    if (!in.i32(*v)) return bad("truncated metrics");
  }
  for (double* v : double_metrics(result)) {
    if (!in.f64(*v)) return bad("truncated metrics");
  }
  if (in.remaining() != 0) return bad("trailing bytes");
  return result;
}

qfs::Hash128 artifact_digest(const mapper::MappingResult& result) {
  DigestFeed feed;
  feed.text(result.mapped.name());
  feed.i64(result.mapped.num_qubits());
  feed.u64(result.mapped.gates().size());
  for (const auto& g : result.mapped.gates()) {
    feed.i64(static_cast<int>(g.kind));
    feed.ints(g.qubits);
    feed.u64(g.params.size());
    for (double p : g.params) feed.f64(p);
  }
  feed.ints(result.initial_layout);
  feed.ints(result.final_layout);
  for (const int* v : int_metrics(result)) feed.i64(*v);
  for (const double* v : double_metrics(result)) feed.f64(*v);
  return feed.finish();
}

std::optional<mapper::MappingResult> load_mapping(CompileCache& cache,
                                                  const Fingerprint& key) {
  auto payload = cache.lookup(key);
  if (!payload) return std::nullopt;
  auto decoded = deserialize_mapping_result(*payload);
  if (!decoded.is_ok()) {
    cache.count_corrupt_payload();
    return std::nullopt;
  }
  return std::move(decoded).value();
}

void store_mapping(CompileCache& cache, const Fingerprint& key,
                   const mapper::MappingResult& result) {
  cache.store(key, serialize_mapping_result(result));
}

}  // namespace qfs::cache
