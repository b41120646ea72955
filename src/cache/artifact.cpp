#include "cache/artifact.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace qfs::cache {

namespace {

constexpr char kMagic[4] = {'q', 'f', 's', 'a'};
constexpr std::uint32_t kFormatVersion = 2;
/// Upper bound on the circuit width a payload may declare.
constexpr std::size_t kMaxQubits = std::size_t{1} << 20;
/// Smallest encoded gate: kind byte, one-byte operand count, one operand.
constexpr std::size_t kMinGateBytes = 1 + 1 + 4;

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

/// Appends little-endian fixed-width fields and LEB128 counts.
class Encoder {
 public:
  explicit Encoder(std::size_t capacity) { out_.reserve(capacity); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le<4>(v); }
  void i32(int v) { le<4>(static_cast<std::uint32_t>(v)); }
  void f64(double v) { le<8>(std::bit_cast<std::uint64_t>(v)); }
  void count(std::size_t n) {
    for (; n >= 0x80; n >>= 7) u8(static_cast<std::uint8_t>(n | 0x80));
    u8(static_cast<std::uint8_t>(n));
  }
  template <typename Ints>
  void ints(const Ints& values) {
    count(values.size());
    for (int v : values) i32(v);
  }
  void text(std::string_view s) {
    count(s.size());
    out_.append(s);
  }
  std::string take() { return std::move(out_); }

 private:
  template <int N>
  void le(std::uint64_t v) {
    char bytes[N];
    for (int i = 0; i < N; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    out_.append(bytes, N);
  }

  std::string out_;
};

/// Bounds-checked reads mirroring Encoder. Every read returns false instead
/// of running past the end; count() also rejects values above 2^32 - 1 and
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
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!le<8>(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }
  bool count(std::size_t& n) {
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
    if (!count(n) || n > remaining() / 4) return false;
    out.resize(n);
    for (int& v : out) i32(v);
    return true;
  }
  bool text(std::string& out) {
    std::size_t n = 0;
    if (!count(n) || n > remaining()) return false;
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

/// Decode one gate and append it, checking everything circuit::make_gate
/// and Circuit::add would assert on first: a cache read must never abort.
qfs::Status decode_gate(Decoder& in, circuit::Circuit& c) {
  std::uint8_t code = 0;
  std::size_t num_operands = 0;
  if (!in.u8(code) || !in.count(num_operands)) return bad("truncated gate list");
  if (code >= circuit::kNumGateKinds) {
    return bad("unknown gate kind " + std::to_string(code));
  }
  circuit::Gate gate;
  gate.kind = static_cast<circuit::GateKind>(code);
  const int arity = circuit::gate_arity(gate.kind);
  if (arity != 0 && num_operands != static_cast<std::size_t>(arity)) {
    return bad("wrong operand count");
  }
  if (gate.kind == circuit::GateKind::kBarrier && num_operands == 0) {
    return bad("empty barrier");
  }
  const auto num_params =
      static_cast<std::size_t>(circuit::gate_param_count(gate.kind));
  if (num_operands > in.remaining() / 4 ||
      in.remaining() - 4 * num_operands < 8 * num_params) {
    return bad("truncated gate list");
  }
  for (std::size_t k = 0; k < num_operands; ++k) {
    int q = 0;
    in.i32(q);
    if (q < 0 || q >= c.num_qubits()) return bad("qubit operand out of range");
    gate.qubits.push_back(q);
  }
  if (!circuit::operands_distinct(gate.qubits)) {
    return bad("repeated qubit operand");
  }
  for (std::size_t k = 0; k < num_params; ++k) {
    double p = 0.0;
    in.f64(p);
    gate.params.push_back(p);
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
  // An upper bound for one- and two-qubit gates with at most one angle; the
  // string grows past it only for wider gates and u3.
  Encoder out(64 + mapped.name().size() + 18 * mapped.size() +
              4 * (result.initial_layout.size() + result.final_layout.size()));
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kFormatVersion);
  out.count(static_cast<std::size_t>(mapped.num_qubits()));
  out.text(mapped.name());
  out.count(mapped.size());
  for (const auto& g : mapped.gates()) {
    out.u8(static_cast<std::uint8_t>(g.kind));
    out.ints(g.qubits);
    for (double p : g.params) out.f64(p);
  }
  out.ints(result.initial_layout);
  out.ints(result.final_layout);
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
  if (!in.count(num_qubits) || num_qubits > kMaxQubits) {
    return bad("bad qubit count");
  }
  std::string name;
  if (!in.text(name)) return bad("bad circuit name");
  std::size_t num_gates = 0;
  if (!in.count(num_gates) || num_gates > in.remaining() / kMinGateBytes) {
    return bad("bad gate count");
  }

  mapper::MappingResult result;
  result.mapped = circuit::Circuit(static_cast<int>(num_qubits), std::move(name));
  result.mapped.reserve(num_gates);
  for (std::size_t i = 0; i < num_gates; ++i) {
    if (auto s = decode_gate(in, result.mapped); !s.is_ok()) return s;
  }
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
