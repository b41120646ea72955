// Pins the no-heap-per-gate layout of circuit::Gate with a counting global
// operator new: copying, building and appending gates of up to three
// operands allocates nothing; only a barrier wider than that does. Also
// pins that decompose_to_gateset sizes its output once and lowers each
// parameter-free kind once per call, so its allocations do not grow with
// the number of gates it lowers, parametrised ones included; that
// map_circuit frees each intermediate circuit after its last reader, so at
// most the expanded and the lowered routed circuit are live at once; and
// that the lookahead router keeps no more than 1 MiB of scratch after a big
// route; and that qasm::parse and qasm::to_qasm allocate per circuit, not
// per gate.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "analysis/equiv.h"
#include "circuit/circuit.h"
#include "compiler/decompose.h"
#include "device/device.h"
#include "device/gateset.h"
#include "mapper/layout.h"
#include "mapper/pipeline.h"
#include "mapper/routing.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "support/rng.h"

namespace {
std::atomic<long> g_allocations{0};
/// Usable bytes of the blocks now allocated, and the most of them since
/// peak_bytes_in() last reset the mark.
std::atomic<long> g_live_bytes{0};
std::atomic<long> g_peak_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) return nullptr;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<long>(malloc_usable_size(p));
  const long live = g_live_bytes.fetch_add(bytes) + bytes;
  long peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long>(malloc_usable_size(p)));
  std::free(p);
}
}  // namespace

// Not inlined, so the compiler never pairs an inlined malloc with a free.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  counted_free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  counted_free(p);
}
// The array and nothrow forms too: a sanitizer runtime may replace them on
// its own, and every block must be counted by the same pair.
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace qfs::circuit {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
long allocations_in(Fn&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// The most heap bytes live at once while running `fn`, above those live
/// when it starts.
template <typename Fn>
long peak_bytes_in(Fn&& fn) {
  const long before = g_live_bytes.load();
  g_peak_bytes.store(before);
  fn();
  return g_peak_bytes.load() - before;
}

TEST(GateAlloc, CopyingANarrowGateAllocatesNothing) {
  const Gate u3 = make_gate(GateKind::kU3, {4}, {0.1, 0.2, 0.3});
  const Gate ccx = make_gate(GateKind::kCcx, {0, 1, 2});
  Gate copy;
  EXPECT_EQ(allocations_in([&] { copy = u3; }), 0);
  EXPECT_EQ(copy, u3);
  EXPECT_EQ(allocations_in([&] {
              const Gate constructed(ccx);
              copy = constructed;
            }),
            0);
  EXPECT_EQ(copy, ccx);
}

TEST(GateAlloc, MakeGateFromABracedListAllocatesNothing) {
  Gate g;
  EXPECT_EQ(allocations_in(
                [&] { g = make_gate(GateKind::kCphase, {3, 7}, {0.5}); }),
            0);
  EXPECT_EQ(g.qubits.size(), 2u);
  EXPECT_EQ(g.params.front(), 0.5);
}

TEST(GateAlloc, AddIntoAReservedCircuitAllocatesNothing) {
  Circuit c(8);
  c.reserve(4);
  const Gate cx = make_gate(GateKind::kCx, {0, 1});
  EXPECT_EQ(allocations_in([&] {
              c.add(cx);
              c.add(GateKind::kRz, {2}, {0.25});
              c.ccx(3, 4, 5).barrier({6, 7});
            }),
            0);
  EXPECT_EQ(c.size(), 4u);
}

TEST(GateAlloc, WideBarrierAllocates) {
  std::vector<int> all(300);
  std::iota(all.begin(), all.end(), 0);
  Circuit c(300);
  c.reserve(1);
  EXPECT_GE(allocations_in([&] { c.barrier(all); }), 1);
  ASSERT_EQ(c.gates().front().qubits.size(), 300u);
  // A copy holds its own operands: exactly one block.
  Gate copy;
  EXPECT_EQ(allocations_in([&] { copy = c.gates().front(); }), 1);
  EXPECT_EQ(copy, c.gates().front());
}

/// `n` gates cycling through h, t, ccx and swap over scattered qubits of a
/// 16-qubit register.
Circuit h_t_ccx_swap(int n) {
  Circuit c(16);
  c.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int a = (5 * i) % 16;
    const int b = (5 * i + 7) % 16;
    const int t = (5 * i + 11) % 16;
    switch (i % 4) {
      case 0: c.h(a); break;
      case 1: c.t(b); break;
      case 2: c.ccx(a, b, t); break;
      default: c.swap(t, a); break;
    }
  }
  return c;
}

/// h_t_ccx_swap(n) interleaved with rz, cp and u3 at angles that vary from
/// gate to gate. The rules drop some of their rotations (every one at the
/// zero angle each 97th gate gets), so the output falls short of its
/// per-kind bound.
Circuit with_parametrised(int n) {
  const Circuit base = h_t_ccx_swap(n);
  Circuit c(16);
  c.reserve(2 * base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    c.add(base.gates()[i]);
    const double angle = 0.001 * static_cast<double>(i % 97);
    const int q = static_cast<int>(i % 16);
    switch (i % 3) {
      case 0: c.rz(angle, q); break;
      case 1: c.cp(angle, q, (q + 9) % 16); break;
      default: c.u3(angle, 2 * angle, 3 * angle, q); break;
    }
  }
  return c;
}

TEST(GateAlloc, LoweringAllocatesPerKindNotPerGate) {
  for (const device::GateSet& gs :
       {device::surface_code_gateset(), device::ibm_gateset()}) {
    // The native x gates make the small output grow by a smaller factor
    // than the large one, so an output grown by doubling from any size
    // proportional to the input would need more blocks for the large one.
    Circuit small = with_parametrised(64);
    for (std::size_t i = 0, n = 3 * small.size(); i < n; ++i) {
      small.x(static_cast<int>(i % 16));
    }
    const Circuit large = with_parametrised(4096);
    Circuit lowered_small;
    Circuit lowered_large;
    const long small_allocs = allocations_in(
        [&] { lowered_small = compiler::decompose_to_gateset(small, gs); });
    const long large_allocs = allocations_in(
        [&] { lowered_large = compiler::decompose_to_gateset(large, gs); });
    ASSERT_GT(lowered_large.size(), large.size()) << gs.name();
    // Both calls lower the same kinds, so they build the same templates
    // and size bounds, and each sizes its output once.
    EXPECT_EQ(large_allocs, small_allocs)
        << gs.name() << ": " << small_allocs << " allocations for "
        << small.size() << " gates, " << large_allocs << " for "
        << large.size();
  }
}

/// `n` two-qubit gates between qubits far apart on surface97, each
/// followed by an h: the router inserts many SWAPs, and on the CZ set every
/// expanded SWAP lowers to nine gates.
Circuit swap_heavy(int n) {
  Circuit c(97);
  c.reserve(2 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int a = (37 * i) % 97;
    const int b = (a + 48) % 97;
    c.cx(a, b);
    c.h(b);
  }
  return c;
}

TEST(GateAlloc, MapCircuitHoldsTwoBigCircuitsAtATime) {
  const device::Device device = device::surface97_device();
  const Circuit source = swap_heavy(2000);
  mapper::MappingOptions options;
  options.placer = "trivial";
  options.router = "lookahead";
  options.compute_latency = true;
  auto map = [&] {
    qfs::Rng rng(7);
    return mapper::map_circuit(source, device, options, rng);
  };
  // The first call grows the lookahead router's thread-local scratch to
  // this circuit; the measured call reuses it.
  (void)map();
  mapper::MappingResult result;
  const long peak = peak_bytes_in([&] { result = map(); });
  ASSERT_GT(result.swaps_inserted, 1000);
  // The routed circuit is the lowered source plus the SWAPs, and expanding
  // turns each SWAP into three cx. Both of these vectors are sized exactly.
  const auto expanded_gates = static_cast<std::size_t>(
      result.gates_before + 3 * result.swaps_inserted);
  const long circuit_bytes = static_cast<long>(
      (expanded_gates + result.mapped.size()) * sizeof(Gate));
  // Layouts, lowering templates and per-qubit counters.
  constexpr long kSlack = 16 * 1024;
  EXPECT_LE(peak, circuit_bytes + kSlack)
      << "expanded " << expanded_gates << " gates, lowered "
      << result.mapped.size() << ", " << result.swaps_inserted << " swaps";
}

TEST(GateAlloc, RouterReleasesAnOversizedScratch) {
  // 150,000 gates: the router's predecessor counts, successor offsets and
  // emitted flags alone take 9 bytes per gate, 1.35 MB in all. One gate in
  // 25 is a cx between qubits far apart, so the route inserts SWAPs too.
  constexpr int kGates = 150'000;
  constexpr long kRetainedLimit = 1L << 20;
  const device::Device device = device::surface97_device();
  Circuit source(97);
  source.reserve(kGates);
  for (int i = 0; i < kGates; ++i) {
    const int a = (37 * i) % 97;
    if (i % 25 == 0) {
      source.cx(a, (a + 48) % 97);
    } else {
      source.h(a);
    }
  }
  const mapper::LookaheadRouter router;
  const mapper::Layout initial = mapper::Layout::identity(device.num_qubits());
  int swaps = 0;
  const long before = g_live_bytes.load();
  {
    qfs::Rng rng(7);
    swaps = router.route(source, device, initial, rng).swaps_inserted;
  }
  // The routed circuit is gone; what is still live is the scratch.
  const long retained = g_live_bytes.load() - before;
  ASSERT_GT(swaps, 0);
  EXPECT_LE(retained, kRetainedLimit) << retained << " bytes still live";
}

/// h_t_ccx_swap(n) with an rz of a varying angle after every fourth gate.
Circuit with_angles(int n) {
  Circuit c = h_t_ccx_swap(n);
  Circuit out(16, "alloc");
  out.reserve(c.size() + c.size() / 4);
  for (std::size_t i = 0; i < c.size(); ++i) {
    out.add(c.gates()[i]);
    if (i % 4 == 3) out.rz(0.001 * static_cast<double>(i % 97), 3);
  }
  return out;
}

TEST(GateAlloc, ParseAllocatesPerCircuitNotPerGate) {
  const std::string small_text = qasm::to_qasm(with_angles(64));
  const std::string large_text = qasm::to_qasm(with_angles(4096));
  std::size_t large_size = 0;
  const long small_allocs =
      allocations_in([&] { ASSERT_TRUE(qasm::parse(small_text).is_ok()); });
  const long large_allocs = allocations_in([&] {
    auto parsed = qasm::parse(large_text);
    ASSERT_TRUE(parsed.is_ok());
    large_size = parsed.value().size();
  });
  // Only the gate vector may grow with the input, by doubling.
  EXPECT_LE(large_allocs - small_allocs,
            static_cast<long>(std::bit_width(large_size)))
      << small_allocs << " allocations for 64 gates, " << large_allocs
      << " for 4096";
}

TEST(GateAlloc, EmitAllocatesPerCircuitNotPerGate) {
  const Circuit small = with_angles(64);
  const Circuit large = with_angles(4096);
  std::size_t large_size = 0;
  const long small_allocs = allocations_in([&] { (void)qasm::to_qasm(small); });
  const long large_allocs =
      allocations_in([&] { large_size = qasm::to_qasm(large).size(); });
  EXPECT_LE(large_allocs - small_allocs,
            static_cast<long>(std::bit_width(large_size)))
      << small_allocs << " allocations for 64 gates, " << large_allocs
      << " for 4096";
}

/// 200 gates, gate k an h or a t on qubit k % width, as a `width`-qubit
/// circuit mapped onto surface97, with its translation artifact.
struct WidthFixture {
  Circuit source;
  mapper::MappingResult mapping;
  analysis::TranslationArtifact artifact;
};

WidthFixture width_fixture(const device::Device& device, int width) {
  WidthFixture f{Circuit(width, "width"), {}, {}};
  for (int k = 0; k < 200; ++k) {
    if (k % 2 == 0) {
      f.source.h(k % width);
    } else {
      f.source.t(k % width);
    }
  }
  mapper::MappingOptions options;
  options.placer = "trivial";
  options.router = "trivial";
  qfs::Rng rng(7);
  f.mapping = mapper::map_circuit(f.source, device, options, rng);
  f.artifact.mapped = &f.mapping.mapped;
  f.artifact.initial_layout = f.mapping.initial_layout;
  f.artifact.final_layout = f.mapping.final_layout;
  f.artifact.swaps_inserted = f.mapping.swaps_inserted;
  return f;
}

TEST(GateAlloc, ValidatorAllocationsDoNotGrowWithWidth) {
  // The same gates spread over 5 and over 50 virtual qubits: the matcher's
  // per-qubit queues are one CSR array, so the validator allocates as often
  // for either width.
  const device::Device device = device::surface97_device();
  const WidthFixture narrow = width_fixture(device, 5);
  const WidthFixture wide = width_fixture(device, 50);
  ASSERT_EQ(narrow.mapping.mapped.size(), wide.mapping.mapped.size());
  auto validate = [&device](const WidthFixture& f) {
    return allocations_in([&] {
      EXPECT_TRUE(
          analysis::validate_translation(f.source, device, f.artifact).empty());
    });
  };
  (void)validate(narrow);  // warm any lazily built tables
  EXPECT_EQ(validate(wide), validate(narrow));
}

}  // namespace
}  // namespace qfs::circuit
