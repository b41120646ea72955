// Pins the no-heap-per-gate layout of circuit::Gate with a counting global
// operator new: copying, building and appending gates of up to three
// operands allocates nothing; only a barrier wider than that does. Also
// pins that decompose_to_gateset lowers each parameter-free kind once per
// call: its allocations do not grow with the number of gates it lowers,
// and that qasm::parse and qasm::to_qasm allocate per circuit, not per
// gate.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/decompose.h"
#include "device/gateset.h"
#include "qasm/parser.h"
#include "qasm/writer.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Not inlined, so the compiler never pairs an inlined malloc with a free.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// The array forms too: a sanitizer runtime may replace them on its own.
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace qfs::circuit {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
long allocations_in(Fn&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
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

TEST(GateAlloc, LoweringAllocatesPerKindNotPerGate) {
  for (const device::GateSet& gs :
       {device::surface_code_gateset(), device::ibm_gateset()}) {
    const Circuit small = h_t_ccx_swap(64);
    const Circuit large = h_t_ccx_swap(4096);
    Circuit lowered_small;
    Circuit lowered_large;
    const long small_allocs = allocations_in(
        [&] { lowered_small = compiler::decompose_to_gateset(small, gs); });
    const long large_allocs = allocations_in(
        [&] { lowered_large = compiler::decompose_to_gateset(large, gs); });
    ASSERT_GT(lowered_large.size(), large.size()) << gs.name();
    // Both calls lower the same kinds, so they build the same templates.
    // What may grow with the input is the output vector, which doubles
    // from the input's size: at most bit_width(output size) more blocks.
    EXPECT_LE(large_allocs - small_allocs,
              static_cast<long>(std::bit_width(lowered_large.size())))
        << gs.name() << ": " << small_allocs << " allocations for 64 gates, "
        << large_allocs << " for 4096";
  }
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

}  // namespace
}  // namespace qfs::circuit
