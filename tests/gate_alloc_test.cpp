// Pins the no-heap-per-gate layout of circuit::Gate with a counting global
// operator new: copying, building and appending gates of up to three
// operands allocates nothing; only a barrier wider than that does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "circuit/circuit.h"

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

}  // namespace
}  // namespace qfs::circuit
