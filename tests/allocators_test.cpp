//===- tests/allocators_test.cpp - Baseline allocator tests -------------------===//

#include "mem/BoundaryTagAllocator.h"
#include "mem/RandomPoolAllocator.h"
#include "mem/SizeClassAllocator.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

using namespace halo;

namespace {
AllocRequest req(uint64_t Size) { return AllocRequest{Size, 0}; }
} // namespace

TEST(SizeClass, ClassLadderMatchesJemallocShape) {
  SizeClassAllocator A;
  EXPECT_EQ(A.sizeClassFor(1), 8u);
  EXPECT_EQ(A.sizeClassFor(8), 8u);
  EXPECT_EQ(A.sizeClassFor(9), 16u);
  EXPECT_EQ(A.sizeClassFor(17), 32u);
  EXPECT_EQ(A.sizeClassFor(100), 112u);
  EXPECT_EQ(A.sizeClassFor(128), 128u);
  EXPECT_EQ(A.sizeClassFor(129), 160u);
  EXPECT_EQ(A.sizeClassFor(257), 320u);
  EXPECT_EQ(A.sizeClassFor(16384), 16384u);
}

TEST(SizeClass, LargeSizesPageRounded) {
  SizeClassAllocator A;
  EXPECT_EQ(A.sizeClassFor(16385), 20480u);
  EXPECT_EQ(A.sizeClassFor(65536), 65536u);
}

TEST(SizeClass, SameClassAllocationsAreContiguous) {
  // The Figure 1 behaviour: same-size allocations land in the same run in
  // allocation order.
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(24));
  uint64_t Y = A.allocate(req(24));
  uint64_t Z = A.allocate(req(24));
  EXPECT_EQ(Y, X + 32); // The 24B request maps to the 32B class.
  EXPECT_EQ(Z, Y + 32);
}

TEST(SizeClass, DifferentClassesSegregated) {
  SizeClassAllocator A;
  uint64_t Small = A.allocate(req(24));
  uint64_t Big = A.allocate(req(200));
  uint64_t Small2 = A.allocate(req(24));
  // The interleaved big allocation does not break small-class contiguity.
  EXPECT_EQ(Small2, Small + 32);
  EXPECT_NE(Big / VirtualArena::PageSize, Small / VirtualArena::PageSize);
}

TEST(SizeClass, FreeListIsLifo) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(40));
  uint64_t Y = A.allocate(req(40));
  A.deallocate(X);
  A.deallocate(Y);
  EXPECT_EQ(A.allocate(req(40)), Y); // Most recently freed comes back first.
  EXPECT_EQ(A.allocate(req(40)), X);
}

TEST(SizeClass, LiveBytesTracksRequests) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(24));
  A.allocate(req(100));
  EXPECT_EQ(A.liveBytes(), 124u);
  A.deallocate(X);
  EXPECT_EQ(A.liveBytes(), 100u);
}

TEST(SizeClass, UsableSizeIsClassSize) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(24));
  EXPECT_EQ(A.usableSize(X), 32u);
}

TEST(SizeClass, OwnsOnlyLiveRegions) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(24));
  EXPECT_TRUE(A.owns(X));
  A.deallocate(X);
  EXPECT_FALSE(A.owns(X));
}

TEST(SizeClass, LargeAllocationReleasedOnFree) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(100000));
  uint64_t Before = A.residentBytes();
  EXPECT_GE(Before, 100000u);
  A.deallocate(X);
  EXPECT_LT(A.residentBytes(), Before);
}

TEST(SizeClass, ZeroSizeAllocationsAreDistinct) {
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(0));
  uint64_t Y = A.allocate(req(0));
  EXPECT_NE(X, Y);
}

TEST(SizeClass, FreeOrUsableSizeOfAnAddressItDoesNotOwnThrows) {
  // Each of these once indexed past the span table (Spans[~0u]) or
  // slipped through in a build without asserts.
  SizeClassAllocator A;
  uint64_t Small = A.allocate(req(24));
  uint64_t Large = A.allocate(req(100000));
  uint64_t Freed = A.allocate(req(24));
  uint64_t FreedLarge = A.allocate(req(50000));
  A.deallocate(Freed);
  A.deallocate(FreedLarge);
  const uint64_t LiveCount = A.liveCount();
  const uint64_t LiveBytes = A.liveBytes();
  const uint64_t NotOwned[] = {
      0, A.arena().base() - 8, A.arena().end(), // Never allocated.
      Small + 8, Large + 8, Large + 4096,       // Interior.
      Freed, FreedLarge,                        // Already freed.
  };
  for (uint64_t Addr : NotOwned) {
    EXPECT_THROW(A.deallocate(Addr), std::invalid_argument) << Addr;
    EXPECT_THROW(A.usableSize(Addr), std::invalid_argument) << Addr;
  }
  EXPECT_EQ(A.liveCount(), LiveCount);
  EXPECT_EQ(A.liveBytes(), LiveBytes);
  EXPECT_EQ(A.usableSize(Small), 32u);
  EXPECT_EQ(A.usableSize(Large), 100000u);
}

TEST(SizeClass, ADoubleFreeThrowsAndNoSlotIsHandedOutTwice) {
  // Unchecked, a small double free put the slot on its class's free list
  // twice, and the next two allocations of the class shared one address.
  SizeClassAllocator A;
  uint64_t X = A.allocate(req(24));
  A.deallocate(X);
  EXPECT_THROW(A.deallocate(X), std::invalid_argument);
  uint64_t P = A.allocate(req(24));
  uint64_t Q = A.allocate(req(24));
  EXPECT_NE(P, Q);
  EXPECT_EQ(A.liveCount(), 2u);
  EXPECT_EQ(A.liveBytes(), 48u);
}

TEST(SizeClass, ManyAllocationsStayWithinReservedSpace) {
  SizeClassAllocator A;
  std::vector<uint64_t> Addrs;
  for (int I = 0; I < 10000; ++I)
    Addrs.push_back(A.allocate(req(48)));
  std::set<uint64_t> Unique(Addrs.begin(), Addrs.end());
  EXPECT_EQ(Unique.size(), Addrs.size());
  EXPECT_EQ(A.liveCount(), 10000u);
}

TEST(BoundaryTag, PayloadsSpacedByHeader) {
  BoundaryTagAllocator A;
  uint64_t X = A.allocate(req(24));
  uint64_t Y = A.allocate(req(24));
  // 24B payload + 16B header rounds to a 48B chunk: ptmalloc-style spread.
  EXPECT_EQ(Y - X, 48u);
}

TEST(BoundaryTag, ExactBinReuse) {
  BoundaryTagAllocator A;
  uint64_t X = A.allocate(req(24));
  A.allocate(req(24));
  A.deallocate(X);
  EXPECT_EQ(A.allocate(req(24)), X);
}

TEST(BoundaryTag, BestFitSplitsLargeChunks) {
  BoundaryTagAllocator A;
  uint64_t Big = A.allocate(req(4000));
  A.allocate(req(24)); // Hold the heap top away.
  A.deallocate(Big);
  // A small allocation is carved from the freed big chunk's space.
  uint64_t Small = A.allocate(req(2000));
  EXPECT_EQ(Small, Big);
}

TEST(BoundaryTag, UsableSizeExcludesHeader) {
  BoundaryTagAllocator A;
  uint64_t X = A.allocate(req(24));
  EXPECT_GE(A.usableSize(X), 24u);
  EXPECT_LT(A.usableSize(X), 24u + 16u + 16u);
}

TEST(BoundaryTag, LiveBytesAndOwnership) {
  BoundaryTagAllocator A;
  uint64_t X = A.allocate(req(100));
  EXPECT_TRUE(A.owns(X));
  EXPECT_EQ(A.liveBytes(), 100u);
  A.deallocate(X);
  EXPECT_FALSE(A.owns(X));
  EXPECT_EQ(A.liveBytes(), 0u);
}

TEST(RandomPools, SmallObjectsScatterAcrossPools) {
  SizeClassAllocator Backing(0x7000000000ull);
  RandomPoolAllocator A(Backing, /*Seed=*/9);
  // With four pools, 200 allocations should land in several distinct
  // 1 MiB-aligned chunks.
  std::set<uint64_t> ChunkBases;
  for (int I = 0; I < 200; ++I) {
    uint64_t Addr = A.allocate(req(32));
    ChunkBases.insert(Addr & ~uint64_t((1 << 20) - 1));
  }
  EXPECT_EQ(ChunkBases.size(), 4u);
}

TEST(RandomPools, PageSizedRequestsForwarded) {
  SizeClassAllocator Backing(0x7000000000ull);
  RandomPoolAllocator A(Backing, 9);
  uint64_t Big = A.allocate(req(4096));
  EXPECT_TRUE(Backing.owns(Big));
  A.deallocate(Big);
  EXPECT_FALSE(Backing.owns(Big));
}

TEST(RandomPools, FreeingEverythingReleasesChunks) {
  SizeClassAllocator Backing(0x7000000000ull);
  RandomPoolAllocator A(Backing, 9);
  std::vector<uint64_t> Addrs;
  for (int I = 0; I < 1000; ++I)
    Addrs.push_back(A.allocate(req(64)));
  uint64_t Resident = A.residentBytes();
  EXPECT_GT(Resident, 0u);
  for (uint64_t Addr : Addrs)
    A.deallocate(Addr);
  EXPECT_EQ(A.liveBytes(), 0u);
}

TEST(RandomPools, DeterministicForSeed) {
  SizeClassAllocator B1(0x7000000000ull), B2(0x7100000000ull);
  RandomPoolAllocator A1(B1, 77, 0x7200000000ull);
  RandomPoolAllocator A2(B2, 77, 0x7200000000ull);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A1.allocate(req(32)), A2.allocate(req(32)));
}
