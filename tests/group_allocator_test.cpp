//===- tests/group_allocator_test.cpp - Specialised allocator tests -----------===//

#include "core/GroupAllocator.h"
#include "mem/SizeClassAllocator.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace halo;

namespace {

/// Test policy: groups by a fixed site map (like the HDS policy, but built
/// directly).
struct FixedPolicy : GroupPolicy {
  std::unordered_map<uint32_t, uint32_t> Map;
  uint32_t Groups;
  FixedPolicy(std::unordered_map<uint32_t, uint32_t> Map, uint32_t Groups)
      : Map(std::move(Map)), Groups(Groups) {}
  int32_t selectGroup(const AllocRequest &R) const override {
    auto It = Map.find(R.ImmediateSite);
    return It == Map.end() ? -1 : int32_t(It->second);
  }
  uint32_t numGroups() const override { return Groups; }
};

struct GroupAllocTest : ::testing::Test {
  SizeClassAllocator Backing{0x7000000000ull};
  FixedPolicy Policy{{{1, 0}, {2, 1}}, 2};
  GroupAllocatorOptions Options;

  GroupAllocTest() {
    Options.ChunkSize = 1 << 16; // 64 KiB chunks for compact tests.
  }

  AllocRequest grouped(uint64_t Size, uint32_t Site = 1) {
    return AllocRequest{Size, Site};
  }
  AllocRequest ungrouped(uint64_t Size) { return AllocRequest{Size, 99}; }
};

} // namespace

TEST_F(GroupAllocTest, GroupedAllocationsAreContiguous) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(24));
  uint64_t B = GA.allocate(grouped(24));
  uint64_t C = GA.allocate(grouped(40));
  // Bump allocation, 8-byte aligned, no per-object headers.
  EXPECT_EQ(B, A + 24);
  EXPECT_EQ(C, B + 24);
  EXPECT_EQ(GA.groupedAllocations(), 3u);
}

TEST_F(GroupAllocTest, MinimumAlignmentIsEight) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(5));
  uint64_t B = GA.allocate(grouped(5));
  EXPECT_EQ(A % 8, 0u);
  EXPECT_EQ(B, A + 8);
}

TEST_F(GroupAllocTest, GroupsUseSeparateChunks) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(24, 1));
  uint64_t B = GA.allocate(grouped(24, 2));
  EXPECT_NE(A & ~(Options.ChunkSize - 1), B & ~(Options.ChunkSize - 1));
}

TEST_F(GroupAllocTest, UngroupedForwardsToBacking) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(ungrouped(24));
  EXPECT_TRUE(Backing.owns(A));
  EXPECT_EQ(GA.forwardedAllocations(), 1u);
  GA.deallocate(A); // Routed back to the backing allocator.
  EXPECT_FALSE(Backing.owns(A));
}

TEST_F(GroupAllocTest, OversizedRequestsForwardEvenWhenGrouped) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(MaxGroupedSize));
  EXPECT_TRUE(Backing.owns(A));
  uint64_t B = GA.allocate(grouped(MaxGroupedSize - 8));
  EXPECT_FALSE(Backing.owns(B));
}

TEST_F(GroupAllocTest, ChunkSizesOutsideTheValidRangeThrow) {
  // In every build: a power of two from a header plus the largest grouped
  // object (8 KiB) to the slab (64 MiB). Each rejected size was once
  // accepted: 3000 is no power of two, a 4096-byte chunk leaves a grouped
  // object above 4032 bytes overrunning it, 2^27 is larger than its slab,
  // and 2^33 past the 32-bit region offsets.
  for (uint64_t Bad : {uint64_t(3000), uint64_t(4096), uint64_t(1) << 27,
                       uint64_t(1) << 33, uint64_t(0)}) {
    Options.ChunkSize = Bad;
    EXPECT_FALSE(validChunkSize(Bad)) << Bad;
    EXPECT_THROW(GroupAllocator(Backing, Policy, Options),
                 std::invalid_argument)
        << Bad;
  }
  for (uint64_t Good : {uint64_t(8) << 10, uint64_t(64) << 20}) {
    Options.ChunkSize = Good;
    EXPECT_TRUE(validChunkSize(Good)) << Good;
    GroupAllocator GA(Backing, Policy, Options);
    uint64_t A = GA.allocate(grouped(MaxGroupedSize - 1));
    EXPECT_EQ(GA.usableSize(A), MaxGroupedSize - 1) << Good;
  }
}

TEST_F(GroupAllocTest, ChunksAlignedToTheirSize) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(24));
  EXPECT_EQ((A & ~(Options.ChunkSize - 1)) % Options.ChunkSize, 0u);
}

TEST_F(GroupAllocTest, EmptyChunkRecycledThroughSpareList) {
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  // Fill one chunk and spill into a second.
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  EXPECT_EQ(GA.chunkCount(), 2u);
  // Free everything in the first chunk: it becomes a spare.
  for (uint64_t I = 0; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  EXPECT_EQ(GA.spareChunkCount(), 1u);
  EXPECT_EQ(GA.chunkCount(), 1u);
}

TEST_F(GroupAllocTest, SpareChunkReusedBeforeNewSlabSpace) {
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  uint64_t FirstChunkBase = Addrs[0] & ~(Options.ChunkSize - 1);
  for (uint64_t I = 0; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  // The other group's next chunk comes from the spare list.
  uint64_t B = GA.allocate(grouped(64, 2));
  EXPECT_EQ(B & ~(Options.ChunkSize - 1), FirstChunkBase);
}

TEST_F(GroupAllocTest, PurgedChunksDropResidency) {
  Options.MaxSpareChunks = 0; // Everything beyond spares gets purged.
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  uint64_t ResidentBefore = GA.residentBytes();
  for (uint64_t I = 0; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  EXPECT_LT(GA.residentBytes(), ResidentBefore);
  EXPECT_EQ(GA.spareChunkCount(), 0u);
}

TEST_F(GroupAllocTest, AlwaysReuseKeepsPagesResident) {
  Options.MaxSpareChunks = 0;
  Options.PurgeEmptyChunks = false; // The omnetpp/xalanc configuration.
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  uint64_t ResidentBefore = GA.residentBytes();
  for (uint64_t I = 0; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  EXPECT_EQ(GA.residentBytes(), ResidentBefore); // Dirty pages kept.
}

TEST_F(GroupAllocTest, LiveRegionsGateChunkReuse) {
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  // Free all but one region of the first chunk: it must NOT be recycled.
  for (uint64_t I = 1; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  EXPECT_EQ(GA.spareChunkCount(), 0u);
  EXPECT_EQ(GA.chunkCount(), 2u);
  // The last region leaves: now it recycles.
  GA.deallocate(Addrs[0]);
  EXPECT_EQ(GA.spareChunkCount(), 1u);
}

TEST_F(GroupAllocTest, UsableSizeAndOwnership) {
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(24));
  EXPECT_TRUE(GA.owns(A));
  EXPECT_EQ(GA.usableSize(A), 24u);
  GA.deallocate(A);
  EXPECT_FALSE(GA.owns(A));
}

TEST_F(GroupAllocTest, FreeOrUsableSizeOfAnAddressItDoesNotOwnThrows) {
  // Each of these once indexed a chunk's records at NoRegion, or reached
  // the backing allocator's unchecked lookup.
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t A = GA.allocate(grouped(24));
  uint64_t Freed = GA.allocate(grouped(40));
  uint64_t Forwarded = GA.allocate(ungrouped(100));
  GA.deallocate(Freed);
  const uint64_t Chunk = A & ~(Options.ChunkSize - 1);
  const uint64_t NotOwned[] = {
      A + 8,                           // Interior of a grouped region.
      Chunk,                           // The chunk's header.
      Chunk + Options.ChunkSize + 64,  // A slab chunk no group holds.
      Freed,                           // Already freed.
      Forwarded + 8,                   // Interior of a forwarded object.
      0x1000,                          // Neither arena.
  };
  const uint64_t LiveBytes = GA.liveBytes();
  for (uint64_t Addr : NotOwned) {
    EXPECT_THROW(GA.deallocate(Addr), std::invalid_argument) << Addr;
    EXPECT_THROW(GA.usableSize(Addr), std::invalid_argument) << Addr;
  }
  EXPECT_EQ(GA.liveBytes(), LiveBytes);
  EXPECT_EQ(GA.usableSize(A), 24u);
  EXPECT_EQ(GA.usableSize(Forwarded), 112u);
}

TEST_F(GroupAllocTest, ADoubleFreeThrowsAndTheChunkKeepsItsLiveRegion) {
  // A second free must not count its region out of the chunk again: the
  // retired chunk recycles only when its last live region goes.
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  uint64_t PerChunk = Options.ChunkSize / 64;
  for (uint64_t I = 0; I < PerChunk + 4; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  for (uint64_t I = 2; I < PerChunk; ++I)
    GA.deallocate(Addrs[I]);
  GA.deallocate(Addrs[0]);
  EXPECT_THROW(GA.deallocate(Addrs[0]), std::invalid_argument);
  EXPECT_EQ(GA.spareChunkCount(), 0u);
  EXPECT_EQ(GA.chunkCount(), 2u);
  EXPECT_EQ(GA.usableSize(Addrs[1]), 64u);
  GA.deallocate(Addrs[1]);
  EXPECT_EQ(GA.spareChunkCount(), 1u);
  EXPECT_EQ(GA.chunkCount(), 1u);
}

TEST_F(GroupAllocTest, LiveBytesSpanGroupedAndForwarded) {
  GroupAllocator GA(Backing, Policy, Options);
  GA.allocate(grouped(24));
  GA.allocate(ungrouped(100));
  EXPECT_EQ(GA.liveBytes(), 124u);
  EXPECT_EQ(GA.groupedLiveBytes(), 24u);
}

TEST_F(GroupAllocTest, FragmentationTracksPeakResidentVsLive) {
  GroupAllocator GA(Backing, Policy, Options);
  std::vector<uint64_t> Addrs;
  for (int I = 0; I < 64; ++I)
    Addrs.push_back(GA.allocate(grouped(64)));
  FragmentationStats F = GA.fragmentation();
  EXPECT_GT(F.PeakResident, 0u);
  EXPECT_EQ(F.LiveAtPeak, 64u * 64u);
  EXPECT_EQ(F.wastedBytes(), F.PeakResident - F.LiveAtPeak);
  EXPECT_GT(F.wastedPercent(), 0.0);
  EXPECT_LT(F.wastedPercent(), 100.0);
}

TEST_F(GroupAllocTest, PathologicalFragmentationLikeLeela) {
  // One tiny pinned region per chunk, everything else freed: nearly the
  // whole chunk is wasted (Table 1's leela row).
  GroupAllocator GA(Backing, Policy, Options);
  uint64_t PerChunk = Options.ChunkSize / 64;
  uint64_t Pinned = GA.allocate(grouped(24));
  uint64_t Prev = 0;
  for (uint64_t I = 0; I < PerChunk * 3; ++I) {
    uint64_t A = GA.allocate(grouped(64));
    if (Prev)
      GA.deallocate(Prev);
    Prev = A;
  }
  GA.deallocate(Prev);
  (void)Pinned;
  FragmentationStats F = GA.fragmentation();
  EXPECT_GT(F.wastedPercent(), 95.0);
}

TEST_F(GroupAllocTest, SelectorPolicyPicksFirstMatch) {
  GroupStateVector State(2);
  CompiledSelector S0, S1;
  S0.Masks.push_back({0b01});
  S1.Masks.push_back({0b10});
  SelectorGroupPolicy Policy(State, {S0, S1});
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 0}), -1);
  State.set(1);
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 0}), 1);
  State.set(0); // Both match: most popular (first) wins.
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 0}), 0);
}

TEST_F(GroupAllocTest, SitePolicyLookups) {
  SiteGroupPolicy Policy({{5, 0}, {6, 1}}, 2);
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 5}), 0);
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 6}), 1);
  EXPECT_EQ(Policy.selectGroup(AllocRequest{8, 7}), -1);
  EXPECT_EQ(Policy.numGroups(), 2u);
}
