//===- core/GroupAllocator.cpp - HALO's specialised allocator --------------===//

#include "core/GroupAllocator.h"

#include "support/Bits.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

using namespace halo;

GroupPolicy::~GroupPolicy() = default;

SelectorGroupPolicy::SelectorGroupPolicy(const GroupStateVector &State,
                                         std::vector<CompiledSelector> Sels)
    : State(State), Selectors(std::move(Sels)) {}

int32_t SelectorGroupPolicy::selectGroup(const AllocRequest &) const {
  // Selectors are ordered most popular group first; first match wins.
  for (size_t G = 0; G < Selectors.size(); ++G)
    if (Selectors[G].matches(State))
      return static_cast<int32_t>(G);
  return -1;
}

SiteGroupPolicy::SiteGroupPolicy(
    std::unordered_map<uint32_t, uint32_t> Sites, uint32_t NumGroups)
    : SiteToGroup(Sites.begin(), Sites.end()), Groups(NumGroups) {
  std::sort(SiteToGroup.begin(), SiteToGroup.end());
}

int32_t SiteGroupPolicy::selectGroup(const AllocRequest &Request) const {
  auto It = std::lower_bound(
      SiteToGroup.begin(), SiteToGroup.end(), Request.ImmediateSite,
      [](const std::pair<uint32_t, uint32_t> &P, uint32_t Site) {
        return P.first < Site;
      });
  return It == SiteToGroup.end() || It->first != Request.ImmediateSite
             ? -1
             : static_cast<int32_t>(It->second);
}

static_assert(GroupAllocator::MinChunkSize >=
                  GroupAllocator::ChunkHeaderSize + MaxGroupedSize,
              "the least chunk holds a header and the largest object");
static_assert(GroupAllocator::SlabSize <= (uint64_t(1) << 32),
              "region offsets are 32-bit");

bool halo::validChunkSize(uint64_t ChunkSize) {
  // A power of two no larger than the slab divides it into whole chunks.
  return isPowerOfTwo(ChunkSize) && ChunkSize >= GroupAllocator::MinChunkSize &&
         ChunkSize <= GroupAllocator::SlabSize;
}

GroupAllocator::GroupAllocator(Allocator &Backing, const GroupPolicy &Policy,
                               const GroupAllocatorOptions &Options,
                               uint64_t ArenaBase)
    : Backing(Backing), Policy(Policy), Options(Options), Arena(ArenaBase) {
  if (!validChunkSize(Options.ChunkSize))
    throw std::invalid_argument(
        "halo-group: chunk size " + std::to_string(Options.ChunkSize) +
        " is not a power of two from " + std::to_string(MinChunkSize) +
        " to " + std::to_string(SlabSize));
  ChunkShift = log2Exact(Options.ChunkSize);
  Cursors.resize(Policy.numGroups());
}

void GroupAllocator::noteUsage() {
  uint64_t Resident = Arena.residentBytes();
  if (Resident > Frag.PeakResident) {
    Frag.PeakResident = Resident;
    Frag.LiveAtPeak = GroupedLive;
  }
}

uint64_t GroupAllocator::allocate(const AllocRequest &Request) {
  uint64_t Size = Request.Size ? Request.Size : 1;
  // Grouped treatment only for small requests whose state matches a group.
  if (Size < MaxGroupedSize) {
    int32_t Group = Policy.selectGroup(Request);
    if (Group >= 0)
      return groupMalloc(static_cast<uint32_t>(Group), Size);
  }
  ++ForwardedAllocs;
  return Backing.allocate(Request);
}

uint64_t GroupAllocator::groupMalloc(uint32_t Group, uint64_t Size) {
  assert(Group < Cursors.size() && "bad group index");
  GroupCursor &Cur = Cursors[Group];
  uint64_t Aligned = (Size + MinAlign - 1) & ~(MinAlign - 1);

  if (Cur.End == 0 || Cur.Cursor + Aligned > Cur.End) {
    // Retire the group's previous current chunk (it may already be empty),
    // then install a fresh one.
    if (Cur.End != 0)
      retireChunk(Cur.End - Options.ChunkSize);
    uint64_t Base = takeChunk(Group);
    Cur.Cursor = Base + ChunkHeaderSize;
    Cur.End = Base + Options.ChunkSize;
  }

  uint64_t Addr = Cur.Cursor;
  Cur.Cursor += Aligned;

  ChunkHeader &Header = chunkOf(Addr);
  ++Header.LiveRegions;
  Header.Regions.push_back(Region{static_cast<uint32_t>(Addr - chunkBase(Addr)),
                                  static_cast<uint32_t>(Size)});

  Arena.touch(Addr, Size);
  GroupedLive += Size;
  ++GroupedAllocs;
  noteUsage();
  return Addr;
}

uint64_t GroupAllocator::takeChunk(uint32_t Group) {
  uint64_t Base;
  if (!SpareChunks.empty()) {
    Base = SpareChunks.front();
    SpareChunks.pop_front();
  } else if (!PurgedChunks.empty()) {
    Base = PurgedChunks.front();
    PurgedChunks.pop_front();
  } else {
    if (SlabCursor + Options.ChunkSize > SlabEnd) {
      // Reserve a new demand-paged slab, chunk-aligned so headers can be
      // located with bitwise operations.
      SlabCursor = Arena.reserve(SlabSize, Options.ChunkSize);
      SlabEnd = SlabCursor + SlabSize;
      Chunks.resize(((Arena.end() - 1) >> ChunkShift) -
                    (Arena.base() >> ChunkShift) + 1);
    }
    Base = SlabCursor;
    SlabCursor += Options.ChunkSize;
  }
  ChunkHeader &Header = chunkOf(Base);
  assert(!Header.InUse && Header.Regions.empty() && "chunk taken twice");
  Header.LiveRegions = 0;
  Header.Group = static_cast<int32_t>(Group);
  Header.IsCurrent = true;
  Header.InUse = true;
  ++ChunksInUse;
  return Base;
}

void GroupAllocator::retireChunk(uint64_t Base) {
  ChunkHeader &Header = chunkOf(Base);
  assert(Header.InUse && "retiring unknown chunk");
  Header.IsCurrent = false;
  if (Header.LiveRegions == 0)
    recycleChunk(Base);
  // Otherwise it still holds live data; its last free will recycle it.
}

void GroupAllocator::recycleChunk(uint64_t Base) {
  ChunkHeader &Header = chunkOf(Base);
  Header.InUse = false;
  Header.Regions.clear();
  --ChunksInUse;
  if (SpareChunks.size() < Options.MaxSpareChunks) {
    SpareChunks.push_back(Base);
  } else if (Options.PurgeEmptyChunks) {
    Arena.purge(Base, Options.ChunkSize);
    PurgedChunks.push_back(Base);
  } else {
    // Always-reuse configuration: keep the dirty pages.
    SpareChunks.push_back(Base);
  }
}

size_t GroupAllocator::liveRegion(const ChunkHeader &Header,
                                  uint64_t Addr) const {
  if (!Header.InUse)
    return NoRegion;
  uint32_t Offset = static_cast<uint32_t>(Addr - chunkBase(Addr));
  auto It = std::lower_bound(
      Header.Regions.begin(), Header.Regions.end(), Offset,
      [](const Region &R, uint32_t O) { return R.Offset < O; });
  if (It == Header.Regions.end() || It->Offset != Offset || It->Size == 0)
    return NoRegion;
  return static_cast<size_t>(It - Header.Regions.begin());
}

void GroupAllocator::groupFree(uint64_t Addr) {
  // The chunk header is located from the region pointer by way of simple
  // bitwise operations (chunks are aligned to their size).
  ChunkHeader &Header = chunkOf(Addr);
  size_t Index = liveRegion(Header, Addr);
  if (Index == NoRegion)
    throwNotOwned(*this, "free", Addr);
  uint64_t Size = Header.Regions[Index].Size;
  Header.Regions[Index].Size = 0;
  GroupedLive -= Size;
  assert(Header.LiveRegions > 0 && "a live region in a chunk with none");
  if (--Header.LiveRegions == 0 && !Header.IsCurrent)
    recycleChunk(chunkBase(Addr));
}

void GroupAllocator::deallocate(uint64_t Addr) {
  if (Arena.inRange(Addr)) {
    groupFree(Addr);
    return;
  }
  Backing.deallocate(Addr);
}

bool GroupAllocator::owns(uint64_t Addr) const {
  if (!Arena.inRange(Addr))
    return Backing.owns(Addr);
  return liveRegion(chunkOf(Addr), Addr) != NoRegion;
}

uint64_t GroupAllocator::usableSize(uint64_t Addr) const {
  if (!Arena.inRange(Addr))
    return Backing.usableSize(Addr);
  const ChunkHeader &Header = chunkOf(Addr);
  size_t Index = liveRegion(Header, Addr);
  if (Index == NoRegion)
    throwNotOwned(*this, "usableSize", Addr);
  return Header.Regions[Index].Size;
}

uint64_t GroupAllocator::liveBytes() const {
  return GroupedLive + Backing.liveBytes();
}

uint64_t GroupAllocator::residentBytes() const {
  return Arena.residentBytes() + Backing.residentBytes();
}
