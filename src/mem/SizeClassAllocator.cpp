//===- mem/SizeClassAllocator.cpp - jemalloc-like baseline ----------------===//

#include "mem/SizeClassAllocator.h"

#include <algorithm>
#include <cassert>

using namespace halo;

SizeClassAllocator::SizeClassAllocator(uint64_t ArenaBase) : Arena(ArenaBase) {
  // jemalloc-style class ladder: 8, 16, then 16-byte spacing up to 128,
  // then groups of four classes with doubling spacing up to MaxSmall.
  ClassSizes.push_back(8);
  ClassSizes.push_back(16);
  for (uint64_t Size = 32; Size <= 128; Size += 16)
    ClassSizes.push_back(Size);
  for (uint64_t Spacing = 32; ClassSizes.back() < MaxSmall; Spacing *= 2)
    for (int I = 0; I < 4 && ClassSizes.back() < MaxSmall; ++I)
      ClassSizes.push_back(ClassSizes.back() + Spacing);
  Classes.resize(ClassSizes.size());

  // Dense lookup table: quantum-spaced (8-byte) request size -> class index.
  SizeToClass.resize(MaxSmall / 8);
  uint32_t Class = 0;
  for (uint64_t Quantum = 0; Quantum < SizeToClass.size(); ++Quantum) {
    uint64_t Size = (Quantum + 1) * 8;
    while (ClassSizes[Class] < Size)
      ++Class;
    assert(Class < ClassSizes.size() && "size beyond class ladder");
    SizeToClass[Quantum] = static_cast<uint8_t>(Class);
  }
}

uint32_t SizeClassAllocator::classIndexFor(uint64_t Size) const {
  assert(Size > 0 && Size <= MaxSmall && "not a small size");
  return SizeToClass[(Size - 1) / 8];
}

uint64_t SizeClassAllocator::sizeClassFor(uint64_t Size) const {
  if (Size == 0)
    Size = 1;
  if (Size > MaxSmall)
    return (Size + VirtualArena::PageSize - 1) & ~(VirtualArena::PageSize - 1);
  return ClassSizes[classIndexFor(Size)];
}

uint64_t SizeClassAllocator::allocate(const AllocRequest &Request) {
  uint64_t Size = Request.Size ? Request.Size : 1;
  uint64_t Addr = Size > MaxSmall ? allocateLarge(Size) : allocateSmall(Size);
  Live += Size;
  ++LiveObjects;
  return Addr;
}

void SizeClassAllocator::addSpan(const Span &S, uint64_t Pages) {
  PageSpan.resize((Arena.end() - Arena.base()) / VirtualArena::PageSize);
  uint64_t First = (S.Base - Arena.base()) / VirtualArena::PageSize;
  Spans.push_back(S);
  std::fill_n(PageSpan.begin() + First, Pages,
              static_cast<uint32_t>(Spans.size()));
}

uint32_t SizeClassAllocator::spanOf(uint64_t Addr) const {
  if (!Arena.inRange(Addr))
    return NoSpan;
  // Entries hold 1 + the index, so an unmapped page's 0 wraps to NoSpan.
  return PageSpan[(Addr - Arena.base()) / VirtualArena::PageSize] - 1;
}

uint64_t SizeClassAllocator::slotOf(const Span &S, uint64_t Addr) const {
  // A run spans at most 64 objects of MaxSmall bytes, so 32-bit offsets.
  uint32_t Offset = static_cast<uint32_t>(Addr - S.Base);
  uint32_t ObjectSize = static_cast<uint32_t>(ClassSizes[S.ClassIndex]);
  uint32_t Slot = Offset / ObjectSize;
  if (Slot * ObjectSize != Offset || Slot >= S.Slots)
    return NoSlot;
  return S.FirstSlot + Slot;
}

uint64_t SizeClassAllocator::allocateSmall(uint64_t Size) {
  uint32_t Index = classIndexFor(Size);
  ClassState &State = Classes[Index];
  uint64_t ObjectSize = ClassSizes[Index];

  uint64_t Addr;
  if (!State.FreeList.empty()) {
    // Recently freed objects are reused first (LIFO), like real allocators.
    Addr = State.FreeList.back();
    State.FreeList.pop_back();
  } else {
    if (State.RunCursor + ObjectSize > State.RunEnd) {
      // Carve a fresh run for this class: at least a page, at least 64
      // objects, so same-class allocations land contiguously.
      uint64_t RunSize = ObjectSize * 64;
      if (RunSize < VirtualArena::PageSize)
        RunSize = VirtualArena::PageSize;
      State.RunCursor = Arena.reserve(RunSize);
      State.RunEnd = State.RunCursor + RunSize;
      uint32_t Slots = static_cast<uint32_t>(RunSize / ObjectSize);
      addSpan(Span{State.RunCursor, Requested.size(), 0, Index, Slots},
              (RunSize + VirtualArena::PageSize - 1) / VirtualArena::PageSize);
      Requested.resize(Requested.size() + Slots);
    }
    Addr = State.RunCursor;
    State.RunCursor += ObjectSize;
  }
  Arena.touch(Addr, ObjectSize);
  Requested[slotOf(Spans[spanOf(Addr)], Addr)] = static_cast<uint16_t>(Size);
  return Addr;
}

uint64_t SizeClassAllocator::allocateLarge(uint64_t Size) {
  uint64_t Addr = Arena.reserve(Size);
  Arena.touch(Addr, Size);
  addSpan(Span{Addr, 0, Size, LargeClass, 0}, 1);
  return Addr;
}

void SizeClassAllocator::deallocate(uint64_t Addr) {
  uint32_t Id = spanOf(Addr);
  if (Id == NoSpan)
    throwNotOwned(*this, "free", Addr);
  Span &S = Spans[Id];
  if (S.ClassIndex == LargeClass) {
    if (S.Base != Addr || !S.LargeBytes)
      throwNotOwned(*this, "free", Addr);
    --LiveObjects;
    Live -= S.LargeBytes;
    S.LargeBytes = 0;
    Arena.release(Addr);
    return;
  }
  // A freed slot's requested size is 0, so a double free stops here
  // instead of putting the slot on the free list twice.
  uint64_t Slot = slotOf(S, Addr);
  if (Slot == NoSlot || !Requested[Slot])
    throwNotOwned(*this, "free", Addr);
  --LiveObjects;
  Live -= Requested[Slot];
  Requested[Slot] = 0;
  Classes[S.ClassIndex].FreeList.push_back(Addr);
}

bool SizeClassAllocator::owns(uint64_t Addr) const {
  uint32_t Id = spanOf(Addr);
  if (Id == NoSpan)
    return false;
  const Span &S = Spans[Id];
  if (S.ClassIndex == LargeClass)
    return S.Base == Addr && S.LargeBytes;
  uint64_t Slot = slotOf(S, Addr);
  return Slot != NoSlot && Requested[Slot];
}

uint64_t SizeClassAllocator::usableSize(uint64_t Addr) const {
  if (!owns(Addr))
    throwNotOwned(*this, "usableSize", Addr);
  const Span &S = Spans[spanOf(Addr)];
  return S.ClassIndex == LargeClass ? S.LargeBytes : ClassSizes[S.ClassIndex];
}
