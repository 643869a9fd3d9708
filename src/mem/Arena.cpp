//===- mem/Arena.cpp - Simulated demand-paged address space ---------------===//

#include "mem/Arena.h"

#include "support/Bits.h"

#include <cassert>

using namespace halo;

VirtualArena::VirtualArena(uint64_t Base) : Base(Base), Next(Base) {
  assert(Base % PageSize == 0 && "arena base must be page aligned");
}

uint64_t VirtualArena::reserve(uint64_t Size, uint64_t Align) {
  assert(Size > 0 && "cannot reserve zero bytes");
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  if (Align < PageSize)
    Align = PageSize;
  // Round the cursor up to the requested alignment and the size up to whole
  // pages, mirroring mmap semantics.
  uint64_t Addr = (Next + Align - 1) & ~(Align - 1);
  uint64_t Span = (Size + PageSize - 1) & ~(PageSize - 1);
  Next = Addr + Span;
  Regions.emplace(Addr, Span);
  Reserved += Span;
  Resident.resize(((Next - Base) / PageSize + 63) / 64);
  return Addr;
}

void VirtualArena::release(uint64_t Addr) {
  auto It = Regions.find(Addr);
  assert(It != Regions.end() && "releasing an unknown reservation");
  purge(It->first, It->second);
  Reserved -= It->second;
  Regions.erase(It);
}

void VirtualArena::touch(uint64_t Addr, uint64_t Size) {
  assert(covers(Addr, Size) && "touching unreserved memory");
  uint64_t First = (Addr - Base) / PageSize;
  uint64_t Last = (Addr - Base + (Size ? Size : 1) - 1) / PageSize;
  for (uint64_t Page = First; Page <= Last; ++Page) {
    uint64_t &Word = Resident[Page / 64];
    uint64_t Bit = uint64_t(1) << (Page % 64);
    ResidentPages += (Word & Bit) == 0;
    Word |= Bit;
  }
}

void VirtualArena::purge(uint64_t Addr, uint64_t Size) {
  if (Size == 0)
    return;
  assert(covers(Addr, Size) && "purging unreserved memory");
  // Only whole pages inside the range are dropped, like madvise(DONTNEED)
  // on a partially covering range.
  uint64_t First = (Addr - Base + PageSize - 1) / PageSize;
  uint64_t End = (Addr - Base + Size) / PageSize;
  for (uint64_t Page = First; Page < End; ++Page) {
    uint64_t &Word = Resident[Page / 64];
    uint64_t Bit = uint64_t(1) << (Page % 64);
    ResidentPages -= (Word & Bit) != 0;
    Word &= ~Bit;
  }
}

bool VirtualArena::covers(uint64_t Addr, uint64_t Size) const {
  auto It = Regions.upper_bound(Addr);
  if (It == Regions.begin())
    return false;
  --It;
  return Addr >= It->first && Addr + Size <= It->first + It->second;
}
