//===- mem/SizeClassAllocator.h - jemalloc-like baseline -------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A size-segregated allocator modelled on jemalloc's small/large scheme.
/// Small requests are rounded up to one of a fixed set of size classes and
/// carved from per-class runs with a LIFO free list, so objects are
/// co-located based primarily on their size and the order in which they are
/// allocated -- exactly the behaviour the paper's Figure 1 illustrates and
/// that HALO sets out to specialise. This is the evaluation's default
/// allocator (jemalloc 5.1.0 in the paper).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_MEM_SIZECLASSALLOCATOR_H
#define HALO_MEM_SIZECLASSALLOCATOR_H

#include "mem/Allocator.h"
#include "mem/Arena.h"

#include <cstdint>
#include <vector>

namespace halo {

/// jemalloc-like size-segregated allocator over a simulated arena.
///
/// Metadata is found by address arithmetic, as jemalloc finds it through
/// its page map: a table with one entry per arena page names the span
/// (a small run of one class, or one large allocation) the page belongs
/// to, and each run keeps the requested size of every slot it holds.
class SizeClassAllocator : public Allocator {
public:
  /// Largest size handled by a size class; larger requests are page-rounded
  /// reservations of their own ("large" allocations).
  static constexpr uint64_t MaxSmall = 16384;

  explicit SizeClassAllocator(uint64_t ArenaBase = 0x10000000000ull);

  uint64_t allocate(const AllocRequest &Request) override;
  void deallocate(uint64_t Addr) override;
  bool owns(uint64_t Addr) const override;
  uint64_t usableSize(uint64_t Addr) const override;
  uint64_t liveBytes() const override { return Live; }
  uint64_t residentBytes() const override { return Arena.residentBytes(); }
  std::string name() const override { return "jemalloc-sim"; }

  /// Returns the size class (rounded-up size) a request of \p Size maps to.
  /// Exposed for tests and for the Fig. 1 example.
  uint64_t sizeClassFor(uint64_t Size) const;

  /// Number of live allocations (for tests).
  uint64_t liveCount() const { return LiveObjects; }

  const VirtualArena &arena() const { return Arena; }

private:
  struct ClassState {
    uint64_t RunCursor = 0; ///< Next unused byte in the current run.
    uint64_t RunEnd = 0;    ///< One past the end of the current run.
    std::vector<uint64_t> FreeList; ///< LIFO of freed object addresses.
  };

  /// A small run of one size class, or one large allocation.
  struct Span {
    uint64_t Base;
    uint64_t FirstSlot;  ///< Small run: its first entry in Requested.
    uint64_t LargeBytes; ///< Large allocation: bytes requested, 0 once freed.
    uint32_t ClassIndex; ///< Small run: its class; LargeClass if large.
    uint32_t Slots;      ///< Small run: objects it holds.
  };
  static constexpr uint32_t LargeClass = ~0u;
  static_assert(MaxSmall <= UINT16_MAX, "Requested holds small sizes");

  uint64_t allocateSmall(uint64_t Size);
  uint64_t allocateLarge(uint64_t Size);
  uint32_t classIndexFor(uint64_t Size) const;
  /// Records \p S, the latest reservation, and maps its first \p Pages
  /// pages to it: every page of a small run, only the first page of a
  /// large allocation (lookups name an object by its start address).
  void addSpan(const Span &S, uint64_t Pages);
  /// The index in Spans of the span whose page holds \p Addr, or NoSpan.
  uint32_t spanOf(uint64_t Addr) const;
  static constexpr uint32_t NoSpan = ~0u;
  /// The index in Requested of the slot starting at \p Addr in small run
  /// \p S, or NoSlot if no slot starts there.
  uint64_t slotOf(const Span &S, uint64_t Addr) const;
  static constexpr uint64_t NoSlot = ~0ull;

  VirtualArena Arena;
  std::vector<uint64_t> ClassSizes;
  std::vector<uint8_t> SizeToClass; ///< (Size+7)/8 - 1 -> class index.
  std::vector<ClassState> Classes;
  std::vector<uint32_t> PageSpan; ///< Arena page -> 1 + index in Spans, or 0.
  std::vector<Span> Spans;
  std::vector<uint16_t> Requested; ///< Per small slot; 0 while free.
  uint64_t LiveObjects = 0;
  uint64_t Live = 0;
};

} // namespace halo

#endif // HALO_MEM_SIZECLASSALLOCATOR_H
