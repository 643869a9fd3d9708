//===- mem/Arena.h - Simulated demand-paged address space ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated 64-bit virtual address space standing in for mmap/munmap.
/// Allocators reserve address ranges from an arena; pages become resident
/// on first touch (demand paging) and can be purged (madvise(DONTNEED)).
/// Resident-page accounting feeds the fragmentation figures of Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_MEM_ARENA_H
#define HALO_MEM_ARENA_H

#include <cstdint>
#include <map>
#include <vector>

namespace halo {

/// Simulated virtual address space with demand paging.
///
/// Reservations are handed out sequentially (never recycled at the address
/// level, like a simple mmap with MAP_NORESERVE), so every live allocation in
/// a run has a unique address and all of them lie in one dense range,
/// [base(), end()). Residency is a bitmap over that range's pages, and the
/// allocators index their own metadata by address arithmetic over it. The
/// paper's artefact notes that running programs must be able to map at
/// least 16 GiB of virtual memory; the simulated space is far larger than
/// that.
class VirtualArena {
public:
  static constexpr uint64_t PageSize = 4096;

  /// \p Base is the address of the first reservation; distinct arenas should
  /// use distinct bases so their addresses never collide.
  explicit VirtualArena(uint64_t Base = 0x10000000000ull);

  /// Reserves \p Size bytes aligned to \p Align (power of two, at least one
  /// page). Returns the base address of the reservation.
  uint64_t reserve(uint64_t Size, uint64_t Align = PageSize);

  /// Releases a previous reservation (munmap). The range must exactly match
  /// a prior reserve().
  void release(uint64_t Addr);

  /// Marks the pages overlapping [Addr, Addr+Size) resident (first write).
  void touch(uint64_t Addr, uint64_t Size);

  /// Drops the pages fully contained in [Addr, Addr+Size) from residency
  /// (madvise(DONTNEED)); the reservation itself remains valid.
  void purge(uint64_t Addr, uint64_t Size);

  /// Returns true if [Addr, Addr+Size) lies inside a live reservation.
  bool covers(uint64_t Addr, uint64_t Size) const;

  /// Every reservation ever made lies in [base(), end()).
  uint64_t base() const { return Base; }
  uint64_t end() const { return Next; }
  bool inRange(uint64_t Addr) const { return Addr >= Base && Addr < Next; }

  uint64_t reservedBytes() const { return Reserved; }
  uint64_t residentBytes() const { return ResidentPages * PageSize; }
  uint64_t reservationCount() const { return Regions.size(); }

private:
  uint64_t Base;
  uint64_t Next;
  uint64_t Reserved = 0;
  std::map<uint64_t, uint64_t> Regions; ///< base -> size, live reservations.
  std::vector<uint64_t> Resident; ///< One bit per page of [Base, Next).
  uint64_t ResidentPages = 0;
};

} // namespace halo

#endif // HALO_MEM_ARENA_H
