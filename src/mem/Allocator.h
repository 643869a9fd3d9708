//===- mem/Allocator.h - Heap allocator interface --------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator interface shared by the baseline allocators (jemalloc-like
/// size-segregated, ptmalloc-like boundary-tag), the Fig. 15 random-pool
/// strawman, and HALO's specialised group allocator. Allocators operate on
/// the simulated address space (mem/Arena.h); the runtime routes every
/// malloc/calloc/realloc/free of a workload through one of these.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_MEM_ALLOCATOR_H
#define HALO_MEM_ALLOCATOR_H

#include <cstdint>
#include <string>

namespace halo {

/// Per-request information available to an allocator at allocation time.
///
/// \c ImmediateSite is the call-site identifier of the malloc call itself
/// (the paper's hot-data-streams comparison identifies groups from exactly
/// this). HALO's group allocator instead consults the group state vector it
/// was constructed with, mirroring the paper's design where identification
/// state lives outside the allocation interface.
struct AllocRequest {
  uint64_t Size = 0;
  uint32_t ImmediateSite = ~0u;
};

/// Minimum alignment for all allocations (Section 4.4 / SuperMalloc [20]).
inline constexpr uint64_t MinAlign = 8;

/// The maximum grouped-object size, 4 KiB in the evaluation (Section 5.1):
/// the heap profiler leaves larger objects out of the affinity analysis,
/// and the group allocator groups only smaller ones. So an object of
/// exactly this size is profiled but never grouped.
inline constexpr uint64_t MaxGroupedSize = 4096;

/// Abstract heap allocator over the simulated address space.
class Allocator {
public:
  virtual ~Allocator();

  /// Satisfies an allocation request; returns the (simulated) address.
  /// Requests of size zero are treated as size one, like malloc(0) returning
  /// a unique pointer.
  virtual uint64_t allocate(const AllocRequest &Request) = 0;

  /// Frees a previously allocated region. \p Addr must have been returned by
  /// this allocator (composite allocators route internally).
  /// SizeClassAllocator and GroupAllocator throw std::invalid_argument
  /// (throwNotOwned) for any other address; the others assert.
  virtual void deallocate(uint64_t Addr) = 0;

  /// Returns true if \p Addr was allocated (and is still live) here.
  virtual bool owns(uint64_t Addr) const = 0;

  /// Returns the usable size of the live region at \p Addr, under the same
  /// precondition as deallocate().
  virtual uint64_t usableSize(uint64_t Addr) const = 0;

  /// Bytes requested by live allocations.
  virtual uint64_t liveBytes() const = 0;

  /// Bytes of resident memory attributable to this allocator.
  virtual uint64_t residentBytes() const = 0;

  /// Human-readable allocator name for reports.
  virtual std::string name() const = 0;
};

/// Throws the std::invalid_argument of a deallocate() or usableSize()
/// (\p Operation) of an address \p Owner does not own: one it never
/// returned, one inside a live object, or one already freed. Misuse that
/// crosses the allocator interface is checked in every build, on the
/// allocator's side, rather than asserted.
[[noreturn]] void throwNotOwned(const Allocator &Owner, const char *Operation,
                                uint64_t Addr);

} // namespace halo

#endif // HALO_MEM_ALLOCATOR_H
