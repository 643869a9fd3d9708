//===- profile/RecordingArena.h - The id-encoding profiling arena -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator every profiling run is served by, and the one definition
/// of its id encoding. Object `id` -- the allocation order -- starts at
/// ArenaBase + id * 2^32, so an address encodes (object id, offset) and
/// attributing an access is a shift and a bounds check: LiveObjectMap
/// resolves the profilers' accesses this way, and TraceRecorder writes
/// traces of object-relative accesses. A profile depends only on which
/// object an access touches and on the allocation order, never on
/// addresses, and profiling runs attach no memory hierarchy, so the
/// unrealistic layout costs nothing.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PROFILE_RECORDINGARENA_H
#define HALO_PROFILE_RECORDINGARENA_H

#include "mem/Allocator.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace halo {

/// Serves the profiling runs of optimizeBinary and optimizeBinaryHds and
/// the replay path's recordings. Ids are never reused, and each object
/// keeps its requested size, so an interior pointer resolves to its object
/// exactly when its offset is below that size.
class RecordingArena final : public Allocator {
public:
  static constexpr uint64_t ArenaBase = 0x500000000000ull;
  static constexpr uint32_t IdShift = 32;
  /// Each object owns one slot of this many bytes.
  static constexpr uint64_t SlotBytes = 1ull << IdShift;
  /// Ids whose slot ends at or below 2^64.
  static constexpr uint64_t MaxObjects =
      (1ull << (64 - IdShift)) - (ArenaBase >> IdShift);

  /// The first address of object \p Id, for an encodable \p Id.
  static constexpr uint64_t encode(uint64_t Id) {
    return ArenaBase + (Id << IdShift);
  }
  /// The id whose slot holds \p Addr, or ~0ull below ArenaBase. Whether
  /// that object exists is the caller's to check.
  static constexpr uint64_t decodeId(uint64_t Addr) {
    return Addr < ArenaBase ? ~0ull : (Addr - ArenaBase) >> IdShift;
  }
  /// The offset of \p Addr within its slot.
  static constexpr uint64_t decodeOffset(uint64_t Addr) {
    return Addr & (SlotBytes - 1);
  }
  /// Whether object \p Id of \p Size bytes fits the encoding: its slot
  /// lies below 2^64 and holds all of its bytes.
  static constexpr bool encodable(uint64_t Id, uint64_t Size) {
    return Id < MaxObjects && Size < SlotBytes;
  }

  /// Throws std::length_error, in every build, for an object the encoding
  /// cannot hold (4 GiB or more, or an id past MaxObjects): it would run
  /// into the next id's slot and silently give a wrong profile.
  uint64_t allocate(const AllocRequest &Request) override {
    uint64_t Size = Request.Size ? Request.Size : 1;
    uint64_t Id = Sizes.size();
    if (!encodable(Id, Size))
      throw std::length_error("recording arena: object " +
                              std::to_string(Id) + " of " +
                              std::to_string(Size) +
                              " bytes exceeds the id encoding");
    Sizes.push_back(Size);
    Freed.push_back(false);
    Live += Size;
    return encode(Id);
  }
  void deallocate(uint64_t Addr) override {
    uint32_t Id = idOf(Addr);
    assert(Id != ~0u && !Freed[Id] && "bad free");
    Freed[Id] = true;
    Live -= Sizes[Id];
  }
  bool owns(uint64_t Addr) const override {
    uint32_t Id = idOf(Addr);
    return Id != ~0u && !Freed[Id];
  }
  uint64_t usableSize(uint64_t Addr) const override {
    uint32_t Id = idOf(Addr);
    assert(Id != ~0u && "usableSize of a foreign address");
    return Sizes[Id];
  }
  uint64_t liveBytes() const override { return Live; }
  uint64_t residentBytes() const override { return Live; }
  std::string name() const override { return "recording-arena"; }

  /// True while object \p Id has not been freed.
  bool liveId(uint32_t Id) const { return !Freed[Id]; }

  /// The object id \p Addr points into, or ~0u for foreign addresses.
  /// Interior pointers resolve to their object as long as the offset is
  /// within the requested size (LiveObjectMap's containment rule).
  uint32_t idOf(uint64_t Addr) const {
    uint64_t Id = decodeId(Addr);
    return Id < Sizes.size() && decodeOffset(Addr) < Sizes[Id]
               ? static_cast<uint32_t>(Id)
               : ~0u;
  }

private:
  std::vector<uint64_t> Sizes; ///< By id; ids are never reused.
  std::vector<uint8_t> Freed;  ///< By id.
  uint64_t Live = 0;
};

} // namespace halo

#endif // HALO_PROFILE_RECORDINGARENA_H
