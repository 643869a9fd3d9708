//===- profile/LiveObjectMap.h - Live heap-object tracking -----*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiler's view of the live heap: every allocation is tracked "at an
/// object-level granularity" (Section 4.1) so loads and stores can be
/// attributed to the object (and hence the allocation context) they touch.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PROFILE_LIVEOBJECTMAP_H
#define HALO_PROFILE_LIVEOBJECTMAP_H

#include "profile/RecordingArena.h"
#include "trace/Context.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

namespace halo {

/// Objects are numbered in allocation order: the Nth insert gets id N.
using ObjectId = uint32_t;

/// Per-object metadata, kept for the lifetime of the profile so traces can
/// refer to freed objects. Only Live changes after insertion.
struct ObjectRecord {
  uint64_t Addr = 0;
  uint64_t Size = 0;
  ContextId Ctx = InvalidId;
  CallSiteId ImmediateSite = InvalidId; ///< malloc call site (for HDS).
  /// Addr is the RecordingArena encoding of this object's id, so find()
  /// resolves it by arithmetic instead of through the interval map.
  bool InArena = false;
  bool Live = true;
};

/// Maps addresses to live heap objects, by one of two lookups chosen per
/// object at insert. An object whose address is the RecordingArena
/// encoding of its own id -- every object of a profiling run, which the
/// arena serves -- is found by decoding the id from the address and
/// checking liveness and the offset against its record; its insert and
/// erase touch no map. Any other object goes through an ordered interval
/// map with a last-hit cache: the profilers over another allocator
/// (benchmark/halo_bench_layers' decomposed profile runs over
/// SizeClassAllocator) and the arena-versus-interval oracle in
/// tests/profiler_test.cpp.
class LiveObjectMap {
public:
  /// Registers a new live object; returns its id, the number of objects
  /// inserted before it. \p Addr must not overlap any live object.
  ObjectId insert(uint64_t Addr, uint64_t Size, ContextId Ctx,
                  CallSiteId ImmediateSite);

  /// Removes the live object starting at \p Addr; returns its id.
  ObjectId erase(uint64_t Addr);

  /// Finds the live object containing \p Addr, or ~0u ("not a heap object").
  ObjectId find(uint64_t Addr) const {
    uint64_t Id = RecordingArena::decodeId(Addr);
    if (Id < Records.size()) {
      const ObjectRecord &Rec = Records[Id];
      if (Rec.InArena && Rec.Live &&
          RecordingArena::decodeOffset(Addr) < Rec.Size)
        return static_cast<ObjectId>(Id);
    }
    return ByAddr.empty() ? ~0u : findInMap(Addr);
  }

  /// Metadata of any ever-allocated object (live or freed).
  const ObjectRecord &record(ObjectId Id) const {
    assert(Id < Records.size() && "bad object id");
    return Records[Id];
  }

  uint64_t liveCount() const { return ByAddr.size() + LiveInArena; }
  uint64_t totalAllocated() const { return Records.size(); }

private:
  /// The interval-map lookup. Consecutive accesses overwhelmingly hit the
  /// same object, so the last successful lookup is cached and re-checked
  /// in O(1) before the ordered map is consulted.
  ObjectId findInMap(uint64_t Addr) const;

  std::map<uint64_t, ObjectId> ByAddr; ///< start addr -> live object.
  std::vector<ObjectRecord> Records;   ///< by ObjectId, never shrinks.
  uint64_t LiveInArena = 0;            ///< Live objects not in ByAddr.
  /// Last object findInMap() returned; invalidated when that object is
  /// freed. Inserts never overlap live objects, so a cached hit stays
  /// valid.
  mutable ObjectId LastFound = ~0u;
};

} // namespace halo

#endif // HALO_PROFILE_LIVEOBJECTMAP_H
