//===- profile/LiveObjectMap.cpp - Live heap-object tracking ---------------===//

#include "profile/LiveObjectMap.h"

using namespace halo;

ObjectId LiveObjectMap::insert(uint64_t Addr, uint64_t Size, ContextId Ctx,
                               CallSiteId ImmediateSite) {
  ObjectId Id = static_cast<ObjectId>(Records.size());
  Size = Size ? Size : 1;
  bool InArena = RecordingArena::encodable(Id, Size) &&
                 Addr == RecordingArena::encode(Id);
  Records.push_back(ObjectRecord{Addr, Size, Ctx, ImmediateSite, InArena});
  if (InArena) {
    ++LiveInArena;
    return Id;
  }
  [[maybe_unused]] auto [It, Inserted] = ByAddr.emplace(Addr, Id);
  assert(Inserted && "object overlaps a live allocation");
  return Id;
}

ObjectId LiveObjectMap::erase(uint64_t Addr) {
  uint64_t ArenaId = RecordingArena::decodeId(Addr);
  if (ArenaId < Records.size()) {
    ObjectRecord &Rec = Records[ArenaId];
    if (Rec.InArena && Rec.Live && Rec.Addr == Addr) {
      Rec.Live = false;
      --LiveInArena;
      return static_cast<ObjectId>(ArenaId);
    }
  }
  auto It = ByAddr.find(Addr);
  assert(It != ByAddr.end() && "freeing unknown object");
  ObjectId Id = It->second;
  if (Id == LastFound)
    LastFound = ~0u;
  ByAddr.erase(It);
  Records[Id].Live = false;
  return Id;
}

ObjectId LiveObjectMap::findInMap(uint64_t Addr) const {
  if (LastFound != ~0u) {
    const ObjectRecord &Rec = Records[LastFound];
    if (Addr - Rec.Addr < Rec.Size) // Unsigned: also rejects Addr < Rec.Addr.
      return LastFound;
  }
  auto It = ByAddr.upper_bound(Addr);
  if (It == ByAddr.begin())
    return ~0u;
  --It;
  const ObjectRecord &Rec = Records[It->second];
  if (Addr < Rec.Addr + Rec.Size) {
    LastFound = It->second;
    return It->second;
  }
  return ~0u;
}
