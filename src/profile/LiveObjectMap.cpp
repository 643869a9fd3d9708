//===- profile/LiveObjectMap.cpp - Live heap-object tracking ---------------===//

#include "profile/LiveObjectMap.h"

using namespace halo;

ObjectId LiveObjectMap::insert(uint64_t Addr, uint64_t Size, ContextId Ctx,
                               CallSiteId ImmediateSite) {
  ObjectId Id = static_cast<ObjectId>(Records.size());
  Records.push_back(ObjectRecord{Addr, Size ? Size : 1, Ctx, ImmediateSite});
  [[maybe_unused]] auto [It, Inserted] = ByAddr.emplace(Addr, Id);
  assert(Inserted && "object overlaps a live allocation");
  return Id;
}

ObjectId LiveObjectMap::erase(uint64_t Addr) {
  auto It = ByAddr.find(Addr);
  assert(It != ByAddr.end() && "freeing unknown object");
  ObjectId Id = It->second;
  if (Id == LastFound)
    LastFound = ~0u;
  ByAddr.erase(It);
  return Id;
}

ObjectId LiveObjectMap::find(uint64_t Addr) const {
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
