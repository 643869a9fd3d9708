//===- trace/Context.cpp - Allocation contexts ------------------------------===//

#include "trace/Context.h"

#include "support/BinaryIO.h"

#include <algorithm>

using namespace halo;

Context halo::reduceContext(const Context &Frames) {
  // Walk from the innermost frame outwards keeping first occurrences, then
  // restore outermost-first order.
  Context Reduced;
  Reduced.reserve(Frames.size());
  for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
    bool Seen = false;
    for (const CallFrame &Kept : Reduced)
      if (Kept == *It) {
        Seen = true;
        break;
      }
    if (!Seen)
      Reduced.push_back(*It);
  }
  std::reverse(Reduced.begin(), Reduced.end());
  return Reduced;
}

bool ContextInfo::chainContains(CallSiteId Site) const {
  return std::binary_search(Chain.begin(), Chain.end(), Site);
}

size_t ContextTable::FrameHash::operator()(const Context &C) const {
  // FNV-1a over the frame words.
  uint64_t Hash = 1469598103934665603ull;
  for (const CallFrame &F : C) {
    uint64_t Word = (uint64_t(F.Function) << 32) | F.Site;
    for (int Shift = 0; Shift < 64; Shift += 8) {
      Hash ^= (Word >> Shift) & 0xff;
      Hash *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(Hash);
}

ContextId ContextTable::intern(const Context &Reduced) {
  auto [It, Inserted] =
      Ids.emplace(Reduced, static_cast<ContextId>(Infos.size()));
  if (Inserted) {
    ContextInfo Info;
    Info.Frames = Reduced;
    Info.Chain.reserve(Reduced.size());
    for (const CallFrame &F : Reduced)
      Info.Chain.push_back(F.Site);
    std::sort(Info.Chain.begin(), Info.Chain.end());
    Info.Chain.erase(std::unique(Info.Chain.begin(), Info.Chain.end()),
                     Info.Chain.end());
    Infos.push_back(std::move(Info));
  }
  return It->second;
}

void ContextTable::save(BinaryWriter &W) const {
  W.varint(Infos.size());
  for (const ContextInfo &Info : Infos) {
    W.varint(Info.Frames.size());
    for (const CallFrame &F : Info.Frames) {
      W.varint(F.Function);
      W.varint(F.Site);
    }
    W.varint(Info.Allocations);
  }
}

ContextTable ContextTable::load(BinaryReader &R) {
  ContextTable Table;
  uint64_t Count = R.count();
  for (uint64_t I = 0; I < Count; ++I) {
    Context Frames;
    uint64_t NumFrames = R.count();
    Frames.reserve(static_cast<size_t>(NumFrames));
    for (uint64_t J = 0; J < NumFrames; ++J) {
      CallFrame F;
      uint64_t Function = R.varint();
      uint64_t Site = R.varint();
      if (Function > UINT32_MAX || Site > UINT32_MAX)
        throw SerializationError("context table: frame id out of range");
      F.Function = static_cast<FunctionId>(Function);
      F.Site = static_cast<CallSiteId>(Site);
      Frames.push_back(F);
    }
    // Re-interning replays the original assignment order, so the id must
    // come back unchanged; a duplicate context would collapse onto an
    // earlier id and shift every later one.
    ContextId Id = Table.intern(Frames);
    if (Id != I)
      throw SerializationError("context table: duplicate context on load");
    Table.info(Id).Allocations = R.varint();
  }
  return Table;
}

std::string ContextTable::describe(ContextId Id, const Program &Prog) const {
  const ContextInfo &Info = info(Id);
  std::string Text;
  for (size_t I = 0; I < Info.Frames.size(); ++I) {
    if (I)
      Text += ">";
    Text += Prog.callSite(Info.Frames[I].Site).Label;
  }
  return Text;
}
