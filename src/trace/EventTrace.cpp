//===- trace/EventTrace.cpp - Record-once/replay-many event traces ----------===//

#include "trace/EventTrace.h"

#include "support/BinaryIO.h"
#include "support/Hash.h"
#include "support/Lz.h"
#include "trace/TraceFile.h"

#include <cassert>
#include <cstring>

using namespace halo;

size_t EventTrace::Cursor::fill(TraceEvent *Out, size_t MaxN) {
  size_t N = 0;
  while (N < MaxN && !R.atEnd()) {
    TraceEvent &E = Out[N++];
    E.Op = R.op();
    decodeTraceOperands(R, E.Op, E);
  }
  return N;
}

void TraceRecorder::onCall(CallSiteId Site) { Trace.recordCall(Site); }

void TraceRecorder::onReturn(CallSiteId) { Trace.recordReturn(); }

void TraceRecorder::onAlloc([[maybe_unused]] uint64_t Addr, uint64_t Size,
                            CallSiteId MallocSite) {
  // The arena's ids and the trace's implicit minting advance in lockstep:
  // every allocation lands here, and every allocation is minted either by
  // recordAlloc below or by the enclosing composite's recordRealloc.
  assert(Arena.idOf(Addr) == Trace.numObjects() - (InRealloc ? 1 : 0) &&
         "arena ids diverged from the trace's minting order");
  if (!InRealloc)
    Trace.recordAlloc(MallocSite, Size);
}

void TraceRecorder::onFree(uint64_t Addr) {
  // The runtime notifies before the arena retires the object, so the id
  // still resolves here.
  ObjectId Id = Arena.idOf(Addr);
  assert(Id != ~0u && Arena.liveId(Id) && "freeing a dead object");
  if (!InRealloc)
    Trace.recordFree(Id);
}

void TraceRecorder::onAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
  if (InRealloc)
    return; // The copy loop's length is allocator-dependent; replay
            // re-derives it from the composite Realloc record.
  ObjectId Id = Arena.idOf(Addr);
  if (Id != ~0u && Arena.liveId(Id))
    Trace.recordAccess(Id, RecordingArena::decodeOffset(Addr), Size, IsStore);
  else
    Trace.recordRawAccess(Addr, Size, IsStore);
}

void TraceRecorder::onCompute(uint64_t Cycles) { Trace.recordCompute(Cycles); }

void TraceRecorder::onReallocBegin(uint64_t OldAddr, uint64_t NewSize,
                                   CallSiteId MallocSite) {
  assert(!InRealloc && "realloc cannot nest");
  ObjectId OldId = Arena.idOf(OldAddr);
  assert(OldId != ~0u && "realloc of an address no live object starts at");
  Trace.recordRealloc(OldId, MallocSite, NewSize);
  InRealloc = true;
}

void TraceRecorder::onReallocEnd(uint64_t) { InRealloc = false; }

//===----------------------------------------------------------------------===//
// Serialization (the block format of trace/TraceFile.h)
//===----------------------------------------------------------------------===//

void EventTrace::save(BinaryWriter &W, uint64_t BlockBytes) const {
  if (BlockBytes == 0)
    BlockBytes = TraceBlockBytes;
  TraceFileWriter FW(W);
  // Cut the buffer into blocks of whole records, each the shortest record
  // prefix of at least BlockBytes. Skipping a record needs no operand
  // decoding, just the varint continuation bit.
  const uint8_t *P = Buffer.data(), *End = P + Buffer.size();
  const uint8_t *BlockStart = P;
  uint64_t Events = 0, Minted = 0, Reallocs = 0;
  while (P != End) {
    TraceOp Op = static_cast<TraceOp>(*P++);
    for (unsigned K = traceOperandCount(Op); K; --K) {
      while (*P & 0x80)
        ++P;
      ++P;
    }
    ++Events;
    Minted += Op == TraceOp::Alloc || Op == TraceOp::Realloc;
    Reallocs += Op == TraceOp::Realloc;
    if (static_cast<uint64_t>(P - BlockStart) >= BlockBytes) {
      FW.addBlock(BlockStart, static_cast<size_t>(P - BlockStart), Events,
                  Minted, Reallocs);
      BlockStart = P;
    }
  }
  if (P != BlockStart)
    FW.addBlock(BlockStart, static_cast<size_t>(P - BlockStart), Events,
                Minted, Reallocs);
  FW.finish(Counts, Objects);
}

EventTrace EventTrace::load(BinaryReader &R) {
  // The trace image spans the remainder of the buffer (store entries end
  // with the trace payload; getTrace's expectEnd holds the contract).
  const uint8_t *Image = R.cursor();
  size_t Size = R.remaining();
  TraceIndex Idx = parseTraceIndex(Image, Size);
  EventTrace Trace;
  Trace.Counts = Idx.Counts;
  Trace.Objects = static_cast<ObjectId>(Idx.Objects);
  Trace.Buffer.resize(static_cast<size_t>(Idx.TotalRawBytes));
  const uint8_t *Blocks = Image + TraceHeaderBytes;
  for (const TraceBlockInfo &B : Idx.Blocks) {
    const uint8_t *Payload = Blocks + B.FileOffset;
    if (fnv1a(Payload, static_cast<size_t>(B.CompBytes)) != B.Checksum)
      throw SerializationError("trace file: block checksum mismatch");
    uint8_t *Dst = Trace.Buffer.data() + B.RawOffset;
    if (B.Method == 0)
      std::memcpy(Dst, Payload, static_cast<size_t>(B.CompBytes));
    else
      lz::decompress(Payload, static_cast<size_t>(B.CompBytes), Dst,
                     static_cast<size_t>(B.RawBytes));
  }
  R.skip(Size);
  return Trace;
}
