//===- trace/EventTrace.h - Record-once/replay-many event traces -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An allocator-independent recording of one workload run's event stream.
///
/// Every `Evaluation::measure` call used to re-execute the workload model
/// end to end, re-deriving the identical event stream for each allocator
/// kind x trial x scale. An EventTrace captures that stream once -- as a
/// flat, compact binary buffer of call/return/alloc/free/access/compute
/// records -- and `Runtime::replay` re-executes it under any allocator
/// configuration without the workload logic (the same separation of profile
/// collection from optimisation that BOLT applies to code layout).
///
/// Allocator independence is what makes the trace replayable: allocations
/// are recorded as (site, size) with an implicit sequential object id, and
/// heap accesses as (object id, offset), which the recording arena's
/// addresses encode -- so replay reconstructs the exact addresses *its*
/// allocator assigns, not the recorder's. Accesses outside any live heap
/// object (stack/global traffic) keep their raw address. realloc is
/// recorded as a single composite record because its internal copy length
/// depends on the serving allocator's usableSize(); replay re-derives it.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_TRACE_EVENTTRACE_H
#define HALO_TRACE_EVENTTRACE_H

#include "profile/LiveObjectMap.h"
#include "profile/RecordingArena.h"
#include "runtime/Runtime.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace halo {

class BinaryWriter;
class BinaryReader;

/// Tag byte of each trace record. Operands are LEB128 varints. Every
/// consumer dispatches on this with a fully-enumerated switch (no
/// default), so adding an op here makes -Wswitch flag each site that
/// needs updating.
enum class TraceOp : uint8_t {
  Call = 0,  ///< site
  Return,    ///< (no operands)
  Alloc,     ///< site, size; mints the next object id
  Free,      ///< object id
  Load,      ///< object id, offset, size
  Store,     ///< object id, offset, size
  LoadBase,  ///< object id, size (offset 0, the dominant access shape)
  StoreBase, ///< object id, size (offset 0)
  LoadRaw,   ///< address, size (non-heap traffic)
  StoreRaw,  ///< address, size (non-heap traffic)
  Compute,   ///< cycles
  Realloc,   ///< old object id, site, new size; mints the next object id
};

/// Operand count of \p Op (every operand is one varint), for consumers
/// that skip records without decoding them: the save-time block cutter.
inline unsigned traceOperandCount(TraceOp Op) {
  switch (Op) {
  case TraceOp::Return:
    return 0;
  case TraceOp::Call:
  case TraceOp::Free:
  case TraceOp::Compute:
    return 1;
  case TraceOp::Alloc:
  case TraceOp::LoadBase:
  case TraceOp::StoreBase:
  case TraceOp::LoadRaw:
  case TraceOp::StoreRaw:
    return 2;
  case TraceOp::Load:
  case TraceOp::Store:
  case TraceOp::Realloc:
    return 3;
  }
  return 0;
}

/// One decoded trace record: the tag plus up to three operands in record
/// order (A holds the first operand, B the second, C the third; fields
/// beyond the record's operand count are left untouched). The fixed
/// stride is what the batch decoder fills and the replay loop consumes --
/// decode and execution each run over flat arrays instead of alternating
/// per event.
struct TraceEvent {
  TraceOp Op;
  uint64_t A;
  uint64_t B;
  uint64_t C;
};

/// Per-kind record totals of a trace.
struct TraceCounts {
  uint64_t Calls = 0;
  uint64_t Returns = 0;
  uint64_t Allocs = 0;
  uint64_t Frees = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t RawLoads = 0;
  uint64_t RawStores = 0;
  uint64_t Computes = 0;
  uint64_t Reallocs = 0;

  uint64_t total() const {
    return Calls + Returns + Allocs + Frees + Loads + Stores + RawLoads +
           RawStores + Computes + Reallocs;
  }
};

/// The flat binary event buffer: a tag byte per record followed by varint
/// operands. Object ids are implicit -- the Nth Alloc/Realloc record mints
/// id N -- which both shrinks the encoding and pins the replay-time
/// allocation order to the recording order.
class EventTrace {
public:
  /// Sequential decoder over the buffer (the replay hot loop).
  class Reader {
  public:
    Reader(const uint8_t *Begin, const uint8_t *End) : P(Begin), End(End) {}

    bool atEnd() const { return P == End; }

    TraceOp op() {
      assert(P < End && "decoding past the end of the trace");
      return static_cast<TraceOp>(*P++);
    }

    uint64_t varint() {
      uint64_t V = *P++;
      if ((V & 0x80) == 0) // One-byte values dominate real traces.
        return V;
      V &= 0x7F;
      for (uint32_t Shift = 7;; Shift += 7) {
        uint8_t B = *P++;
        V |= static_cast<uint64_t>(B & 0x7F) << Shift;
        if ((B & 0x80) == 0)
          return V;
      }
    }

  private:
    const uint8_t *P;
    const uint8_t *End;
  };

  Reader reader() const {
    return Reader(Buffer.data(), Buffer.data() + Buffer.size());
  }

  /// Raw encoded bytes (byteSize() of them): a tag byte per record followed
  /// by its varint operands. The replay loop decodes straight from here.
  const uint8_t *data() const { return Buffer.data(); }

  /// Chunked batch decoder: decodes up to N records per fill() into a
  /// flat fixed-stride TraceEvent buffer, so consumers iterate an array
  /// instead of alternating decode and execution per record. (The replay
  /// hot loop in Runtime.cpp goes one step further and fuses decoding
  /// with address resolution; this cursor is the general-purpose form for
  /// tools and tests.)
  class Cursor {
  public:
    explicit Cursor(const EventTrace &Trace) : R(Trace.reader()) {}

    bool atEnd() const { return R.atEnd(); }

    /// Decodes up to \p MaxN records into \p Out; returns how many were
    /// decoded (0 only at the end of the trace).
    size_t fill(TraceEvent *Out, size_t MaxN);

  private:
    Reader R;
  };

  Cursor cursor() const { return Cursor(*this); }

  // -- Recording ---------------------------------------------------------
  void recordCall(CallSiteId Site) {
    emit(TraceOp::Call, Site);
    ++Counts.Calls;
  }
  void recordReturn() {
    emit(TraceOp::Return);
    ++Counts.Returns;
  }
  /// Returns the object id the new allocation was minted.
  ObjectId recordAlloc(CallSiteId Site, uint64_t Size) {
    emit(TraceOp::Alloc, Site, Size);
    ++Counts.Allocs;
    return Objects++;
  }
  void recordFree(ObjectId Id) {
    emit(TraceOp::Free, Id);
    ++Counts.Frees;
  }
  void recordAccess(ObjectId Id, uint64_t Offset, uint64_t Size,
                    bool IsStore) {
    if (Offset == 0)
      emit(IsStore ? TraceOp::StoreBase : TraceOp::LoadBase, Id, Size);
    else
      emit(IsStore ? TraceOp::Store : TraceOp::Load, Id, Offset, Size);
    ++(IsStore ? Counts.Stores : Counts.Loads);
  }
  void recordRawAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
    emit(IsStore ? TraceOp::StoreRaw : TraceOp::LoadRaw, Addr, Size);
    ++(IsStore ? Counts.RawStores : Counts.RawLoads);
  }
  void recordCompute(uint64_t Cycles) {
    emit(TraceOp::Compute, Cycles);
    ++Counts.Computes;
  }
  /// Returns the object id minted for the reallocated object.
  ObjectId recordRealloc(ObjectId Old, CallSiteId Site, uint64_t NewSize) {
    emit(TraceOp::Realloc, Old, Site, NewSize);
    ++Counts.Reallocs;
    return Objects++;
  }

  // -- Introspection -----------------------------------------------------
  const TraceCounts &counts() const { return Counts; }
  uint64_t numEvents() const { return Counts.total(); }
  /// Objects ever minted (Alloc + Realloc records).
  uint32_t numObjects() const { return Objects; }
  /// Encoded record bytes.
  uint64_t byteSize() const { return Buffer.size(); }
  bool empty() const { return Buffer.empty(); }

  // -- Serialization -----------------------------------------------------
  /// Writes the trace to \p W in the on-disk block format
  /// (trace/TraceFile.h): header, independently compressed blocks of
  /// whole records cut at \p BlockBytes (0 = the default TraceBlockBytes),
  /// footer index, trailer. save/load round-trips the record bytes
  /// exactly -- a loaded trace replays bit-identically to the recording
  /// it came from -- and re-saving a loaded trace reproduces the stored
  /// bytes. The format version guards the *encoding*; the artifact store
  /// additionally stamps every entry with the store schema version
  /// (cache invalidation by key).
  void save(BinaryWriter &W, uint64_t BlockBytes = 0) const;

  /// Decodes a save()d trace, which must span the remainder of \p R.
  /// Throws SerializationError on bad magic, unknown version, truncation,
  /// a checksum mismatch, or an index inconsistent with the payload
  /// (callers fall back to re-recording).
  static EventTrace load(BinaryReader &R);

private:
  static size_t putVarint(uint8_t *Tmp, size_t N, uint64_t V) {
    while (V >= 0x80) {
      Tmp[N++] = static_cast<uint8_t>(V) | 0x80;
      V >>= 7;
    }
    Tmp[N++] = static_cast<uint8_t>(V);
    return N;
  }

  /// Encodes one record into a stack scratch and appends it with a single
  /// insert (one growth check per record, not per byte).
  template <typename... OperandTs> void emit(TraceOp Op, OperandTs... Ops) {
    uint8_t Tmp[1 + sizeof...(OperandTs) * 10];
    size_t N = 0;
    Tmp[N++] = static_cast<uint8_t>(Op);
    ((N = putVarint(Tmp, N, static_cast<uint64_t>(Ops))), ...);
    Buffer.insert(Buffer.end(), Tmp, Tmp + N);
  }

  std::vector<uint8_t> Buffer;
  TraceCounts Counts;
  ObjectId Objects = 0;
};

/// Decodes the operands of one record whose tag \p Op was already
/// consumed. Unused fields stay untouched (consumers read only the
/// operands the op defines). Shared by EventTrace::Cursor and the
/// block-streaming MappedTrace::Cursor.
inline void decodeTraceOperands(EventTrace::Reader &R, TraceOp Op,
                                TraceEvent &E) {
  switch (Op) {
  case TraceOp::Return:
    break;
  case TraceOp::Call:
  case TraceOp::Free:
  case TraceOp::Compute:
    E.A = R.varint();
    break;
  case TraceOp::Alloc:
  case TraceOp::LoadBase:
  case TraceOp::StoreBase:
  case TraceOp::LoadRaw:
  case TraceOp::StoreRaw:
    E.A = R.varint();
    E.B = R.varint();
    break;
  case TraceOp::Load:
  case TraceOp::Store:
  case TraceOp::Realloc:
    E.A = R.varint();
    E.B = R.varint();
    E.C = R.varint();
    break;
  }
}

/// Observer that records a run into an EventTrace. The recording runtime
/// is served by \p Arena, whose addresses encode (object id, offset), so
/// attributing an access is arithmetic; addresses never enter the trace,
/// except for non-heap traffic.
class TraceRecorder final : public RuntimeObserver {
public:
  TraceRecorder(EventTrace &Trace, const RecordingArena &Arena)
      : Trace(Trace), Arena(Arena) {}

  void onCall(CallSiteId Site) override;
  void onReturn(CallSiteId Site) override;
  void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId MallocSite) override;
  void onFree(uint64_t Addr) override;
  void onAccess(uint64_t Addr, uint64_t Size, bool IsStore) override;
  void onCompute(uint64_t Cycles) override;
  void onReallocBegin(uint64_t OldAddr, uint64_t NewSize,
                      CallSiteId MallocSite) override;
  void onReallocEnd(uint64_t NewAddr) override;

private:
  EventTrace &Trace;
  const RecordingArena &Arena;
  /// Inside a composite realloc: primitives are not recorded (replay
  /// re-derives them via the replay allocator).
  bool InRealloc = false;
};

} // namespace halo

#endif // HALO_TRACE_EVENTTRACE_H
