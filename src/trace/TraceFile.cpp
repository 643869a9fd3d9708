//===- trace/TraceFile.cpp - Block-compressed trace format -----------------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "support/Hash.h"
#include "support/Lz.h"

#include <cassert>
#include <fstream>
#include <iterator>
#include <stdexcept>

using namespace halo;

//===----------------------------------------------------------------------===//
// TraceFileWriter
//===----------------------------------------------------------------------===//

TraceFileWriter::TraceFileWriter(BinaryWriter &W) : Out(W) {
  Out.u32(TraceMagic);
  Out.u32(TraceFormatVersion);
}

void TraceFileWriter::addBlock(const uint8_t *Raw, size_t RawN,
                               uint64_t EventsAfter, uint64_t ObjectsAfter,
                               uint64_t ReallocsAfter) {
  assert(!Finished && "block after finish()");
  assert(RawN > 0 && "empty block");
  std::vector<uint8_t> Comp = lz::compress(Raw, RawN);
  const uint8_t *Payload = Comp.data();
  size_t PayloadN = Comp.size();
  TraceBlockInfo Info;
  Info.Method = 1;
  if (PayloadN >= RawN) { // Compression did not pay: store raw.
    Payload = Raw;
    PayloadN = RawN;
    Info.Method = 0;
  }
  Info.CompBytes = PayloadN;
  Info.RawBytes = RawN;
  Info.Events = EventsAfter - PrevEvents;
  Info.FirstObject = PrevObjects;
  Info.FirstRealloc = PrevReallocs;
  Info.Checksum = fnv1a(Payload, PayloadN);
  Out.bytes(Payload, PayloadN);
  Table.push_back(Info);
  PrevEvents = EventsAfter;
  PrevObjects = ObjectsAfter;
  PrevReallocs = ReallocsAfter;
  RawTotal += RawN;
}

void TraceFileWriter::finish(const TraceCounts &Counts, uint64_t Objects) {
  assert(!Finished && "finish() twice");
  assert(Counts.total() == PrevEvents &&
         "unwritten records at finish (counts disagree with the blocks)");
  assert(Objects == PrevObjects && Counts.Reallocs == PrevReallocs &&
         "unwritten records at finish (counts disagree with the blocks)");
  Finished = true;
  BinaryWriter FW;
  FW.varint(Table.size());
  FW.varint(Counts.Calls);
  FW.varint(Counts.Returns);
  FW.varint(Counts.Allocs);
  FW.varint(Counts.Frees);
  FW.varint(Counts.Loads);
  FW.varint(Counts.Stores);
  FW.varint(Counts.RawLoads);
  FW.varint(Counts.RawStores);
  FW.varint(Counts.Computes);
  FW.varint(Counts.Reallocs);
  FW.varint(Objects);
  FW.varint(RawTotal);
  for (const TraceBlockInfo &B : Table) {
    FW.u8(B.Method);
    FW.varint(B.CompBytes);
    FW.varint(B.RawBytes);
    FW.varint(B.Events);
    FW.varint(B.FirstObject);
    FW.varint(B.FirstRealloc);
    FW.u64(B.Checksum);
  }
  Out.bytes(FW.buffer().data(), FW.size());
  Out.u64(fnv1a(FW.buffer().data(), FW.size()));
  Out.u64(FW.size());
  Out.u32(TraceEndMagic);
}

//===----------------------------------------------------------------------===//
// Index parsing
//===----------------------------------------------------------------------===//

namespace {
[[noreturn]] void badTrace(const std::string &What) {
  throw SerializationError("trace file: " + What);
}
} // namespace

TraceIndex halo::parseTraceIndex(const uint8_t *Data, size_t Size) {
  if (Size < TraceHeaderBytes + TraceTrailerBytes)
    badTrace("image smaller than header + trailer");
  BinaryReader HR(Data, TraceHeaderBytes);
  if (HR.u32() != TraceMagic)
    badTrace("bad magic");
  uint32_t Version = HR.u32();
  if (Version != TraceFormatVersion)
    badTrace("unknown format version " + std::to_string(Version));

  BinaryReader TR(Data + Size - TraceTrailerBytes, TraceTrailerBytes);
  uint64_t FooterChecksum = TR.u64();
  uint64_t FooterBytes = TR.u64();
  if (TR.u32() != TraceEndMagic)
    badTrace("bad end magic (truncated?)");
  if (FooterBytes > Size - TraceHeaderBytes - TraceTrailerBytes)
    badTrace("footer larger than the image");
  const uint8_t *Footer = Data + Size - TraceTrailerBytes - FooterBytes;
  if (fnv1a(Footer, FooterBytes) != FooterChecksum)
    badTrace("footer checksum mismatch");

  BinaryReader FR(Footer, static_cast<size_t>(FooterBytes));
  TraceIndex Idx;
  uint64_t NumBlocks = FR.varint();
  Idx.Counts.Calls = FR.varint();
  Idx.Counts.Returns = FR.varint();
  Idx.Counts.Allocs = FR.varint();
  Idx.Counts.Frees = FR.varint();
  Idx.Counts.Loads = FR.varint();
  Idx.Counts.Stores = FR.varint();
  Idx.Counts.RawLoads = FR.varint();
  Idx.Counts.RawStores = FR.varint();
  Idx.Counts.Computes = FR.varint();
  Idx.Counts.Reallocs = FR.varint();
  Idx.Objects = FR.varint();
  Idx.TotalRawBytes = FR.varint();
  // Object ids are minted by Alloc/Realloc records; disagreement means
  // the footer is not a faithful index.
  if (Idx.Objects != Idx.Counts.Allocs + Idx.Counts.Reallocs ||
      Idx.Objects > UINT32_MAX)
    badTrace("object count mismatch");
  uint64_t BlockRegion = Size - TraceHeaderBytes - TraceTrailerBytes -
                         FooterBytes;
  if (NumBlocks > BlockRegion) // Every block holds at least one byte.
    badTrace("block count larger than the block region");
  Idx.Blocks.reserve(static_cast<size_t>(NumBlocks));
  uint64_t Offset = 0, Events = 0, RawOffset = 0;
  for (uint64_t I = 0; I < NumBlocks; ++I) {
    TraceBlockInfo B;
    B.Method = FR.u8();
    B.CompBytes = FR.varint();
    B.RawBytes = FR.varint();
    B.Events = FR.varint();
    B.FirstObject = FR.varint();
    B.FirstRealloc = FR.varint();
    B.Checksum = FR.u64();
    if (B.Method > 1)
      badTrace("unknown block compression method");
    if (B.CompBytes == 0 || B.RawBytes == 0 || B.Events == 0)
      badTrace("empty block entry");
    if (B.Method == 0 && B.CompBytes != B.RawBytes)
      badTrace("raw block sizes disagree");
    if (B.CompBytes > BlockRegion - Offset)
      badTrace("block overruns the block region");
    if (!Idx.Blocks.empty() &&
        (B.FirstObject < Idx.Blocks.back().FirstObject ||
         B.FirstRealloc < Idx.Blocks.back().FirstRealloc))
      badTrace("non-monotone block index");
    if (B.FirstObject > Idx.Objects || B.FirstRealloc > Idx.Counts.Reallocs)
      badTrace("block index exceeds the trace totals");
    B.FileOffset = Offset;
    B.FirstEvent = Events;
    B.RawOffset = RawOffset;
    Offset += B.CompBytes;
    Events += B.Events;
    RawOffset += B.RawBytes;
    Idx.Blocks.push_back(B);
  }
  FR.expectEnd("trace footer");
  if (Offset != BlockRegion)
    badTrace("block sizes do not cover the block region");
  if (Events != Idx.Counts.total())
    badTrace("block event counts disagree with the totals");
  if (RawOffset != Idx.TotalRawBytes)
    badTrace("block raw sizes disagree with the totals");
  if (!Idx.Blocks.empty() && (Idx.Blocks.front().FirstObject != 0 ||
                              Idx.Blocks.front().FirstRealloc != 0))
    badTrace("first block does not start at the trace origin");
  return Idx;
}

//===----------------------------------------------------------------------===//
// MappedTrace
//===----------------------------------------------------------------------===//

MappedTrace MappedTrace::open(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("trace file: cannot open " + Path);
  std::vector<uint8_t> Image((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (In.bad())
    throw std::runtime_error("trace file: cannot read " + Path);
  BinaryReader R(Image);
  MappedTrace T;
  static_cast<EventTrace &>(T) = EventTrace::load(R);
  return T;
}
