//===- trace/TraceFile.cpp - Block-compressed trace format -----------------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "support/Hash.h"
#include "support/Lz.h"

#include <cassert>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

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

MappedTrace &MappedTrace::operator=(MappedTrace &&Other) noexcept {
  if (this != &Other) {
    if (Map)
      ::munmap(Map, Size);
    Map = Other.Map;
    Size = Other.Size;
    Blocks = Other.Blocks;
    Idx = std::move(Other.Idx);
    Other.Map = nullptr;
    Other.Size = 0;
    Other.Blocks = nullptr;
  }
  return *this;
}

MappedTrace::~MappedTrace() {
  if (Map)
    ::munmap(Map, Size);
}

MappedTrace MappedTrace::open(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    throw std::runtime_error("trace file: cannot open " + Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    ::close(Fd);
    throw std::runtime_error("trace file: cannot stat " + Path);
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    throw SerializationError("trace file: empty image");
  }
  void *Base = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Base == MAP_FAILED)
    throw std::runtime_error("trace file: mmap failed for " + Path + ": " +
                             std::strerror(errno));
  MappedTrace T;
  T.Map = Base;
  T.Size = Size;
  ::madvise(Base, Size, MADV_SEQUENTIAL);
  // The destructor unmaps on any validation throw below.
  const uint8_t *Data = static_cast<const uint8_t *>(Base);
  T.Idx = parseTraceIndex(Data, Size);
  T.Blocks = Data + TraceHeaderBytes;
  // One streaming pass verifies every payload byte against its block
  // checksum, so later decodes need no re-verification. Consumed pages
  // are dropped as the pass advances past each block (they re-fault from
  // the page cache if decoding follows), keeping the pass itself bounded.
  for (const TraceBlockInfo &B : T.Idx.Blocks) {
    if (fnv1a(T.Blocks + B.FileOffset, static_cast<size_t>(B.CompBytes)) !=
        B.Checksum)
      badTrace("block checksum mismatch");
    if (T.Size >= (64u << 20))
      T.releaseBlock(static_cast<size_t>(&B - T.Idx.Blocks.data()));
  }
  return T;
}

void MappedTrace::decodeBlock(size_t B, std::vector<uint8_t> &Scratch) const {
  const TraceBlockInfo &Info = Idx.Blocks[B];
  Scratch.resize(static_cast<size_t>(Info.RawBytes));
  const uint8_t *Payload = Blocks + Info.FileOffset;
  if (Info.Method == 0)
    std::memcpy(Scratch.data(), Payload, static_cast<size_t>(Info.CompBytes));
  else
    lz::decompress(Payload, static_cast<size_t>(Info.CompBytes),
                   Scratch.data(), Scratch.size());
}

void MappedTrace::releaseBlock(size_t B) const {
  const TraceBlockInfo &Info = Idx.Blocks[B];
  uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Blocks + Info.FileOffset);
  uintptr_t End = Begin + static_cast<uintptr_t>(Info.CompBytes);
  // Only drop wholly-contained pages: the edges are shared with the
  // neighbouring blocks (or the header/footer).
  Begin = (Begin + Page - 1) & ~(Page - 1);
  End &= ~(Page - 1);
  if (Begin < End)
    ::madvise(reinterpret_cast<void *>(Begin), End - Begin, MADV_DONTNEED);
}

size_t MappedTrace::Cursor::fill(TraceEvent *Out, size_t MaxN) {
  size_t N = 0;
  while (N < MaxN) {
    if (R.atEnd()) {
      if (NextBlock > 0)
        T->releaseBlock(NextBlock - 1);
      if (NextBlock == T->numBlocks())
        break;
      T->decodeBlock(NextBlock++, Scratch);
      R = EventTrace::Reader(Scratch.data(), Scratch.data() + Scratch.size());
    }
    TraceEvent &E = Out[N++];
    E.Op = R.op();
    decodeTraceOperands(R, E.Op, E);
  }
  return N;
}
