//===- tests/trace_file_test.cpp - Saved trace format ------------------------===//
//
// The saved-trace contract, pinned from the bottom up: the LZ block codec
// round-trips and rejects malformed streams; save/load round-trips and
// re-saving reproduces the bytes; the footer index describes exactly the
// blocks; and a trace file opened with MappedTrace::open is a loaded
// trace: corruption of any byte is rejected at open(), and its cursor
// decodes record-for-record what the recording's cursor decodes.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "support/Lz.h"
#include "trace/EventTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>

#include <unistd.h>

using namespace halo;

namespace {

/// A temp file path, unlinked on destruction.
class TempFile {
public:
  TempFile() {
    char Template[] = "/tmp/halo_trace_file_test.XXXXXX";
    int Fd = mkstemp(Template);
    EXPECT_GE(Fd, 0);
    close(Fd);
    Path = Template;
  }
  ~TempFile() { unlink(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Records one deterministic workload run into an in-RAM trace.
EventTrace recordTrace(const std::string &Benchmark, Scale S, uint64_t Seed) {
  auto W = createWorkload(Benchmark);
  Program P;
  W->build(P);
  EventTrace Trace;
  RecordingArena Arena;
  Runtime RT(P, Arena);
  TraceRecorder Recorder(Trace, Arena);
  RT.addObserver(&Recorder);
  W->run(RT, S, Seed);
  return Trace;
}

/// save()s \p Trace into a fresh buffer.
std::vector<uint8_t> saveBytes(const EventTrace &Trace,
                               uint64_t BlockBytes = 0) {
  BinaryWriter W;
  Trace.save(W, BlockBytes);
  return W.buffer();
}

/// Writes \p Bytes to \p Path.
void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  ASSERT_EQ(std::fclose(F), 0);
}

} // namespace

//===----------------------------------------------------------------------===//
// The block codec
//===----------------------------------------------------------------------===//

TEST(LzCodec, RoundTripsVariedInputs) {
  std::mt19937_64 Rng(42);
  auto RoundTrip = [](const std::vector<uint8_t> &In, const char *What) {
    SCOPED_TRACE(What);
    std::vector<uint8_t> Comp = lz::compress(In.data(), In.size());
    EXPECT_LE(Comp.size(), lz::maxCompressedSize(In.size()));
    std::vector<uint8_t> Out(In.size());
    lz::decompress(Comp.data(), Comp.size(), Out.data(), Out.size());
    EXPECT_EQ(Out, In);
  };

  RoundTrip({}, "empty");
  RoundTrip({7}, "one byte");
  RoundTrip(std::vector<uint8_t>(100000, 0xAA), "constant run");

  // Incompressible: random bytes survive the raw-heavy token path.
  std::vector<uint8_t> Random(70000);
  for (uint8_t &B : Random)
    B = static_cast<uint8_t>(Rng());
  RoundTrip(Random, "random");

  // Trace-shaped: short repeating record skeletons with drifting operands,
  // long enough that matches must reach back across the 64 KiB window
  // boundary (which the codec must refuse, not mis-encode).
  std::vector<uint8_t> TraceLike;
  for (uint32_t I = 0; I < 200000; ++I) {
    TraceLike.push_back(static_cast<uint8_t>(I % 12));
    TraceLike.push_back(static_cast<uint8_t>((I / 7) & 0x7F));
    TraceLike.push_back(static_cast<uint8_t>(I & 0x3F));
  }
  RoundTrip(TraceLike, "trace-shaped");

  // Mixed: compressible spans interleaved with random ones.
  std::vector<uint8_t> Mixed;
  for (int Span = 0; Span < 64; ++Span) {
    size_t N = 100 + static_cast<size_t>(Rng() % 4000);
    if (Span & 1)
      for (size_t I = 0; I < N; ++I)
        Mixed.push_back(static_cast<uint8_t>(Rng()));
    else
      Mixed.insert(Mixed.end(), N, static_cast<uint8_t>(Span));
  }
  RoundTrip(Mixed, "mixed");
}

TEST(LzCodec, RejectsMalformedStreams) {
  std::vector<uint8_t> In(5000);
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = static_cast<uint8_t>(I * 31 % 251);
  std::vector<uint8_t> Comp = lz::compress(In.data(), In.size());
  std::vector<uint8_t> Out(In.size());

  // Truncated source: the decoder must consume exactly SrcN.
  EXPECT_THROW(
      lz::decompress(Comp.data(), Comp.size() - 1, Out.data(), Out.size()),
      SerializationError);
  // Announced destination off by one in either direction.
  EXPECT_THROW(
      lz::decompress(Comp.data(), Comp.size(), Out.data(), Out.size() - 1),
      SerializationError);
  std::vector<uint8_t> Bigger(In.size() + 1);
  EXPECT_THROW(lz::decompress(Comp.data(), Comp.size(), Bigger.data(),
                              Bigger.size()),
               SerializationError);
  // A hand-built sequence whose match offset points before the start of
  // the output: token = no literals + minimum match, offset 0xFFFF.
  const uint8_t BadOffset[] = {0x00, 0xFF, 0xFF};
  uint8_t Small[4];
  EXPECT_THROW(lz::decompress(BadOffset, sizeof(BadOffset), Small, 4),
               SerializationError);
  // A zero match offset (self-overlap before any byte exists).
  const uint8_t ZeroOffset[] = {0x00, 0x00, 0x00};
  EXPECT_THROW(lz::decompress(ZeroOffset, sizeof(ZeroOffset), Small, 4),
               SerializationError);
  // Empty source cannot produce a non-empty destination.
  EXPECT_THROW(lz::decompress(Comp.data(), 0, Out.data(), Out.size()),
               SerializationError);
}

//===----------------------------------------------------------------------===//
// Format: save/load, the index
//===----------------------------------------------------------------------===//

TEST(TraceFileFormat, SaveLoadRoundTripsAcrossBlockCounts) {
  EventTrace Original = recordTrace("ft", Scale::Test, 1);
  // 512-byte blocks force hundreds of cuts; the default typically one.
  for (uint64_t BlockBytes : {uint64_t(512), uint64_t(0)}) {
    SCOPED_TRACE("block bytes " + std::to_string(BlockBytes));
    std::vector<uint8_t> Saved = saveBytes(Original, BlockBytes);
    BinaryReader R(Saved.data(), Saved.size());
    EventTrace Loaded = EventTrace::load(R);
    EXPECT_EQ(Loaded.numEvents(), Original.numEvents());
    EXPECT_EQ(Loaded.numObjects(), Original.numObjects());
    EXPECT_EQ(Loaded.byteSize(), Original.byteSize());
    EXPECT_EQ(Loaded.counts().Allocs, Original.counts().Allocs);
    // Re-saving reproduces the stored bytes exactly (same block rule).
    EXPECT_EQ(saveBytes(Loaded, BlockBytes), Saved);
  }
}

TEST(TraceFileFormat, IndexDescribesExactlyTheBlocks) {
  EventTrace Trace = recordTrace("ft", Scale::Test, 2);
  std::vector<uint8_t> Saved = saveBytes(Trace, /*BlockBytes=*/1024);
  TraceIndex Idx = parseTraceIndex(Saved.data(), Saved.size());

  ASSERT_GT(Idx.Blocks.size(), 1u);
  EXPECT_EQ(Idx.Counts.total(), Trace.numEvents());
  EXPECT_EQ(Idx.Objects, Trace.numObjects());
  EXPECT_EQ(Idx.TotalRawBytes, Trace.byteSize());

  uint64_t Events = 0, Raw = 0, Comp = 0;
  for (size_t B = 0; B < Idx.Blocks.size(); ++B) {
    const TraceBlockInfo &Blk = Idx.Blocks[B];
    SCOPED_TRACE("block " + std::to_string(B));
    // The derived fields are running sums of the predecessors.
    EXPECT_EQ(Blk.FirstEvent, Events);
    EXPECT_EQ(Blk.RawOffset, Raw);
    EXPECT_EQ(Blk.FileOffset, Comp);
    EXPECT_GT(Blk.Events, 0u);
    // Every block but the last reached the cut threshold.
    if (B + 1 < Idx.Blocks.size()) {
      EXPECT_GE(Blk.RawBytes, 1024u);
    }
    Events += Blk.Events;
    Raw += Blk.RawBytes;
    Comp += Blk.CompBytes;
  }
  EXPECT_EQ(Events, Trace.numEvents());
  EXPECT_EQ(Raw, Trace.byteSize());
  // Payloads fit strictly inside framing + footer.
  EXPECT_LT(TraceHeaderBytes + Comp + TraceTrailerBytes, Saved.size());
}

TEST(TraceFileFormat, OpenRejectsEveryCorruption) {
  EventTrace Trace = recordTrace("ft", Scale::Test, 4);
  std::vector<uint8_t> Saved = saveBytes(Trace, /*BlockBytes=*/4096);
  ASSERT_GT(Saved.size(), 64u);

  TempFile File;
  writeFile(File.path(), Saved);
  EXPECT_NO_THROW(MappedTrace::open(File.path()));

  auto ExpectRejected = [&](std::vector<uint8_t> Bytes, const char *What) {
    SCOPED_TRACE(What);
    TempFile Bad;
    writeFile(Bad.path(), Bytes);
    EXPECT_THROW(MappedTrace::open(Bad.path()), SerializationError);
  };

  std::vector<uint8_t> Mut = Saved;
  Mut[0] ^= 0xFF; // Header magic.
  ExpectRejected(Mut, "bad magic");

  Mut = Saved;
  Mut[4] += 1; // Version.
  ExpectRejected(Mut, "unknown version");

  Mut = Saved;
  Mut[TraceHeaderBytes + Mut.size() / 3] ^= 0x01; // A payload byte.
  ExpectRejected(Mut, "block bit flip");

  Mut = Saved;
  Mut[Mut.size() - TraceTrailerBytes - 2] ^= 0x10; // A footer byte.
  ExpectRejected(Mut, "footer bit flip");

  Mut.assign(Saved.begin(), Saved.begin() + Saved.size() / 2);
  ExpectRejected(Mut, "truncated");

  ExpectRejected({1, 2, 3}, "garbage");

  // Missing file: an I/O error, not a format error.
  EXPECT_THROW(MappedTrace::open("/nonexistent/trace"), std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Opened-file decode
//===----------------------------------------------------------------------===//

TEST(MappedTraceDecode, CursorMatchesInRamCursorAcrossBlockBoundaries) {
  EventTrace Trace = recordTrace("health", Scale::Test, 6);
  std::vector<uint8_t> Saved = saveBytes(Trace, /*BlockBytes=*/2048);
  ASSERT_GT(parseTraceIndex(Saved.data(), Saved.size()).Blocks.size(), 2u);
  TempFile File;
  writeFile(File.path(), Saved);
  MappedTrace Opened = MappedTrace::open(File.path());
  EXPECT_EQ(Opened.numEvents(), Trace.numEvents());
  EXPECT_EQ(Opened.numObjects(), Trace.numObjects());
  EXPECT_EQ(Opened.byteSize(), Trace.byteSize());

  // Chunk sizes chosen to land fills on, before, and after block cuts.
  for (size_t ChunkSize : {1u, 13u, 4096u}) {
    SCOPED_TRACE("chunk " + std::to_string(ChunkSize));
    EventTrace::Cursor InRam = Trace.cursor();
    MappedTrace::Cursor OnDisk = Opened.cursor();
    std::vector<TraceEvent> A(ChunkSize), B(ChunkSize);
    uint64_t Total = 0;
    for (;;) {
      size_t NB = OnDisk.fill(B.data(), ChunkSize);
      size_t NA = InRam.fill(A.data(), ChunkSize);
      ASSERT_EQ(NA, NB);
      if (!NB)
        break;
      for (size_t I = 0; I < NB; ++I) {
        ASSERT_EQ(A[I].Op, B[I].Op) << "record " << Total + I;
        switch (A[I].Op) {
        case TraceOp::Return:
          break;
        case TraceOp::Call:
        case TraceOp::Free:
        case TraceOp::Compute:
          EXPECT_EQ(A[I].A, B[I].A);
          break;
        case TraceOp::Alloc:
        case TraceOp::LoadBase:
        case TraceOp::StoreBase:
        case TraceOp::LoadRaw:
        case TraceOp::StoreRaw:
          EXPECT_EQ(A[I].A, B[I].A);
          EXPECT_EQ(A[I].B, B[I].B);
          break;
        case TraceOp::Load:
        case TraceOp::Store:
        case TraceOp::Realloc:
          EXPECT_EQ(A[I].A, B[I].A);
          EXPECT_EQ(A[I].B, B[I].B);
          EXPECT_EQ(A[I].C, B[I].C);
          break;
        }
      }
      Total += NB;
    }
    EXPECT_TRUE(InRam.atEnd());
    EXPECT_TRUE(OnDisk.atEnd());
    EXPECT_EQ(Total, Trace.numEvents());
  }
}
