//===- trace/TraceFile.h - Block-compressed trace format ---------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialized EventTrace format (version 2): what EventTrace::save
/// writes, EventTrace::load -- the one reader of saved traces -- reads,
/// and the artifact store keeps as a trace entry's payload. Replay always
/// runs on an in-RAM EventTrace; the block structure exists so a saved
/// image is compact (each block LZ-compressed) and every byte of it is
/// checksummed.
///
/// Layout (all multi-byte integers little-endian, varints LEB128):
///
///   header   u32 magic "HTRC"           u32 format version (2)
///   blocks   compressed block payloads, back to back, no inline headers
///   footer   varint numBlocks
///            varint x10 per-kind record counts   varint object count
///            varint total raw (pre-compression) bytes
///            per block: u8 method (0 raw, 1 lz)
///                       varint compressed bytes   varint raw bytes
///                       varint events
///                       varint objects minted before the block
///                       varint realloc records before the block
///                       u64 fnv1a of the compressed bytes
///   trailer  u64 fnv1a of the footer    u64 footer byte count
///            u32 end magic "CRTH"
///
/// Each block is a whole number of records, compressed independently
/// (support/Lz.h, with a raw fallback when compression does not pay), so
/// any block decodes without touching its predecessors; the footer entry
/// carries everything a decoder must seed -- the block's first event
/// ordinal, first object id, and first realloc ordinal. The footer lives
/// at the end (located through the fixed-size trailer, zip-style) because
/// the writer emits blocks before it can know their count. Checksums make
/// corruption detection block-granular: the artifact store treats any
/// validation failure as absence and re-records.
///
/// Blocks are cut by one deterministic rule -- the shortest record prefix
/// of at least TraceBlockBytes encoded bytes -- so saving the same
/// recording always produces the same bytes, and re-saving a loaded trace
/// reproduces the stored image exactly.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_TRACE_TRACEFILE_H
#define HALO_TRACE_TRACEFILE_H

#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

#include <string>
#include <vector>

namespace halo {

/// "HTRC" / "CRTH": the on-disk trace format's framing magics.
constexpr uint32_t TraceMagic = 0x43525448;
constexpr uint32_t TraceEndMagic = 0x48545243;
/// Version 2: the block-compressed format this file defines (version 1
/// was the flat single-buffer encoding; old entries read as absence).
constexpr uint32_t TraceFormatVersion = 2;
/// Default block cut threshold: 1 MiB raw amortises per-block costs over
/// ~200k records.
constexpr uint64_t TraceBlockBytes = 1ull << 20;
/// Fixed framing sizes: header (magic, version) and trailer (footer
/// checksum, footer size, end magic). The block region is everything in
/// between, minus the footer.
constexpr size_t TraceHeaderBytes = 4 + 4;
constexpr size_t TraceTrailerBytes = 8 + 8 + 4;

/// One footer entry, plus the offsets derived while parsing (each block's
/// position is the running sum of its predecessors' sizes).
struct TraceBlockInfo {
  uint8_t Method = 0;        ///< 0 = raw bytes, 1 = lz-compressed.
  uint64_t CompBytes = 0;    ///< On-disk payload size.
  uint64_t RawBytes = 0;     ///< Decoded (pre-compression) size.
  uint64_t Events = 0;       ///< Records in the block.
  uint64_t FirstObject = 0;  ///< Objects minted before the block.
  uint64_t FirstRealloc = 0; ///< Realloc records before the block.
  uint64_t Checksum = 0;     ///< fnv1a of the compressed bytes.
  // Derived at parse time:
  uint64_t FileOffset = 0;   ///< Payload offset from the region start.
  uint64_t FirstEvent = 0;   ///< Records before the block.
  uint64_t RawOffset = 0;    ///< Raw bytes before the block.
};

/// The decoded footer: whole-trace totals plus the block table.
struct TraceIndex {
  TraceCounts Counts;
  uint64_t Objects = 0;
  uint64_t TotalRawBytes = 0;
  std::vector<TraceBlockInfo> Blocks;
};

/// Parses and structurally validates the index of the \p Size-byte trace
/// image at \p Data: header and trailer magics, format version, footer
/// checksum, block sizes summing to the block region, totals consistent
/// with the per-block entries, monotone first-object/first-realloc
/// ordinals. Throws SerializationError on any mismatch. Per-block payload
/// checksums are NOT verified here (that needs a pass over the payload
/// bytes, which EventTrace::load makes as it decodes each block).
TraceIndex parseTraceIndex(const uint8_t *Data, size_t Size);

/// Writes a trace image into a BinaryWriter block by block (the writer
/// behind EventTrace::save): header up front, each addBlock() compresses
/// and appends one payload, finish() seals footer and trailer.
class TraceFileWriter {
public:
  /// Output accumulates in \p W.
  explicit TraceFileWriter(BinaryWriter &W);

  TraceFileWriter(const TraceFileWriter &) = delete;
  TraceFileWriter &operator=(const TraceFileWriter &) = delete;

  /// Appends one block of \p RawN encoded record bytes. The totals are
  /// the trace's running counters *after* the block's records (save()'s
  /// state at each cut); the writer diffs them against the previous
  /// block's to derive the footer entry.
  void addBlock(const uint8_t *Raw, size_t RawN, uint64_t EventsAfter,
                uint64_t ObjectsAfter, uint64_t ReallocsAfter);

  /// Seals the image: footer (block table + the final whole-trace totals)
  /// and trailer. Must be called exactly once, last.
  void finish(const TraceCounts &Counts, uint64_t Objects);

private:
  BinaryWriter &Out;
  std::vector<TraceBlockInfo> Table;
  uint64_t PrevEvents = 0;
  uint64_t PrevObjects = 0;
  uint64_t PrevReallocs = 0;
  uint64_t RawTotal = 0;
  bool Finished = false;
};

/// A trace file read back into memory: the file's bytes decoded by
/// EventTrace::load, so opening validates the whole image (index plus
/// every block checksum) and a MappedTrace in hand is an EventTrace like
/// any other -- its cursor is EventTrace::Cursor. The name is historical:
/// nothing is mapped.
class MappedTrace : public EventTrace {
public:
  /// Reads and decodes the whole file at \p Path as a trace image.
  /// Throws SerializationError on any validation failure and
  /// std::runtime_error when the file cannot be read.
  static MappedTrace open(const std::string &Path);
};

} // namespace halo

#endif // HALO_TRACE_TRACEFILE_H
