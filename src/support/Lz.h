//===- support/Lz.h - Byte-oriented block compression -----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free LZ77 codec for saved trace blocks
/// (trace/TraceFile.h). Varint event streams are highly repetitive --
/// access runs repeat (op, object, offset-delta) shapes for thousands of
/// records -- so a byte-oriented match coder recovers most of the easy
/// redundancy at memcpy-like decode speed, which keeps loading a stored
/// trace cheap next to replaying it.
///
/// The format is the classic token stream (LZ4-style): each sequence is a
/// token byte whose high nibble is the literal length and low nibble the
/// match length minus the 4-byte minimum (15 escapes to 255-run extension
/// bytes for both), the literals, then a 16-bit little-endian backward
/// offset (max 64 KiB window). The final sequence is literals-only. The
/// decoder is fully bounds-checked and must consume exactly the source
/// and produce exactly the announced destination size -- anything else
/// throws SerializationError, which the trace layer treats as corruption.
///
/// Compression is one-shot per block (~1 MiB), greedy, with a 14-bit
/// hash table of 4-byte prefixes; blocks are independent so corruption
/// and parallel decode stay block-granular.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_LZ_H
#define HALO_SUPPORT_LZ_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace halo {
namespace lz {

/// Compresses \p N bytes at \p Src. The output decodes back with
/// decompress(); it is never larger than maxCompressedSize(N). Callers
/// (the trace block writer) compare the result against N and keep the
/// raw bytes when compression does not pay.
std::vector<uint8_t> compress(const uint8_t *Src, size_t N);

/// Worst-case compressed size for \p N input bytes (incompressible data
/// costs the literal-run extension bytes on top of the payload).
size_t maxCompressedSize(size_t N);

/// Decodes exactly \p DstN bytes into \p Dst from the \p SrcN compressed
/// bytes at \p Src. Throws SerializationError (support/BinaryIO.h) unless
/// the stream is well-formed, in-bounds, and consumes/produces exactly
/// the announced sizes.
void decompress(const uint8_t *Src, size_t SrcN, uint8_t *Dst, size_t DstN);

} // namespace lz
} // namespace halo

#endif // HALO_SUPPORT_LZ_H
