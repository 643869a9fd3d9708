//===- support/BinaryIO.h - Bounds-checked binary encode/decode -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one binary wire format behind every serialized artifact (event
/// traces, HALO/HDS pipeline outputs, store entries): little-endian fixed
/// ints for headers, LEB128 varints for counts and ids, length-prefixed
/// strings, doubles by bit pattern. BinaryWriter builds a byte buffer;
/// BinaryReader decodes one with *every* read bounds-checked, throwing
/// SerializationError instead of reading past the end -- a truncated or
/// bit-flipped store entry must surface as a recoverable error the caller
/// can fall back from (re-record / re-materialise), never as UB.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_BINARYIO_H
#define HALO_SUPPORT_BINARYIO_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace halo {

/// Thrown by BinaryReader (and the typed load functions built on it) when
/// a buffer does not decode: truncation, bad magic, version or checksum
/// mismatch, or a value out of its domain.
class SerializationError : public std::runtime_error {
public:
  explicit SerializationError(const std::string &What)
      : std::runtime_error(What) {}
};

/// Appends primitives to a growing byte buffer.
class BinaryWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// LEB128: counts and ids are overwhelmingly small.
  void varint(uint64_t V) {
    while (V >= 0x80) {
      Buf.push_back(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    Buf.push_back(static_cast<uint8_t>(V));
  }

  /// Bit-pattern encoding: round-trips every double exactly.
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  void str(const std::string &S) {
    varint(S.size());
    bytes(S.data(), S.size());
  }

  void bytes(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Size);
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
};

/// Decodes a byte buffer; every read is bounds-checked.
class BinaryReader {
public:
  BinaryReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}
  explicit BinaryReader(const std::vector<uint8_t> &Buf)
      : BinaryReader(Buf.data(), Buf.size()) {}

  uint8_t u8() {
    need(1);
    return *P++;
  }

  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }

  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }

  uint64_t varint() {
    uint64_t V = 0;
    for (uint32_t Shift = 0; Shift < 64; Shift += 7) {
      need(1);
      uint8_t B = *P++;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if ((B & 0x80) == 0)
        return V;
    }
    throw SerializationError("varint longer than 64 bits");
  }

  /// A varint element count: every element takes at least one byte, so a
  /// count above \p Max or above the bytes left cannot be what the schema
  /// wrote, and throws before a decoder sizes a container by it.
  uint64_t count(uint64_t Max = ~uint64_t(0)) {
    uint64_t N = varint();
    if (N > Max || N > remaining())
      throw SerializationError("count " + std::to_string(N) +
                               " exceeds its bound");
    return N;
  }

  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  std::string str() {
    uint64_t Size = varint();
    need(Size);
    std::string S(reinterpret_cast<const char *>(P),
                  static_cast<size_t>(Size));
    P += Size;
    return S;
  }

  void bytes(void *Out, size_t Size) {
    need(Size);
    std::memcpy(Out, P, Size);
    P += Size;
  }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool atEnd() const { return P == End; }

  /// The current read position. Pairs with skip() for decoders that hand
  /// a sub-range to a nested parser (the block-trace footer walks its
  /// payload from both ends) and then advance past it.
  const uint8_t *cursor() const { return P; }

  void skip(uint64_t Size) {
    need(Size);
    P += Size;
  }

  /// Decoders call this after the last field: trailing bytes mean the
  /// buffer is not what the schema says it is.
  void expectEnd(const char *What) const {
    if (!atEnd())
      throw SerializationError(std::string(What) +
                               ": trailing bytes after payload");
  }

private:
  void need(uint64_t Size) const {
    if (Size > static_cast<uint64_t>(End - P))
      throw SerializationError("truncated buffer");
  }

  const uint8_t *P;
  const uint8_t *End;
};

} // namespace halo

#endif // HALO_SUPPORT_BINARYIO_H
