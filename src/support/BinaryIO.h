//===- support/BinaryIO.h - Bounds-checked binary encode/decode -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one binary wire format behind every serialized artifact (event
/// traces, HALO/HDS pipeline outputs, store entries, serve payloads):
/// little-endian fixed ints for headers, LEB128 varints for counts and ids,
/// length-prefixed strings, doubles by bit pattern. BinaryWriter builds a
/// byte buffer; BinaryReader decodes one with *every* read bounds-checked,
/// throwing SerializationError instead of reading past the end -- a
/// truncated or bit-flipped store entry must surface as a recoverable
/// error the caller can fall back from (re-record / re-materialise), never
/// as UB.
///
/// A record layout is written once, as a generic lambda
/// `[](auto &C, auto &V) { C.u64(V.Id); C.list(V.Names, StrElement); }`
/// that names each field in wire order. Encoder walks it over a value and
/// appends each field; Decoder walks it over a fresh value and reads each
/// field back with its domain check, so no layout has a mirrored decoder to
/// keep in step. Formats with computed or optional parts (frame and store
/// entry headers, the HALO envelope, the affinity graph, traces) use the
/// writer and reader directly.
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

/// Walks a layout over a value, appending each field to a BinaryWriter.
class Encoder {
public:
  explicit Encoder(BinaryWriter &W) : W(W) {}

  void u32(uint32_t V) { W.u32(V); }
  void u64(uint64_t V) { W.u64(V); }
  void varint(uint64_t V) { W.varint(V); }
  void f64(double V) { W.f64(V); }
  void str(const std::string &S) { W.str(S); }
  /// An id: a varint below 2^32.
  void id(uint32_t V) { W.varint(V); }
  /// An enum (or a flag) whose values run from 0 to \p Last, as one byte.
  template <typename T> void enumeration(T V, T /*Last*/) {
    W.u8(static_cast<uint8_t>(V));
  }
  /// An integer in [Min, Max], as a varint.
  template <typename T> void bounded(T V, uint64_t /*Min*/, uint64_t /*Max*/) {
    W.varint(static_cast<uint64_t>(V));
  }
  /// A fixed stamp (magic, format version) the decoder insists on.
  void expect(uint32_t Stamp, const char * /*What*/) { W.u32(Stamp); }
  /// A varint count, then each element through \p Element's layout.
  template <typename T, typename ElementT>
  void list(const std::vector<T> &V, ElementT Element) {
    W.varint(V.size());
    for (const T &E : V)
      Element(*this, E);
  }

private:
  BinaryWriter &W;
};

/// Walks a layout over a fresh value, reading each field back from a
/// BinaryReader; a value outside its field's domain throws
/// SerializationError, as a truncation does.
class Decoder {
public:
  /// \p MaxCount bounds every list's length, on top of the bytes left.
  explicit Decoder(BinaryReader &R, uint64_t MaxCount = ~uint64_t(0))
      : R(R), MaxCount(MaxCount) {}

  void u32(uint32_t &V) { V = R.u32(); }
  void u64(uint64_t &V) { V = R.u64(); }
  void varint(uint64_t &V) { V = R.varint(); }
  void f64(double &V) { V = R.f64(); }
  void str(std::string &S) { S = R.str(); }
  void id(uint32_t &V) {
    V = static_cast<uint32_t>(within(R.varint(), 0, UINT32_MAX, "id"));
  }
  template <typename T> void enumeration(T &V, T Last) {
    V = static_cast<T>(
        within(R.u8(), 0, static_cast<uint64_t>(Last), "enumerator"));
  }
  template <typename T> void bounded(T &V, uint64_t Min, uint64_t Max) {
    V = static_cast<T>(within(R.varint(), Min, Max, "value"));
  }
  void expect(uint32_t Stamp, const char *What) {
    uint32_t Got = R.u32();
    if (Got != Stamp)
      throw SerializationError(std::string(What) + " " + std::to_string(Got) +
                               " != " + std::to_string(Stamp));
  }
  /// Sized through BinaryReader::count, so a hostile count throws before
  /// anything is allocated by it.
  template <typename T, typename ElementT>
  void list(std::vector<T> &V, ElementT Element) {
    uint64_t N = R.count(MaxCount);
    V.clear();
    V.reserve(static_cast<size_t>(N));
    for (uint64_t I = 0; I < N; ++I)
      Element(*this, V.emplace_back());
  }

private:
  static uint64_t within(uint64_t V, uint64_t Min, uint64_t Max,
                         const char *What) {
    if (V < Min || V > Max)
      throw SerializationError(std::string(What) + " " + std::to_string(V) +
                               " outside [" + std::to_string(Min) + ", " +
                               std::to_string(Max) + "]");
    return V;
  }

  BinaryReader &R;
  uint64_t MaxCount;
};

/// list() element layouts for the common scalar elements.
inline constexpr auto IdElement = [](auto &C, auto &V) { C.id(V); };
inline constexpr auto StrElement = [](auto &C, auto &V) { C.str(V); };

} // namespace halo

#endif // HALO_SUPPORT_BINARYIO_H
