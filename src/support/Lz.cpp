//===- support/Lz.cpp - Byte-oriented block compression -------------------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "support/Lz.h"

#include "support/BinaryIO.h"

#include <cstring>

namespace halo {
namespace lz {

namespace {

constexpr size_t MinMatch = 4;
constexpr size_t MaxOffset = 0xffff;
constexpr unsigned HashBits = 14;

/// Fibonacci-style multiplicative hash of the 4-byte prefix at \p P.
inline uint32_t hash4(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  return (V * 2654435761u) >> (32 - HashBits);
}

inline void putRun(std::vector<uint8_t> &Out, size_t Len) {
  for (Len -= 15; Len >= 255; Len -= 255)
    Out.push_back(255);
  Out.push_back(static_cast<uint8_t>(Len));
}

/// Emits one sequence: token, literal run, literals, and (unless this is
/// the terminal literals-only sequence) the match offset.
void putSequence(std::vector<uint8_t> &Out, const uint8_t *Lit, size_t LitN,
                 size_t MatchN, size_t Offset) {
  uint8_t Token = 0;
  Token |= static_cast<uint8_t>((LitN < 15 ? LitN : 15) << 4);
  if (MatchN)
    Token |= static_cast<uint8_t>(MatchN - MinMatch < 15 ? MatchN - MinMatch
                                                         : 15);
  Out.push_back(Token);
  if (LitN >= 15)
    putRun(Out, LitN);
  Out.insert(Out.end(), Lit, Lit + LitN);
  if (!MatchN)
    return;
  Out.push_back(static_cast<uint8_t>(Offset));
  Out.push_back(static_cast<uint8_t>(Offset >> 8));
  if (MatchN - MinMatch >= 15)
    putRun(Out, MatchN - MinMatch);
}

[[noreturn]] void corrupt(const char *What) {
  throw SerializationError(std::string("lz: corrupt block: ") + What);
}

} // namespace

size_t maxCompressedSize(size_t N) {
  // One token + literal-run extensions (one byte per 255 literals) plus
  // the payload itself, with slack for the sub-255 remainder byte.
  return N + N / 255 + 16;
}

std::vector<uint8_t> compress(const uint8_t *Src, size_t N) {
  std::vector<uint8_t> Out;
  Out.reserve(N / 2 + 64);
  // Positions of recently seen 4-byte prefixes, by hash. Stale or
  // colliding entries are fine: candidates are always verified.
  std::vector<uint32_t> Table(size_t(1) << HashBits, 0);

  const uint8_t *Anchor = Src; // First unemitted literal.
  const uint8_t *P = Src;
  const uint8_t *End = Src + N;
  // Matches must end at least 5 bytes before the end (the LZ4 rule: the
  // terminal sequence is literals-only) and candidate reads touch up to
  // P + 12, so stop searching near the tail.
  const uint8_t *MatchLimit = N >= 5 ? End - 5 : Src;
  const uint8_t *SearchLimit = N >= 12 ? End - 12 : Src;

  while (P < SearchLimit) {
    uint32_t H = hash4(P);
    const uint8_t *Cand = Src + Table[H];
    Table[H] = static_cast<uint32_t>(P - Src);
    if (Cand >= P || static_cast<size_t>(P - Cand) > MaxOffset ||
        std::memcmp(Cand, P, MinMatch) != 0) {
      ++P;
      continue;
    }
    size_t Len = MinMatch;
    while (P + Len < MatchLimit && Cand[Len] == P[Len])
      ++Len;
    putSequence(Out, Anchor, static_cast<size_t>(P - Anchor), Len,
                static_cast<size_t>(P - Cand));
    P += Len;
    Anchor = P;
  }
  putSequence(Out, Anchor, static_cast<size_t>(End - Anchor), 0, 0);
  return Out;
}

void decompress(const uint8_t *Src, size_t SrcN, uint8_t *Dst, size_t DstN) {
  const uint8_t *S = Src, *SEnd = Src + SrcN;
  uint8_t *D = Dst, *DEnd = Dst + DstN;
  auto readRun = [&](size_t Base) {
    size_t Len = Base;
    uint8_t B;
    do {
      if (S == SEnd)
        corrupt("run extension past end");
      B = *S++;
      Len += B;
    } while (B == 255);
    return Len;
  };
  while (true) {
    if (S == SEnd)
      corrupt("missing terminal sequence");
    uint8_t Token = *S++;
    size_t LitN = Token >> 4;
    if (LitN == 15)
      LitN = readRun(15);
    if (LitN > static_cast<size_t>(SEnd - S) ||
        LitN > static_cast<size_t>(DEnd - D))
      corrupt("literal run out of bounds");
    // An empty output buffer may be null, and memcpy's pointers must not
    // be, even for a zero-length copy.
    if (LitN)
      std::memcpy(D, S, LitN);
    S += LitN;
    D += LitN;
    if (S == SEnd)
      break; // Terminal literals-only sequence.
    if (SEnd - S < 2)
      corrupt("truncated offset");
    size_t Offset = static_cast<size_t>(S[0]) |
                    (static_cast<size_t>(S[1]) << 8);
    S += 2;
    size_t MatchN = (Token & 0x0f) + MinMatch;
    if (MatchN == 15 + MinMatch)
      MatchN = readRun(MatchN);
    if (Offset == 0 || Offset > static_cast<size_t>(D - Dst))
      corrupt("match offset out of bounds");
    if (MatchN > static_cast<size_t>(DEnd - D))
      corrupt("match run past destination");
    // Overlapping copies are the point (offset < length replays a short
    // period), so copy byte-wise.
    const uint8_t *M = D - Offset;
    for (size_t I = 0; I < MatchN; ++I)
      D[I] = M[I];
    D += MatchN;
  }
  if (D != DEnd)
    corrupt("decoded size mismatch");
}

} // namespace lz
} // namespace halo
