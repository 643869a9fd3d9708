//===- support/Bits.h - Small bit-manipulation helpers ----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit tricks shared by the allocators and the cache geometry checks.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_BITS_H
#define HALO_SUPPORT_BITS_H

#include <cstdint>

namespace halo {

inline constexpr bool isPowerOfTwo(uint64_t X) {
  return X != 0 && (X & (X - 1)) == 0;
}

/// The exponent of a power of two: X == 1 << log2Exact(X).
inline constexpr uint32_t log2Exact(uint64_t X) {
  uint32_t Shift = 0;
  while ((uint64_t(1) << Shift) < X)
    ++Shift;
  return Shift;
}

/// Exact unsigned division by a fixed divisor via one high multiply
/// (Granlund & Montgomery's round-up method with s = 64): quotients are
/// bit-identical to the `/` operator for every dividend up to a bound
/// fixed at construction. Built for the simulator's set-index math, where
/// a non-power-of-two set count (the Xeon's 36864-set L3) would otherwise
/// put a hardware divide on every cache lookup.
class MagicDivider {
public:
  MagicDivider() = default;

  /// Prepares division by \p Divisor for dividends < \p MaxDividend.
  /// Falls back to plain division when the round-up bound cannot cover
  /// the requested range (exactness is never traded away).
  MagicDivider(uint64_t Divisor, uint64_t MaxDividend) : D(Divisor) {
    // M = floor(2^64 / D) + 1 overshoots the true reciprocal by
    // E = M * D - 2^64 parts in 2^64 (E = 0 when D divides 2^64, else
    // D - 2^64 mod D); floor(M * N / 2^64) equals N / D exactly while
    // E * N < 2^64.
    uint64_t Rem = (~0ull % D + 1) % D; // 2^64 mod D.
    uint64_t E = Rem == 0 ? 0 : D - Rem;
    if (E != 0 && MaxDividend > ~0ull / E)
      return; // Range not provably exact; keep the divide instruction.
    M = ~0ull / D + 1;
  }

  /// N / divisor (N must be within the constructed range).
  uint64_t divide(uint64_t N) const {
#ifdef __SIZEOF_INT128__
    if (M)
      return static_cast<uint64_t>(
          (static_cast<unsigned __int128>(N) * M) >> 64);
#endif
    return N / D;
  }

private:
  uint64_t D = 1;
  uint64_t M = 0; ///< 0 = fall back to hardware division.
};

} // namespace halo

#endif // HALO_SUPPORT_BITS_H
