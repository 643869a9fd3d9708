//===- sim/Cache.cpp - Set-associative cache model -------------------------===//

#include "sim/Cache.h"

#include "support/Bits.h"

#include <cassert>

using namespace halo;

Cache::Cache(const CacheConfig &Config) : Config(Config) {
  assert(isPowerOfTwo(Config.LineSize) && "line size must be a power of two");
  assert(Config.Ways > 0 && "cache needs at least one way");
  assert(Config.SizeBytes % (uint64_t(Config.Ways) * Config.LineSize) == 0 &&
         "size must be divisible by way span");
  Sets = static_cast<uint32_t>(Config.SizeBytes /
                               (uint64_t(Config.Ways) * Config.LineSize));
  assert(Sets > 0 && "cache has no sets");
  LineShift = log2Exact(Config.LineSize);
  if (isPowerOfTwo(Sets)) {
    SetShift = static_cast<int32_t>(log2Exact(Sets));
  } else {
    while (((Sets >> SetP2Shift) & 1) == 0)
      ++SetP2Shift;
    // Dividends are line numbers with the set count's power-of-two factor
    // already shifted out, so the reciprocal's exactness bound only has to
    // cover that reduced range.
    OddDiv = MagicDivider(Sets >> SetP2Shift,
                          (~0ull >> LineShift) >> SetP2Shift);
  }
  // InvalidTag * Sets lines, each LineSize bytes, unless that passes 2^64.
  uint64_t WaySpan = uint64_t(Sets) << LineShift;
  AddrLimit = WaySpan > ~0ull / InvalidTag ? ~0ull : WaySpan * InvalidTag;
  Tags.assign(uint64_t(Sets) * Config.Ways, InvalidTag);
}

bool Cache::contains(uint64_t Addr) const {
  assert(Addr < AddrLimit && "address past the level's 32-bit tag space");
  auto [Set, Tag] = locate(Addr);
  const uint32_t *Begin = &Tags[uint64_t(Set) * Config.Ways];
  for (const uint32_t *T = Begin; T != Begin + Config.Ways; ++T)
    if (*T == Tag)
      return true;
  return false;
}

void Cache::reset() {
  Tags.assign(Tags.size(), InvalidTag);
  Hits = Misses = 0;
}
