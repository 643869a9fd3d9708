//===- mem/Allocator.cpp - Heap allocator interface -----------------------===//

#include "mem/Allocator.h"

#include <cstdio>
#include <stdexcept>

using namespace halo;

// Out-of-line virtual method anchor.
Allocator::~Allocator() = default;

void halo::throwNotOwned(const Allocator &Owner, const char *Operation,
                         uint64_t Addr) {
  char Where[64];
  std::snprintf(Where, sizeof(Where), " of 0x%llx",
                static_cast<unsigned long long>(Addr));
  throw std::invalid_argument(Owner.name() + ": " + Operation + Where +
                              ", an address it does not own (never "
                              "allocated, interior, or already freed)");
}
