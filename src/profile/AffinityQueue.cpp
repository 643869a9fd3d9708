//===- profile/AffinityQueue.cpp - Recent-access window --------------------===//

#include "profile/AffinityQueue.h"

using namespace halo;

const std::vector<AffinityQueue::Entry> &
AffinityQueue::push(uint32_t Object, uint32_t Node, uint64_t Bytes) {
  Candidates.clear();
  access(Object, Node, Bytes,
         [this](const Entry &Partner) { Candidates.push_back(Partner); });
  return Candidates;
}
