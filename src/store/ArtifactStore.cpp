//===- store/ArtifactStore.cpp - Content-addressed artifact store -----------===//

#include "store/ArtifactStore.h"

#include "support/BinaryIO.h"
#include "support/Hash.h"
#include "trace/EventTrace.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace halo;

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

const char *halo::artifactTypeName(ArtifactType Type) {
  switch (Type) {
  case ArtifactType::Trace:
    return "trace";
  case ArtifactType::Halo:
    return "halo";
  case ArtifactType::Hds:
    return "hds";
  }
  return "?";
}

namespace {

/// Feeds the profiling options shared by both pipeline keys. Every field
/// participates: any knob change must re-key the artifact. Retired
/// settings keep their places, so that no key moves: the node coverage
/// and maximum object size as the constants they became, and `false` for
/// a reference-trace flag that was always off in keys.
void hashProfile(HashBuilder &H, const ProfileOptions &P) {
  H.u64(P.AffinityDistance)
      .f64(HeapProfiler::NodeCoverage)
      .u64(MaxGroupedSize)
      .boolean(P.Dedup)
      .boolean(P.NoDoubleCount)
      .boolean(P.CoAllocatability)
      .boolean(false);
}

/// The allocator options' place in both pipeline keys. Keys hash the
/// defaults there, whatever the setup measures with, and the slab and
/// maximum grouped sizes as the constants they became.
void hashAllocator(HashBuilder &H) {
  const GroupAllocatorOptions A;
  H.u64(A.ChunkSize)
      .u64(GroupAllocator::SlabSize)
      .u64(MaxGroupedSize)
      .u32(A.MaxSpareChunks)
      .boolean(A.PurgeEmptyChunks);
}

/// The common key prefix: domain tag, schema stamp, benchmark, and the
/// (scale, seed) of the run the entry derives from.
HashBuilder keyPrefix(const char *Tag, uint32_t Schema,
                      const std::string &Benchmark, Scale S, uint64_t Seed) {
  HashBuilder H;
  H.str(Tag).u32(Schema).str(Benchmark).u32(static_cast<uint32_t>(S)).u64(
      Seed);
  return H;
}

std::string scaleLabel(Scale S) { return S == Scale::Test ? "test" : "ref"; }

} // namespace

StoreKey halo::traceStoreKey(const std::string &Benchmark, Scale S,
                             uint64_t Seed, uint32_t Schema) {
  StoreKey Key;
  Key.Type = ArtifactType::Trace;
  Key.Hash = keyPrefix("halo.store.trace", Schema, Benchmark, S, Seed).hash();
  Key.Label = "trace/" + Benchmark + "/" + scaleLabel(S) + "/s" +
              std::to_string(Seed);
  return Key;
}

StoreKey halo::haloStoreKey(const std::string &Benchmark, Scale ProfileScale,
                            uint64_t ProfileSeed, const HaloParameters &Params,
                            uint32_t Schema) {
  StoreKey Key;
  Key.Type = ArtifactType::Halo;
  HashBuilder H =
      keyPrefix("halo.store.halo", Schema, Benchmark, ProfileScale,
                ProfileSeed);
  hashProfile(H, Params.Profile);
  H.u64(Params.Grouping.MinEdgeWeight)
      .f64(MergeTolerance)
      .f64(Params.Grouping.GroupWeightThreshold)
      .u32(Params.Grouping.MaxGroupMembers)
      .u32(Params.Grouping.MaxGroups);
  // Only measurement reads the allocator options, so they do not key the
  // bundle; the defaults hold their place, so default-setup keys stay put.
  hashAllocator(H);
  Key.Hash = H.hash();
  Key.Label = "halo/" + Benchmark + "/" + scaleLabel(ProfileScale) + "/s" +
              std::to_string(ProfileSeed);
  return Key;
}

StoreKey halo::hdsStoreKey(const std::string &Benchmark, Scale ProfileScale,
                           uint64_t ProfileSeed, const HdsParameters &,
                           uint32_t Schema) {
  StoreKey Key;
  Key.Type = ArtifactType::Hds;
  HashBuilder H =
      keyPrefix("halo.store.hds", Schema, Benchmark, ProfileScale,
                ProfileSeed);
  // HDS reads no profiling knob, and its retired settings hold their
  // places as the constants they became, so existing keys stay valid:
  // the profiling defaults, the stream and co-allocation constants, 0 for
  // the set cap no run set and 0.0 for an absolute benefit floor.
  hashProfile(H, ProfileOptions());
  H.u32(MinStreamLength).u32(MaxStreamLength).f64(StreamCoverage);
  H.u32(CoAllocationLineSize).u32(0).f64(0.0).f64(MinBenefitFraction);
  hashAllocator(H); // As in haloStoreKey.
  Key.Hash = H.hash();
  Key.Label = "hds/" + Benchmark + "/" + scaleLabel(ProfileScale) + "/s" +
              std::to_string(ProfileSeed);
  return Key;
}

//===----------------------------------------------------------------------===//
// Entry file format
//===----------------------------------------------------------------------===//

namespace {

/// "HSTE": one store entry file.
constexpr uint32_t EntryMagic = 0x45545348;

/// Serial for temp-file names: threads of one process must not share a
/// temp path even when racing the same key.
std::atomic<uint64_t> TempSerial{0};

std::string entryFileName(const StoreKey &Key) {
  return hashHex(Key.Hash) + "." + artifactTypeName(Key.Type);
}

bool writeWholeFile(const std::string &Path,
                    const std::vector<uint8_t> &Data) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  size_t Done = 0;
  while (Done < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Done, Data.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      ::unlink(Path.c_str());
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return ::close(Fd) == 0;
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    ::close(Fd);
    return false;
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Done = 0;
  while (Done < Out.size()) {
    ssize_t N = ::read(Fd, Out.data() + Done, Out.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      ::close(Fd);
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  ::close(Fd);
  return true;
}

/// Decodes one entry file into (header fields, payload), filling the Type,
/// Hash, Label and PayloadSize of \p Header; Type is set only once the
/// whole header decodes. Throws SerializationError on any inconsistency;
/// callers translate that into "absent" (get/contains) or a listing
/// diagnostic (entries).
std::vector<uint8_t> decodeEntry(const std::vector<uint8_t> &Raw,
                                 ArtifactStore::Entry &Header) {
  BinaryReader R(Raw);
  if (R.u32() != EntryMagic)
    throw SerializationError("store entry: bad magic");
  uint32_t Schema = R.u32();
  if (Schema != StoreSchemaVersion)
    throw SerializationError("store entry: schema version " +
                             std::to_string(Schema) + " != " +
                             std::to_string(StoreSchemaVersion));
  uint8_t Type = R.u8();
  if (Type > static_cast<uint8_t>(ArtifactType::Hds))
    throw SerializationError("store entry: unknown artifact type");
  Header.Hash = R.u64();
  Header.Label = R.str();
  Header.PayloadSize = R.varint();
  uint64_t Checksum = R.u64();
  Header.Type = static_cast<ArtifactType>(Type);
  size_t HeaderBytes = Raw.size() - R.remaining();
  if (Header.PayloadSize != Raw.size() - HeaderBytes)
    throw SerializationError("store entry: truncated payload");
  std::vector<uint8_t> Payload(Raw.begin() + static_cast<long>(HeaderBytes),
                               Raw.end());
  if (fnv1a(Payload.data(), Payload.size()) != Checksum)
    throw SerializationError("store entry: payload checksum mismatch");
  return Payload;
}

/// Decodes an entry's payload through its type's loader, to the last
/// byte: a checksummed entry that can never load is as invalid as a
/// corrupt one. A HALO bundle loads against the program of the benchmark
/// its label ("halo/<benchmark>/...") names. Throws SerializationError.
void loadPayload(const ArtifactStore::Entry &E,
                 const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  switch (*E.Type) {
  case ArtifactType::Trace:
    EventTrace::load(R);
    break;
  case ArtifactType::Hds:
    loadHdsArtifacts(R);
    break;
  case ArtifactType::Halo: {
    size_t From = E.Label.find('/') + 1; // 0 if the label has no '/'.
    std::unique_ptr<Workload> W =
        createWorkload(E.Label.substr(From, E.Label.find('/', From) - From));
    if (!W)
      throw SerializationError("halo artifacts: label '" + E.Label +
                               "' names no benchmark");
    Program Prog;
    W->build(Prog);
    loadHaloArtifacts(R, Prog);
    break;
  }
  }
  R.expectEnd(artifactTypeName(*E.Type));
}

} // namespace

//===----------------------------------------------------------------------===//
// ArtifactStore
//===----------------------------------------------------------------------===//

ArtifactStore::ArtifactStore(std::string DirIn) : Dir(std::move(DirIn)) {
  if (Dir.empty())
    throw std::runtime_error("artifact store: empty directory path");
  while (Dir.size() > 1 && Dir.back() == '/')
    Dir.pop_back();
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::runtime_error("artifact store: cannot create '" + Dir +
                             "': " + std::strerror(errno));
  // Fail on a path that exists but is not a usable directory: a store
  // that drops every put would silently turn all warm runs cold.
  struct stat St;
  if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    throw std::runtime_error("artifact store: '" + Dir +
                             "' is not a directory");
  if (::access(Dir.c_str(), W_OK | X_OK) != 0)
    throw std::runtime_error("artifact store: '" + Dir + "' is not writable");
}

std::string ArtifactStore::pathFor(const StoreKey &Key) const {
  return Dir + "/" + entryFileName(Key);
}

bool ArtifactStore::put(const StoreKey &Key,
                        const std::vector<uint8_t> &Payload) {
  BinaryWriter W;
  W.u32(EntryMagic);
  W.u32(StoreSchemaVersion);
  W.u8(static_cast<uint8_t>(Key.Type));
  W.u64(Key.Hash);
  W.str(Key.Label);
  W.varint(Payload.size());
  W.u64(fnv1a(Payload.data(), Payload.size()));
  W.bytes(Payload.data(), Payload.size());

  // Unique temp path per writer, then one atomic rename: readers never see
  // a partial entry, and two writers racing one key both succeed with
  // identical content (every store value is a deterministic function of
  // its key).
  std::string Temp = Dir + "/tmp." + hashHex(Key.Hash) + "." +
                     std::to_string(::getpid()) + "." +
                     std::to_string(TempSerial.fetch_add(1));
  if (!writeWholeFile(Temp, W.buffer()))
    return false;
  if (::rename(Temp.c_str(), pathFor(Key).c_str()) != 0) {
    ::unlink(Temp.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<uint8_t>>
ArtifactStore::get(const StoreKey &Key) const {
  std::vector<uint8_t> Raw;
  if (!readWholeFile(pathFor(Key), Raw))
    return std::nullopt;
  try {
    Entry Header;
    std::vector<uint8_t> Payload = decodeEntry(Raw, Header);
    // The name already encodes hash and type; re-checking the header binds
    // the content to the key even if a file was renamed into place. No
    // checksum covers the label, so it is compared too: a damaged label
    // reads as absent, and the caller recomputes and republishes.
    if (Header.Hash != Key.Hash || Header.Type != Key.Type ||
        Header.Label != Key.Label)
      return std::nullopt;
    return Payload;
  } catch (const SerializationError &) {
    return std::nullopt;
  }
}

bool ArtifactStore::contains(const StoreKey &Key) const {
  return get(Key).has_value();
}

std::vector<ArtifactStore::Entry> ArtifactStore::entries() const {
  std::vector<Entry> Result;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Result;
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    if (Name == "." || Name == ".." ||
        Name.compare(0, 4, "tmp.") == 0)
      continue;
    Entry E;
    E.File = Name;
    try {
      std::vector<uint8_t> Raw;
      if (!readWholeFile(Dir + "/" + Name, Raw))
        throw SerializationError("unreadable");
      std::vector<uint8_t> Payload = decodeEntry(Raw, E);
      // The file name must agree with the header it carries.
      if (Name != hashHex(E.Hash) + "." + artifactTypeName(*E.Type)) {
        E.Problem = "file name does not match entry key";
      } else {
        loadPayload(E, Payload);
        E.Valid = true;
      }
    } catch (const SerializationError &Err) {
      E.Problem = Err.what();
    }
    Result.push_back(std::move(E));
  }
  ::closedir(D);
  std::sort(Result.begin(), Result.end(),
            [](const Entry &A, const Entry &B) { return A.File < B.File; });
  return Result;
}

size_t ArtifactStore::gc() {
  size_t Removed = 0;
  // Abandoned temp files first (a crashed writer's leftovers). gc assumes
  // no writer is concurrently publishing into this store.
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Removed;
  std::vector<std::string> Temps;
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    if (Name.compare(0, 4, "tmp.") == 0)
      Temps.push_back(std::move(Name));
  }
  ::closedir(D);
  for (const std::string &Name : Temps)
    if (::unlink((Dir + "/" + Name).c_str()) == 0)
      ++Removed;
  for (const Entry &E : entries())
    if (!E.Valid && ::unlink((Dir + "/" + E.File).c_str()) == 0)
      ++Removed;
  return Removed;
}

//===----------------------------------------------------------------------===//
// Typed helpers
//===----------------------------------------------------------------------===//

bool halo::putTrace(ArtifactStore &Store, const StoreKey &Key,
                    const EventTrace &Trace) {
  BinaryWriter W;
  Trace.save(W);
  return Store.put(Key, W.buffer());
}

bool halo::putHaloArtifacts(ArtifactStore &Store, const StoreKey &Key,
                            const HaloArtifacts &Art) {
  BinaryWriter W;
  saveHaloArtifacts(Art, W);
  return Store.put(Key, W.buffer());
}

std::optional<HaloArtifacts> halo::getHaloArtifacts(const ArtifactStore &Store,
                                                    const StoreKey &Key,
                                                    const Program &Prog) {
  std::optional<std::vector<uint8_t>> Payload = Store.get(Key);
  if (!Payload)
    return std::nullopt;
  try {
    BinaryReader R(*Payload);
    HaloArtifacts Art = loadHaloArtifacts(R, Prog);
    R.expectEnd("halo artifacts");
    return Art;
  } catch (const SerializationError &) {
    return std::nullopt;
  }
}

bool halo::putHdsArtifacts(ArtifactStore &Store, const StoreKey &Key,
                           const HdsArtifacts &Art) {
  BinaryWriter W;
  saveHdsArtifacts(Art, W);
  return Store.put(Key, W.buffer());
}

std::optional<HdsArtifacts> halo::getHdsArtifacts(const ArtifactStore &Store,
                                                  const StoreKey &Key) {
  std::optional<std::vector<uint8_t>> Payload = Store.get(Key);
  if (!Payload)
    return std::nullopt;
  try {
    BinaryReader R(*Payload);
    HdsArtifacts Art = loadHdsArtifacts(R);
    R.expectEnd("hds artifacts");
    return Art;
  } catch (const SerializationError &) {
    return std::nullopt;
  }
}
