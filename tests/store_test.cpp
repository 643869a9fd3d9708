//===- tests/store_test.cpp - Content-addressed artifact store ---------------===//
//
// The store contract: entries are addressed by a stable content hash of
// their inputs (any key component change re-keys; a schema bump
// invalidates everything), writes publish atomically, reads validate a
// checksum so corruption reads as "absent", plans publish HALO/HDS bundles
// only, and a warm plan built against a populated store schedules zero
// materialise tasks while staying bit-identical to the cold run that
// populated it. Bundles the plan's Evaluation already holds cost no task
// and are never republished, and trace entries (which plans no longer
// read) are left exactly as they were.
//
//===----------------------------------------------------------------------===//

#include "store/ArtifactStore.h"

#include "eval/Experiment.h"
#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace halo;

namespace {

/// The names of every file in \p Dir, temp files included.
std::set<std::string> filesIn(const std::string &Dir) {
  std::set<std::string> Names;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        Names.insert(Name);
    }
    closedir(D);
  }
  return Names;
}

/// A store in a fresh private temp directory, removed on destruction.
class TempStore {
public:
  TempStore() {
    char Template[] = "/tmp/halo_store_test.XXXXXX";
    const char *Dir = mkdtemp(Template);
    EXPECT_NE(Dir, nullptr);
    Path = Dir;
    Store.emplace(Path);
  }

  ~TempStore() {
    for (const std::string &Name : filesIn(Path))
      unlink((Path + "/" + Name).c_str());
    rmdir(Path.c_str());
  }

  ArtifactStore &operator*() { return *Store; }
  ArtifactStore *operator->() { return &*Store; }
  const std::string &path() const { return Path; }

private:
  std::string Path;
  std::optional<ArtifactStore> Store;
};

/// The store file backing \p Key, via the public listing (the file-name
/// scheme is an implementation detail the tests don't hard-code).
std::string entryFile(ArtifactStore &Store, const StoreKey &Key) {
  for (const ArtifactStore::Entry &E : Store.entries())
    if (E.Hash == Key.Hash)
      return Store.dir() + "/" + E.File;
  ADD_FAILURE() << "no entry for " << Key.Label;
  return "";
}

void expectSameRuns(const std::vector<RunMetrics> &A,
                    const std::vector<RunMetrics> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t T = 0; T < A.size(); ++T) {
    SCOPED_TRACE("trial " + std::to_string(T));
    EXPECT_EQ(A[T].Cycles, B[T].Cycles);
    EXPECT_DOUBLE_EQ(A[T].Seconds, B[T].Seconds);
    EXPECT_EQ(A[T].Mem.L1Misses, B[T].Mem.L1Misses);
    EXPECT_EQ(A[T].Mem.TlbMisses, B[T].Mem.TlbMisses);
    EXPECT_EQ(A[T].GroupedAllocs, B[T].GroupedAllocs);
  }
}

/// A trace entry's payload that loads: an empty trace, saved. The listing
/// decodes every payload, so a trace entry the tests expect valid must
/// hold one.
std::vector<uint8_t> tracePayload() {
  BinaryWriter W;
  EventTrace().save(W);
  return W.take();
}

/// One-benchmark HALO+HDS spec at test scale: small enough for store
/// round-trip tests, rich enough to exercise every artifact type.
ExperimentSpec smallSpec() {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo,
                AllocatorKind::Hds};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// Raw put/get
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreRaw, PutGetRoundTripsPayloads) {
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  EXPECT_FALSE(Store->contains(Key));
  EXPECT_FALSE(Store->get(Key).has_value());

  std::vector<uint8_t> Payload = {1, 2, 3, 250, 0, 42};
  EXPECT_TRUE(Store->put(Key, Payload));
  EXPECT_TRUE(Store->contains(Key));
  ASSERT_TRUE(Store->get(Key).has_value());
  EXPECT_EQ(*Store->get(Key), Payload);

  // A different key misses even with an entry present.
  EXPECT_FALSE(Store->contains(traceStoreKey("ft", Scale::Test, 2)));
}

TEST(ArtifactStoreRaw, EntriesDescribeWhatLsShows) {
  TempStore Store;
  StoreKey Key = traceStoreKey("health", Scale::Ref, 100);
  std::vector<uint8_t> Payload = tracePayload();
  ASSERT_TRUE(Store->put(Key, Payload));
  std::vector<ArtifactStore::Entry> Entries = Store->entries();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Hash, Key.Hash);
  EXPECT_EQ(Entries[0].Type, ArtifactType::Trace);
  EXPECT_EQ(Entries[0].Label, "trace/health/ref/s100");
  EXPECT_EQ(Entries[0].PayloadSize, Payload.size());
  EXPECT_TRUE(Entries[0].Valid);
  EXPECT_TRUE(Entries[0].Problem.empty());
}

TEST(ArtifactStoreRaw, RejectsUnusableDirectories) {
  EXPECT_THROW(ArtifactStore("/dev/null/not-a-dir"), std::runtime_error);
  // A plain file where the directory should be is just as unusable.
  char Template[] = "/tmp/halo_store_file.XXXXXX";
  int Fd = mkstemp(Template);
  ASSERT_GE(Fd, 0);
  close(Fd);
  EXPECT_THROW(ArtifactStore(std::string(Template)), std::runtime_error);
  unlink(Template);
}

//===----------------------------------------------------------------------===//
// Key stability
//===----------------------------------------------------------------------===//

TEST(StoreKeys, EveryTraceKeyComponentReKeys) {
  std::set<uint64_t> Hashes;
  Hashes.insert(traceStoreKey("ft", Scale::Test, 1).Hash);
  Hashes.insert(traceStoreKey("health", Scale::Test, 1).Hash); // benchmark
  Hashes.insert(traceStoreKey("ft", Scale::Ref, 1).Hash);      // scale
  Hashes.insert(traceStoreKey("ft", Scale::Test, 2).Hash);     // seed
  Hashes.insert(
      traceStoreKey("ft", Scale::Test, 1, StoreSchemaVersion + 1).Hash);
  EXPECT_EQ(Hashes.size(), 5u);
  // Same inputs, same hash: the address is a pure function of the key.
  EXPECT_EQ(traceStoreKey("ft", Scale::Test, 1).Hash,
            traceStoreKey("ft", Scale::Test, 1).Hash);
}

TEST(StoreKeys, EveryPipelineKnobReKeys) {
  const HaloParameters Base;
  std::set<uint64_t> Hashes;
  auto Add = [&](const HaloParameters &P) {
    Hashes.insert(haloStoreKey("ft", Scale::Test, 1, P).Hash);
  };
  Add(Base);
  HaloParameters P = Base;
  P.Profile.AffinityDistance *= 2;
  Add(P);
  P = Base;
  P.Profile.MaxObjectSize *= 2;
  Add(P);
  P = Base;
  P.Grouping.MaxGroups = 4;
  Add(P);
  P = Base;
  P.Grouping.MergeTolerance += 0.01;
  Add(P);
  EXPECT_EQ(Hashes.size(), 5u);

  const HdsParameters HdsBase;
  std::set<uint64_t> HdsHashes;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, HdsBase).Hash);
  HdsParameters H = HdsBase;
  H.Streams.MaxLength += 1;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, H).Hash);
  H = HdsBase;
  H.CoAllocation.CacheLineSize *= 2;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, H).Hash);
  EXPECT_EQ(HdsHashes.size(), 3u);
}

TEST(StoreKeys, SetupsDifferingOnlyInTheAllocatorShareKeys) {
  // Only measurement reads the allocator options: a setup that measures
  // with other chunks (omnetpp, xalanc, --chunk-size) reuses the bundles
  // profiled under the defaults.
  BenchmarkSetup Base = paperSetup("ft");
  BenchmarkSetup Changed = Base;
  Changed.Allocator.ChunkSize /= 2;
  Changed.Allocator.SlabSize *= 2;
  Changed.Allocator.MaxGroupedSize /= 2;
  Changed.Allocator.MaxSpareChunks += 1;
  Changed.Allocator.PurgeEmptyChunks = !Changed.Allocator.PurgeEmptyChunks;
  auto Keys = [](const BenchmarkSetup &S) {
    return std::make_pair(
        haloStoreKey(S.Name, S.ProfileScale, S.ProfileSeed, S.Halo).Hash,
        hdsStoreKey(S.Name, S.ProfileScale, S.ProfileSeed, S.Hds).Hash);
  };
  EXPECT_EQ(Keys(Changed), Keys(Base));
}

TEST(StoreKeys, SchemaBumpInvalidatesExistingEntries) {
  TempStore Store;
  StoreKey Old = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(Store->put(Old, {1, 2, 3}));
  // The next schema's key for the same coordinate addresses nothing: old
  // entries are never read under new assumptions, only gc'd eventually.
  StoreKey Bumped =
      traceStoreKey("ft", Scale::Test, 1, StoreSchemaVersion + 1);
  EXPECT_NE(Bumped.Hash, Old.Hash);
  EXPECT_FALSE(Store->contains(Bumped));
  EXPECT_TRUE(Store->contains(Old));
}

//===----------------------------------------------------------------------===//
// Typed round-trips
//===----------------------------------------------------------------------===//

TEST(StoreRoundTrip, TraceLoadsBitIdenticalAndResavesByteIdentical) {
  Evaluation Eval(paperSetup("ft"));
  const EventTrace &Original = Eval.trace(Scale::Test, 1);

  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(putTrace(*Store, Key, Original));
  std::optional<std::vector<uint8_t>> Stored = Store->get(Key);
  ASSERT_TRUE(Stored.has_value());
  BinaryReader R(*Stored);
  EventTrace Loaded = EventTrace::load(R);
  R.expectEnd("event trace");

  // The loaded trace re-serializes to exactly the stored bytes: nothing
  // about it is an approximation of the original.
  BinaryWriter Resaved;
  Loaded.save(Resaved);
  EXPECT_EQ(Resaved.buffer(), *Stored);

  // And it drives a bit-identical measurement through a fresh Evaluation.
  Evaluation Warm(paperSetup("ft"));
  Warm.addTrace(Scale::Test, 1, std::move(Loaded));
  const MachineConfig &M = defaultMachine();
  RunMetrics Cold = Eval.measure(M, AllocatorKind::Jemalloc, Scale::Test, 1);
  RunMetrics WarmRun = Warm.measure(M, AllocatorKind::Jemalloc, Scale::Test, 1);
  EXPECT_EQ(Cold.Cycles, WarmRun.Cycles);
  EXPECT_EQ(Cold.Mem.L1Misses, WarmRun.Mem.L1Misses);
  EXPECT_EQ(Cold.Mem.TlbMisses, WarmRun.Mem.TlbMisses);
}

TEST(StoreRoundTrip, PipelineArtifactsDriveBitIdenticalMeasurements) {
  BenchmarkSetup Setup = paperSetup("ft");
  Evaluation Cold(Setup);
  const HaloArtifacts &Halo = Cold.haloArtifacts();
  const HdsArtifacts &Hds = Cold.hdsArtifacts();

  TempStore Store;
  StoreKey HaloKey =
      haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  ASSERT_TRUE(putHaloArtifacts(*Store, HaloKey, Halo));
  ASSERT_TRUE(putHdsArtifacts(*Store, HdsKey, Hds));

  Evaluation Warm(Setup);
  std::optional<HaloArtifacts> LoadedHalo =
      getHaloArtifacts(*Store, HaloKey, Warm.program());
  std::optional<HdsArtifacts> LoadedHds = getHdsArtifacts(*Store, HdsKey);
  ASSERT_TRUE(LoadedHalo.has_value());
  ASSERT_TRUE(LoadedHds.has_value());
  Warm.setHaloArtifacts(std::move(*LoadedHalo));
  Warm.setHdsArtifacts(std::move(*LoadedHds));
  EXPECT_TRUE(Warm.hasHaloArtifacts());
  EXPECT_TRUE(Warm.hasHdsArtifacts());

  // The warm Evaluation never profiles: its measurements come entirely
  // from the loaded bundles, and match the cold ones bit for bit.
  for (AllocatorKind Kind : {AllocatorKind::Halo, AllocatorKind::Hds}) {
    SCOPED_TRACE(allocatorKindName(Kind));
    RunMetrics A = Cold.measureDirect(Kind, Scale::Test, 5);
    RunMetrics B = Warm.measureDirect(Kind, Scale::Test, 5);
    EXPECT_EQ(A.Cycles, B.Cycles);
    EXPECT_EQ(A.Mem.L1Misses, B.Mem.L1Misses);
    EXPECT_EQ(A.GroupedAllocs, B.GroupedAllocs);
    EXPECT_EQ(A.ForwardedAllocs, B.ForwardedAllocs);
  }
}

TEST(StoreRoundTrip, TypeMismatchReadsAsAbsent) {
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(putTrace(*Store, Key, Eval.trace(Scale::Test, 1)));
  // The same hash asked for as a different type must miss, not decode.
  StoreKey Wrong = Key;
  Wrong.Type = ArtifactType::Halo;
  EXPECT_FALSE(Store->get(Wrong).has_value());
  EXPECT_FALSE(getHaloArtifacts(*Store, Wrong, Eval.program()).has_value());
}

//===----------------------------------------------------------------------===//
// Corruption
//===----------------------------------------------------------------------===//

namespace {

/// Flips one payload byte near the end of \p File in place.
void flipByte(const std::string &File) {
  FILE *F = std::fopen(File.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, -1, SEEK_END), 0);
  int C = std::fgetc(F);
  ASSERT_NE(C, EOF);
  ASSERT_EQ(std::fseek(F, -1, SEEK_END), 0);
  std::fputc(C ^ 0x40, F);
  std::fclose(F);
}

/// Truncates \p File to half its size.
void truncateFile(const std::string &File) {
  FILE *F = std::fopen(File.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, 0, SEEK_END), 0);
  long Size = std::ftell(F);
  std::fclose(F);
  ASSERT_GT(Size, 1);
  ASSERT_EQ(truncate(File.c_str(), Size / 2), 0);
}

} // namespace

TEST(StoreCorruption, BitFlipsAndTruncationReadAsAbsent) {
  TempStore Store;
  StoreKey Flipped = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Truncated = traceStoreKey("ft", Scale::Test, 2);
  ASSERT_TRUE(Store->put(Flipped, std::vector<uint8_t>(64, 7)));
  ASSERT_TRUE(Store->put(Truncated, std::vector<uint8_t>(64, 9)));
  flipByte(entryFile(*Store, Flipped));
  truncateFile(entryFile(*Store, Truncated));

  // Reads treat both as missing; the listing names the reason.
  EXPECT_FALSE(Store->get(Flipped).has_value());
  EXPECT_FALSE(Store->contains(Flipped));
  EXPECT_FALSE(Store->get(Truncated).has_value());
  std::vector<ArtifactStore::Entry> Entries = Store->entries();
  ASSERT_EQ(Entries.size(), 2u);
  for (const ArtifactStore::Entry &E : Entries) {
    EXPECT_FALSE(E.Valid);
    EXPECT_FALSE(E.Problem.empty());
  }

  // gc removes exactly the invalid entries.
  EXPECT_EQ(Store->gc(), 2u);
  EXPECT_TRUE(Store->entries().empty());
}

TEST(StoreCorruption, AFlippedLabelReadsAsAbsentAndThePlanRepublishes) {
  // No checksum covers an entry's label, so get() compares it with the
  // key's: an HDS bundle whose label lost a byte reads as absent, the next
  // plan re-profiles it (one artifact task) and republishes it under its
  // own label, and every cell equals a storeless run's.
  TempStore Store;
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  ResultSet Cold = runPlan(ColdPlan, 2);
  BenchmarkSetup Setup = paperSetup("ft");
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  std::optional<std::vector<uint8_t>> Published = Store->get(HdsKey);
  ASSERT_TRUE(Published.has_value());
  const std::string File = entryFile(*Store, HdsKey);
  std::vector<uint8_t> Raw;
  {
    FILE *F = std::fopen(File.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    for (int C; (C = std::fgetc(F)) != EOF;)
      Raw.push_back(static_cast<uint8_t>(C));
    std::fclose(F);
  }
  auto LabelAt = std::search(Raw.begin(), Raw.end(), HdsKey.Label.begin(),
                             HdsKey.Label.end());
  ASSERT_NE(LabelAt, Raw.end());
  LabelAt[1] ^= 0x20; // "hds/..." -> "hDs/..."
  {
    FILE *F = std::fopen(File.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fwrite(Raw.data(), 1, Raw.size(), F);
    std::fclose(F);
  }
  EXPECT_FALSE(Store->get(HdsKey).has_value());

  ExperimentPlan Plan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(Plan.numArtifactTasks(), 1u);
  ResultSet Healed = runPlan(Plan, 2);
  EXPECT_EQ(Store->get(HdsKey), Published);
  ExperimentPlan PlainPlan = buildPlan({smallSpec()});
  ResultSet Plain = runPlan(PlainPlan, 1);
  ASSERT_EQ(Healed.size(), Plain.size());
  for (size_t C = 0; C < Plain.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Plain.cells()[C].Runs, Cold.cells()[C].Runs);
    expectSameRuns(Plain.cells()[C].Runs, Healed.cells()[C].Runs);
  }
}

TEST(StoreCorruption, HostileCountsReadAsAbsentAndPlansReprofile) {
  // Entries whose checksum is valid but whose payload declares 2^40
  // elements -- the frames of a HALO bundle's one context, the elements of
  // an HDS bundle's one stream -- must read as absent instead of sizing a
  // container by the count, so a plan over them re-profiles and
  // republishes, bit-identically to a storeless run.
  TempStore Store;
  BenchmarkSetup Setup = paperSetup("ft");
  StoreKey HaloKey =
      haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  // A bundle's 8-byte magic and version, then one element holding 2^40.
  auto Hostile = [](const BinaryWriter &Empty) {
    BinaryWriter W;
    W.bytes(Empty.buffer().data(), 8);
    W.varint(1);
    W.varint(uint64_t(1) << 40);
    return W.take();
  };
  BinaryWriter EmptyHalo, EmptyHds;
  saveHaloArtifacts(HaloArtifacts(), EmptyHalo);
  saveHdsArtifacts(HdsArtifacts(), EmptyHds);
  ASSERT_TRUE(Store->put(HaloKey, Hostile(EmptyHalo)));
  ASSERT_TRUE(Store->put(HdsKey, Hostile(EmptyHds)));
  Evaluation Eval(Setup);
  EXPECT_FALSE(getHaloArtifacts(*Store, HaloKey, Eval.program()).has_value());
  EXPECT_FALSE(getHdsArtifacts(*Store, HdsKey).has_value());

  // The checksums hold, so the plan counts both as stored; their loads
  // fail and the tasks fall back to profiling.
  ExperimentPlan Plan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(Plan.numArtifactTasks(), 0u);
  EXPECT_EQ(Plan.numStoredArtifacts(), 2u);
  ResultSet Healed = runPlan(Plan, /*Jobs=*/2);
  ExperimentPlan PlainPlan = buildPlan({smallSpec()});
  ResultSet Plain = runPlan(PlainPlan, /*Jobs=*/1);
  ASSERT_EQ(Healed.size(), Plain.size());
  for (size_t C = 0; C < Plain.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Plain.cells()[C].Runs, Healed.cells()[C].Runs);
  }
  EXPECT_TRUE(getHaloArtifacts(*Store, HaloKey, Eval.program()).has_value());
  EXPECT_TRUE(getHdsArtifacts(*Store, HdsKey).has_value());
}

TEST(StoreCorruption, EntriesThatCannotLoadListAsInvalidAndGcRemovesThem) {
  // Entries whose checksums hold but which no loader accepts: HALO and HDS
  // bundles declaring 2^40 elements, a HALO bundle identifying a site past
  // its program's call sites, and a HALO bundle whose label names no
  // benchmark. The listing behind `store ls`, `store verify` (which exits
  // 1 on any invalid entry) and gc decodes every payload, so each lists as
  // invalid and names the loader's error, gc removes them, and a plan
  // over the store re-profiles and republishes.
  TempStore Store;
  BenchmarkSetup Setup = paperSetup("ft");
  StoreKey HaloKey =
      haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  auto Hostile = [](const BinaryWriter &Empty) {
    BinaryWriter W;
    W.bytes(Empty.buffer().data(), 8);
    W.varint(1);
    W.varint(uint64_t(1) << 40);
    return W.take();
  };
  BinaryWriter EmptyHalo, EmptyHds;
  saveHaloArtifacts(HaloArtifacts(), EmptyHalo);
  saveHdsArtifacts(HdsArtifacts(), EmptyHds);
  ASSERT_TRUE(Store->put(HaloKey, Hostile(EmptyHalo)));
  ASSERT_TRUE(Store->put(HdsKey, Hostile(EmptyHds)));
  Evaluation Health(paperSetup("health"));
  const BenchmarkSetup &HealthSetup = Health.setup();
  StoreKey PastKey = haloStoreKey("health", HealthSetup.ProfileScale,
                                  HealthSetup.ProfileSeed, HealthSetup.Halo);
  HaloArtifacts PastTheProgram = Health.haloArtifacts();
  PastTheProgram.Identification.Sites.push_back(
      Health.program().numCallSites() + 4096);
  ASSERT_TRUE(putHaloArtifacts(*Store, PastKey, PastTheProgram));
  StoreKey UnknownKey = haloStoreKey("no-such-benchmark", Scale::Test, 1,
                                     HaloParameters());
  ASSERT_TRUE(putHaloArtifacts(*Store, UnknownKey, HaloArtifacts()));
  // The same empty bundle under a benchmark that exists loads.
  StoreKey EmptyKey =
      haloStoreKey("health", Scale::Test, 7, HaloParameters());
  ASSERT_TRUE(putHaloArtifacts(*Store, EmptyKey, HaloArtifacts()));

  std::map<uint64_t, std::string> Expected = {
      {HaloKey.Hash, "exceeds its bound"},
      {HdsKey.Hash, "exceeds its bound"},
      {PastKey.Hash, "unknown identified site"},
      {UnknownKey.Hash, "names no benchmark"}};
  std::vector<ArtifactStore::Entry> Listed = Store->entries();
  ASSERT_EQ(Listed.size(), 5u);
  for (const ArtifactStore::Entry &E : Listed) {
    SCOPED_TRACE(E.Label);
    if (E.Hash == EmptyKey.Hash) {
      EXPECT_TRUE(E.Valid) << E.Problem;
      continue;
    }
    EXPECT_FALSE(E.Valid);
    EXPECT_NE(E.Problem.find(Expected[E.Hash]), std::string::npos)
        << E.Problem;
  }

  EXPECT_EQ(Store->gc(), 4u);
  ASSERT_EQ(Store->entries().size(), 1u);
  ExperimentPlan Plan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(Plan.numStoredArtifacts(), 0u);
  EXPECT_EQ(Plan.numArtifactTasks(), 2u);
  runPlan(Plan, /*Jobs=*/2);
  Listed = Store->entries();
  ASSERT_EQ(Listed.size(), 3u);
  for (const ArtifactStore::Entry &E : Listed)
    EXPECT_TRUE(E.Valid) << E.Label << ": " << E.Problem;
  Evaluation Ft(Setup);
  EXPECT_TRUE(getHaloArtifacts(*Store, HaloKey, Ft.program()).has_value());
  EXPECT_TRUE(getHdsArtifacts(*Store, HdsKey).has_value());
}

TEST(StoreCorruption, BundlesNamingWhatTheProgramLacksReadAsAbsent) {
  // Checksummed HALO entries that decode but name what the program lacks
  // -- an identified site past its call sites, a selector site that is
  // not identified -- must read as absent instead of indexing past the
  // instrumentation plan or shifting by a missing bit, so a plan over
  // them re-profiles and republishes, bit-identically to a storeless run.
  TempStore Store;
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft", "health"};
  Spec.Kinds = {AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  Evaluation Ft(paperSetup("ft")), Health(paperSetup("health"));
  auto KeyOf = [](const Evaluation &E) {
    const BenchmarkSetup &S = E.setup();
    return haloStoreKey(S.Name, S.ProfileScale, S.ProfileSeed, S.Halo);
  };

  HaloArtifacts PastTheProgram = Ft.haloArtifacts();
  PastTheProgram.Identification.Sites.push_back(
      Ft.program().numCallSites() + 4096);
  HaloArtifacts Unidentified = Health.haloArtifacts();
  const std::vector<Selector> &Selectors =
      Unidentified.Identification.Selectors;
  ASSERT_FALSE(Selectors.empty());
  ASSERT_FALSE(Selectors[0].Terms.empty());
  ASSERT_FALSE(Selectors[0].Terms[0].Sites.empty());
  CallSiteId Used = Selectors[0].Terms[0].Sites[0];
  std::vector<CallSiteId> &Sites = Unidentified.Identification.Sites;
  Sites.erase(std::remove(Sites.begin(), Sites.end(), Used), Sites.end());
  ASSERT_TRUE(putHaloArtifacts(*Store, KeyOf(Ft), PastTheProgram));
  ASSERT_TRUE(putHaloArtifacts(*Store, KeyOf(Health), Unidentified));
  EXPECT_FALSE(getHaloArtifacts(*Store, KeyOf(Ft), Ft.program()).has_value());
  EXPECT_FALSE(
      getHaloArtifacts(*Store, KeyOf(Health), Health.program()).has_value());

  // A group member past the context table is rejected the same way
  // (groupsAsDot indexes by it).
  HaloArtifacts PastTheContexts = Ft.haloArtifacts();
  ASSERT_FALSE(PastTheContexts.Groups.empty());
  PastTheContexts.Groups[0].Members.push_back(PastTheContexts.Contexts.size());
  BinaryWriter W;
  saveHaloArtifacts(PastTheContexts, W);
  BinaryReader R(W.buffer());
  EXPECT_THROW(loadHaloArtifacts(R, Ft.program()), SerializationError);

  ExperimentPlan Plan = buildPlan({Spec}, {}, &*Store);
  EXPECT_EQ(Plan.numStoredArtifacts(), 2u);
  ResultSet Healed = runPlan(Plan, /*Jobs=*/2);
  ExperimentPlan PlainPlan = buildPlan({Spec});
  ResultSet Plain = runPlan(PlainPlan, /*Jobs=*/1);
  ASSERT_EQ(Healed.size(), Plain.size());
  for (size_t C = 0; C < Plain.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Plain.cells()[C].Runs, Healed.cells()[C].Runs);
  }
  EXPECT_TRUE(getHaloArtifacts(*Store, KeyOf(Ft), Ft.program()).has_value());
  EXPECT_TRUE(
      getHaloArtifacts(*Store, KeyOf(Health), Health.program()).has_value());
}

TEST(StoreCorruption, JunkFilesListWithoutAType) {
  // A file whose entry header does not decode has no type: listing it as
  // any artifact type would make `store ls` claim the store holds one.
  // A valid header over a corrupt payload keeps its type.
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(Store->put(Key, std::vector<uint8_t>(64, 7)));
  flipByte(entryFile(*Store, Key));
  for (const char *Junk : {"bad\nname", "tab\tx"}) {
    FILE *F = std::fopen((Store.path() + "/" + Junk).c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("not a store entry", F);
    std::fclose(F);
  }

  std::vector<ArtifactStore::Entry> Entries = Store->entries();
  ASSERT_EQ(Entries.size(), 3u);
  for (const ArtifactStore::Entry &E : Entries) {
    SCOPED_TRACE(E.File);
    EXPECT_FALSE(E.Valid);
    EXPECT_FALSE(E.Problem.empty());
    if (E.Hash == Key.Hash)
      EXPECT_EQ(E.Type, ArtifactType::Trace);
    else
      EXPECT_FALSE(E.Type.has_value());
  }
}

TEST(StoreCorruption, GcKeepsValidEntries) {
  TempStore Store;
  StoreKey Good = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Bad = traceStoreKey("ft", Scale::Test, 2);
  ASSERT_TRUE(Store->put(Good, tracePayload()));
  ASSERT_TRUE(Store->put(Bad, tracePayload()));
  flipByte(entryFile(*Store, Bad));
  EXPECT_EQ(Store->gc(), 1u);
  EXPECT_TRUE(Store->contains(Good));
  ASSERT_EQ(Store->entries().size(), 1u);
  EXPECT_EQ(Store->entries()[0].Hash, Good.Hash);
}

//===----------------------------------------------------------------------===//
// Trace entries (the block format as a store payload)
//===----------------------------------------------------------------------===//

TEST(StoreTraceFiles, CorruptTraceEntriesReadAsAbsent) {
  // The store discipline extends to the block format: a truncated,
  // bit-flipped, or schema-mismatched trace entry reads as absence
  // through every accessor, never as a decode error.
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Flipped = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Truncated = traceStoreKey("ft", Scale::Test, 2);
  StoreKey Mismatched = traceStoreKey("ft", Scale::Test, 3);
  for (const auto &P :
       {std::make_pair(Flipped, uint64_t(1)),
        std::make_pair(Truncated, uint64_t(2)),
        std::make_pair(Mismatched, uint64_t(3))})
    ASSERT_TRUE(putTrace(*Store, P.first, Eval.trace(Scale::Test, P.second)));

  flipByte(entryFile(*Store, Flipped));
  truncateFile(entryFile(*Store, Truncated));
  {
    // Flip one bit of the schema field (offset 4, after the u32 magic):
    // the entry claims a format this build does not speak.
    std::string File = entryFile(*Store, Mismatched);
    FILE *F = std::fopen(File.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, 4, SEEK_SET), 0);
    int C = std::fgetc(F);
    ASSERT_NE(C, EOF);
    ASSERT_EQ(std::fseek(F, 4, SEEK_SET), 0);
    std::fputc(C ^ 0x20, F);
    std::fclose(F);
  }

  for (const StoreKey &Key : {Flipped, Truncated, Mismatched}) {
    SCOPED_TRACE(Key.Label);
    EXPECT_FALSE(Store->get(Key).has_value());
    EXPECT_FALSE(Store->contains(Key));
  }
  // gc sweeps all three.
  EXPECT_EQ(Store->gc(), 3u);
  EXPECT_TRUE(Store->entries().empty());
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(StoreConcurrency, RacingWritersOfOneEntryAllSucceed) {
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  // Identical payloads by construction, as in the real race: every writer
  // serialized the same deterministic recording.
  std::vector<uint8_t> Payload = tracePayload();

  std::vector<std::thread> Writers;
  std::atomic<int> Failures{0};
  for (int T = 0; T < 8; ++T)
    Writers.emplace_back([&] {
      for (int Round = 0; Round < 8; ++Round)
        if (!Store->put(Key, Payload))
          ++Failures;
    });
  for (std::thread &W : Writers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  ASSERT_TRUE(Store->get(Key).has_value());
  EXPECT_EQ(*Store->get(Key), Payload);
  // No abandoned temp files: every write published or cleaned up.
  ASSERT_EQ(Store->entries().size(), 1u);
  EXPECT_EQ(Store->gc(), 0u);
}

//===----------------------------------------------------------------------===//
// Plans
//===----------------------------------------------------------------------===//

TEST(StorePlans, WarmPlanSchedulesNothingAndMatchesColdBitIdentically) {
  TempStore Store;

  // Cold: an empty store prunes nothing; the run populates it.
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(ColdPlan.store(), &*Store);
  EXPECT_EQ(ColdPlan.numStoredArtifacts(), 0u);
  EXPECT_EQ(ColdPlan.numArtifactTasks(), 2u);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/2);

  // The cold run published the two bundles and nothing else: no trace.
  std::vector<ArtifactStore::Entry> Published = Store->entries();
  ASSERT_EQ(Published.size(), 2u);
  for (const ArtifactStore::Entry &E : Published) {
    SCOPED_TRACE(E.Label);
    EXPECT_TRUE(E.Type == ArtifactType::Halo || E.Type == ArtifactType::Hds);
    EXPECT_TRUE(E.Valid);
  }

  // Warm: the materialise tasks are deleted from the DAG; only the two
  // bundle loads remain.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 2u);
  ResultSet Warm = runPlan(WarmPlan, /*Jobs=*/2);

  // And a storeless control proves warm == cold == no store at all.
  ExperimentPlan PlainPlan = buildPlan({smallSpec()});
  ResultSet Plain = runPlan(PlainPlan, /*Jobs=*/1);

  ASSERT_EQ(Warm.size(), Cold.size());
  ASSERT_EQ(Plain.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
    expectSameRuns(Cold.cells()[C].Runs, Plain.cells()[C].Runs);
  }
}

TEST(StorePlans, RunPlanHealsEntriesLostAfterPlanning) {
  TempStore Store;
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/1);

  // Plan warm, then corrupt one bundle and delete the other *after*
  // buildPlan consulted the store: the load tasks now miss and must fall
  // back to profiling inline, bit-identically.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 2u);
  BenchmarkSetup Setup = paperSetup("ft");
  StoreKey HaloKey =
      haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  flipByte(entryFile(*Store, HaloKey));
  ASSERT_EQ(0, unlink(entryFile(*Store, HdsKey).c_str()));

  ResultSet Healed = runPlan(WarmPlan, /*Jobs=*/2);
  ASSERT_EQ(Healed.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Healed.cells()[C].Runs);
  }
  // The fallback re-published: the store is whole again.
  EXPECT_TRUE(Store->contains(HaloKey));
  EXPECT_TRUE(Store->contains(HdsKey));
}

TEST(StorePlans, ResidentValuesNeedNoTaskAndNoPublish) {
  TempStore Store;
  Evaluation Eval(paperSetup("ft"));
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {&Eval}, &*Store);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/2);

  // Empty the store: whatever the next plan needs, only Eval holds.
  for (const std::string &Name : filesIn(Store.path()))
    ASSERT_EQ(0, unlink((Store.path() + "/" + Name).c_str())) << Name;

  // Every bundle is resident, so nothing is materialised, looked up or
  // loaded: the plan runs measurements only.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {&Eval}, &*Store);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 0u);
  ResultSet Warm = runPlan(WarmPlan, /*Jobs=*/2);

  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
  }
  // Nothing the plan did not compute was published.
  EXPECT_TRUE(filesIn(Store.path()).empty());
}

TEST(StorePlans, SetupsSharingABundlePublishItOnceAndLoadItOnce) {
  // Two setups that differ only in the allocator share the HALO store
  // key: cold, one task profiles and publishes the one entry; warm, one
  // task loads it for both, nothing is rewritten, and both setups measure
  // as they did cold.
  TempStore Store;
  ExperimentSpec Paper;
  Paper.Benchmarks = {"ft"};
  Paper.Kinds = {AllocatorKind::Halo};
  Paper.S = Scale::Test;
  Paper.Trials = 1;
  Paper.MakeSetup = paperSetup;
  ExperimentSpec Small = Paper;
  Small.MakeSetup = [](const std::string &Name) {
    BenchmarkSetup Setup = paperSetup(Name);
    Setup.Allocator.ChunkSize = 16 * 1024;
    return Setup;
  };

  ExperimentPlan ColdPlan = buildPlan({Paper, Small}, {}, &*Store);
  EXPECT_EQ(ColdPlan.numArtifactTasks(), 1u);
  EXPECT_EQ(ColdPlan.numStoredArtifacts(), 0u);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/2);
  std::vector<ArtifactStore::Entry> Published = Store->entries();
  ASSERT_EQ(Published.size(), 1u);
  EXPECT_EQ(Published[0].Type, ArtifactType::Halo);
  std::string File = entryFile(*Store, ColdPlan.bundles()[0].Key);
  auto Stamp = [&] {
    struct stat St;
    EXPECT_EQ(0, ::stat(File.c_str(), &St));
    return std::make_tuple(St.st_ino, St.st_size, St.st_mtim.tv_sec,
                           St.st_mtim.tv_nsec);
  };
  auto Before = Stamp();

  ExperimentPlan WarmPlan = buildPlan({Paper, Small}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 1u);
  EXPECT_EQ(PlanExecution(WarmPlan).numTasks(), 3u); // 1 load, 2 cells.
  ResultSet Warm = runPlan(WarmPlan, /*Jobs=*/2);
  EXPECT_EQ(Before, Stamp());
  EXPECT_EQ(Store->entries().size(), 1u);
  ASSERT_EQ(Warm.size(), 2u);
  ASSERT_EQ(Cold.size(), 2u);
  for (size_t C = 0; C < 2; ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
  }
  EXPECT_NE(Warm.cells()[0].Runs[0].Frag.wastedBytes(),
            Warm.cells()[1].Runs[0].Frag.wastedBytes());
}

TEST(StorePlans, TraceEntriesOfRecordingPlansStayUntouched) {
  // A store as plans that still recorded left it: the two bundles plus
  // trace entries for the profile input and every measured seed, written
  // by putTrace. It serves a warm plan (bundle keys and bytes are
  // unchanged), and the plan neither reads nor rewrites a trace entry.
  TempStore Store;
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/2);
  Evaluation Recorder(paperSetup("ft"));
  std::vector<StoreKey> TraceKeys;
  for (uint64_t Seed : {1, 100, 101}) {
    TraceKeys.push_back(traceStoreKey("ft", Scale::Test, Seed));
    ASSERT_TRUE(putTrace(*Store, TraceKeys.back(),
                         Recorder.trace(Scale::Test, Seed)));
  }
  auto Stamp = [&](const StoreKey &Key) {
    struct stat St;
    EXPECT_EQ(0, ::stat(entryFile(*Store, Key).c_str(), &St));
    return std::make_tuple(St.st_ino, St.st_size, St.st_mtim.tv_sec,
                           St.st_mtim.tv_nsec);
  };
  std::vector<decltype(Stamp(TraceKeys[0]))> Before;
  for (const StoreKey &Key : TraceKeys)
    Before.push_back(Stamp(Key));

  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 2u);
  ResultSet Warm = runPlan(WarmPlan, /*Jobs=*/2);

  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
  }
  for (size_t K = 0; K < TraceKeys.size(); ++K) {
    SCOPED_TRACE(TraceKeys[K].Label);
    EXPECT_EQ(Before[K], Stamp(TraceKeys[K]));
  }
  EXPECT_EQ(Store->entries().size(), 5u);
}
