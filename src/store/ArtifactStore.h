//===- store/ArtifactStore.h - Content-addressed artifact store -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk store for the expensive, machine-independent
/// half of an experiment plan: the HALO/HDS pipeline artifact bundles.
/// Plans publish and read nothing else. The store can also hold recorded
/// event traces (putTrace), which only the replay path's callers write; a
/// store populated when plans still recorded keeps its trace entries,
/// valid and unread, beside the bundles it serves. The design
/// follows Nix's libstore discipline:
///
///  * Entries are addressed by a stable content hash of their *inputs* --
///    (domain tag, schema version, benchmark, scale, seed, every
///    machine-independent pipeline option) -- never by mtime or file name
///    conventions. The machine config is deliberately absent: artifacts
///    are machine-independent (eval/Evaluation.h), so one entry serves
///    sweeps over every machine.
///  * Writes go to a temp file in the store directory and are published
///    with a single atomic rename(); readers never observe partial
///    entries, and concurrent writers racing one key both succeed (last
///    rename wins; the payloads are identical by construction).
///  * Entries are never mutated. Invalidation is a key change: bumping
///    StoreSchemaVersion (or any key component changing) produces a new
///    hash, and stale entries are simply never addressed again.
///    `halo_cli store gc` removes those of another schema (see gc()).
///  * Every read validates the entry header and a payload checksum;
///    truncated or bit-flipped entries read as "absent" so callers fall
///    back to recomputing instead of crashing or silently measuring
///    with garbage. The listing (entries(), so `store ls`, `store verify`
///    and gc) also decodes each payload, so an entry that checksums but
///    can never load lists as invalid and gc removes it.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_STORE_ARTIFACTSTORE_H
#define HALO_STORE_ARTIFACTSTORE_H

#include "core/Pipeline.h"
#include "hds/HdsPipeline.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace halo {

class EventTrace;

/// Version stamp of every serialized format and key encoding reaching the
/// store. Bump it whenever any save/load pair or key component changes
/// meaning: old entries then miss (their hashes differ) instead of
/// decoding under wrong assumptions.
///
/// v2: traces use the block-compressed on-disk format (trace/TraceFile.h).
constexpr uint32_t StoreSchemaVersion = 2;

/// What an entry holds; part of the key, so the same (benchmark, scale,
/// seed) coordinate never collides across domains.
enum class ArtifactType : uint8_t { Trace = 0, Halo = 1, Hds = 2 };

/// Stable spelling of \p Type ("trace" / "halo" / "hds"), used in file
/// names and `store ls` output.
const char *artifactTypeName(ArtifactType Type);

/// A fully resolved store address: the content hash of the canonical key
/// encoding plus a human-readable label for listings.
struct StoreKey {
  uint64_t Hash = 0;
  ArtifactType Type = ArtifactType::Trace;
  std::string Label;
};

/// Key of a recorded event trace: (trace tag, schema, benchmark, scale,
/// seed). \p Schema is a parameter (defaulting to the live version) so
/// tests can prove that a schema bump invalidates every entry.
StoreKey traceStoreKey(const std::string &Benchmark, Scale S, uint64_t Seed,
                       uint32_t Schema = StoreSchemaVersion);

/// Key of a HALO pipeline artifact bundle: (halo tag, schema, benchmark,
/// profile scale/seed, every profiling and grouping knob). Any knob a
/// pipeline stage reads re-keys the entry; the allocator options
/// (BenchmarkSetup::Allocator), which only measurement reads, are no input.
StoreKey haloStoreKey(const std::string &Benchmark, Scale ProfileScale,
                      uint64_t ProfileSeed, const HaloParameters &Params,
                      uint32_t Schema = StoreSchemaVersion);

/// Key of an HDS pipeline artifact bundle: (hds tag, schema, benchmark,
/// profile scale/seed). The HdsParameters slot reads nothing (see
/// HdsParameters), so no setup value re-keys the entry.
StoreKey hdsStoreKey(const std::string &Benchmark, Scale ProfileScale,
                     uint64_t ProfileSeed, const HdsParameters &,
                     uint32_t Schema = StoreSchemaVersion);

/// The on-disk store: one flat directory of immutable entries named by
/// their key hash. All operations are safe to call from concurrent
/// threads and processes sharing the directory: the store itself holds
/// no open descriptors or caches (only the directory path), every
/// publish is temp-file + atomic rename, and entries are content-keyed,
/// so a same-key republish writes identical bytes. A long-lived owner
/// -- the serve daemon keeps one store open for its whole lifetime,
/// serving every plan from it -- needs no refresh or reopen.
class ArtifactStore {
public:
  /// One entry as `store ls` / `store verify` see it.
  struct Entry {
    std::string File; ///< File name within the store directory.
    uint64_t Hash = 0;
    /// Empty when the file's entry header does not decode: a junk file
    /// in the store directory has no type.
    std::optional<ArtifactType> Type;
    std::string Label;
    uint64_t PayloadSize = 0;
    bool Valid = false;
    std::string Problem; ///< Why Valid is false; empty otherwise.
  };

  /// Opens (creating if needed) the store at \p Dir. Throws
  /// std::runtime_error if the directory cannot be created or is not
  /// writable -- a store that silently drops every put would turn every
  /// warm run cold without anyone noticing.
  explicit ArtifactStore(std::string Dir);

  const std::string &dir() const { return Dir; }

  /// Publishes \p Payload under \p Key: temp file + atomic rename.
  /// Returns false (without throwing) if the write fails; the caller's
  /// result is already computed, so a failed publish only loses caching.
  bool put(const StoreKey &Key, const std::vector<uint8_t> &Payload);

  /// Reads and validates the entry for \p Key. Missing, truncated,
  /// corrupt, or mismatched entries (hash, type or label) all return
  /// nullopt -- the caller falls back to recomputing.
  std::optional<std::vector<uint8_t>> get(const StoreKey &Key) const;

  /// True if a fully valid entry for \p Key exists right now (reads and
  /// checksums it; plan building uses this to prune tasks).
  bool contains(const StoreKey &Key) const;

  /// Every entry file in the store, sorted by file name, each read whole,
  /// checksummed, and its payload decoded to the last byte by its type's
  /// loader (EventTrace::load, loadHdsArtifacts, or loadHaloArtifacts
  /// against the program of the benchmark its label names; an unknown
  /// benchmark is invalid): the one listing behind `store ls`,
  /// `store verify` and gc. Problem carries the failure, the loader's
  /// included.
  std::vector<Entry> entries() const;

  /// Removes abandoned temp files and every entry that fails validation
  /// -- corrupt ones, checksummed ones that do not load, and entries
  /// written under another StoreSchemaVersion -- and returns how many
  /// files were deleted. Valid entries are never touched, even ones no
  /// key reaches any more (a store's trace entries from when plans still
  /// recorded stay until removed by hand).
  size_t gc();

private:
  std::string pathFor(const StoreKey &Key) const;

  std::string Dir;
};

//===----------------------------------------------------------------------===//
// Typed helpers: serialize/deserialize + store in one call.
//===----------------------------------------------------------------------===//

/// Publishes \p Trace under \p Key (Key.Type must be Trace). Nothing in
/// the library reads trace entries back; a reader decodes the payload
/// with EventTrace::load.
bool putTrace(ArtifactStore &Store, const StoreKey &Key,
              const EventTrace &Trace);

/// Publishes \p Art under \p Key (Key.Type must be Halo).
bool putHaloArtifacts(ArtifactStore &Store, const StoreKey &Key,
                      const HaloArtifacts &Art);

/// Loads and decodes a HALO bundle, rebuilding the derived members
/// against \p Prog; nullopt on miss or any decode failure.
std::optional<HaloArtifacts> getHaloArtifacts(const ArtifactStore &Store,
                                              const StoreKey &Key,
                                              const Program &Prog);

/// Publishes \p Art under \p Key (Key.Type must be Hds).
bool putHdsArtifacts(ArtifactStore &Store, const StoreKey &Key,
                     const HdsArtifacts &Art);

/// Loads and decodes an HDS bundle; nullopt on miss or any decode failure.
std::optional<HdsArtifacts> getHdsArtifacts(const ArtifactStore &Store,
                                            const StoreKey &Key);

} // namespace halo

#endif // HALO_STORE_ARTIFACTSTORE_H
