/**
 * @file
 * DeformedCodeCache snapshot: serialize the expensive warm state — segment
 * detector error models, memoized Dijkstra rows and stitched timelines —
 * so a later run (or a run resumed after a crash) starts at warm-cache
 * speed instead of rebuilding everything from scratch.
 *
 * Restore strategy: decoders are NOT serialized. A segment record carries
 * its DEM, a digest of the decoding graph's CSR arrays, and the memoized
 * rows; the loader rebuilds the decoders from the DEM (an O(edges)
 * construction) and then verifies that the rebuilt graph's CSR
 * digest matches the recorded one before trusting a single row. Entries
 * are pure functions of their cache keys, so a restored entry answers
 * every query bit-identically to a cold-built one — corruption can only
 * cost a rebuild, never change a result.
 *
 * The loader is paranoid by design: every length, enum, detector id,
 * probability and cross-field invariant is validated before anything is
 * constructed, and any inconsistency rejects the record (counted in
 * SnapshotRestoreStats::rejectedRecords) rather than crashing. Header
 * corruption rejects the whole file with CORRUPT_SNAPSHOT; record
 * corruption keeps the CRC-valid prefix.
 */

#ifndef SURF_PERSIST_CACHE_SNAPSHOT_HH
#define SURF_PERSIST_CACHE_SNAPSHOT_HH

#include <cstdint>
#include <string>

#include "scenario/deformed_code_cache.hh"
#include "util/status.hh"

namespace surf {

class FaultInjector;

/** What saveCacheSnapshot wrote. */
struct SnapshotSaveStats
{
    uint64_t segments = 0;
    uint64_t timelines = 0;
    /** Timeline entries skipped because a pinned segment's own cache
     *  entry was evicted (the timeline would dangle on restore). */
    uint64_t skippedTimelines = 0;
    uint64_t rows = 0;     ///< memoized Dijkstra rows serialized
    uint64_t fileBytes = 0; ///< bytes written (pre-fault-injection)
};

/** What loadCacheSnapshot restored (and refused). */
struct SnapshotRestoreStats
{
    uint64_t segments = 0;
    uint64_t timelines = 0;
    uint64_t rows = 0;            ///< rows rehydrated into graphs
    uint64_t rejectedRecords = 0; ///< CRC-valid but semantically bad
    bool truncated = false;       ///< a torn/corrupt record ended the file
    uint64_t fileBytes = 0;       ///< bytes read
};

/** True when `path` names an existing file (loader cold-start probe). */
bool snapshotFileExists(const std::string &path);

/**
 * Serialize every resident cache entry to `path` (atomic write). Segment
 * records precede timeline records so the loader can resolve timeline
 * epoch pins in one pass. `inject` (nullable) applies snap.* fault
 * clauses to the finished bytes; `faultSalt` decorrelates this file's
 * fault decisions from other snapshot files in the same plan.
 */
StatusOr<SnapshotSaveStats>
saveCacheSnapshot(const DeformedCodeCache &cache, const std::string &path,
                  const FaultInjector *inject = nullptr,
                  uint64_t faultSalt = 0);

/**
 * Restore entries from `path` into `cache` (insert-if-absent; resident
 * entries win). Missing file / unreadable file / corrupt header is a
 * non-OK Status — the caller falls back to a cold build and counts the
 * recovery. Per-record rejections (CRC, truncation, semantic
 * inconsistency, a CSR digest that does not match the rebuilt graph) are
 * reported in the returned stats, never thrown, never fatal.
 */
StatusOr<SnapshotRestoreStats>
loadCacheSnapshot(DeformedCodeCache &cache, const std::string &path);

} // namespace surf

#endif // SURF_PERSIST_CACHE_SNAPSHOT_HH
