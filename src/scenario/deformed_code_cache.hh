/**
 * @file
 * DeformedCodeCache: memoizes the expensive per-epoch decode artifacts —
 * the detector error model of the standalone segment circuit and the
 * decoder graphs built from it (the circuit itself is dropped once its
 * DEM is built). Keys are canonical segment identities (previous/current
 * patch signatures, seam trust set, rounds, round parity, position flags
 * and the decoder-view noise), so every recurrence of a deformed shape
 * across shots, events and timelines reuses one entry. Entries are built
 * from pure functions of the key, which is why cache-hit and cache-miss
 * decodes are bit-identical — and why eviction can never change results,
 * only cost.
 *
 * The cache is bounded: setBudget() caps the approximate byte footprint,
 * and eviction runs the classic GreedyDual policy — each entry's priority
 * is (global clock at last use + build cost), the minimum-priority entry
 * is evicted, and the clock advances to the evicted priority. With equal
 * build costs this is exact LRU; with unequal costs, entries that were
 * expensive to build survive proportionally longer. The cache reads no
 * clock: the code that builds an entry measures its cost and hands it
 * to insert() (a segment's DEM seconds, on whichever thread built it,
 * plus its decoder construction; a timeline's stitching pass). Entries
 * are handed out as shared_ptr, so a segment still referenced by an
 * in-flight timeline survives its own eviction.
 *
 * Not thread-safe: only the orchestrating thread touches the cache.
 * Cold segment builds do run on pool workers — a stitched timeline's
 * missing DEMs are prefetched in parallel — but the workers only build;
 * lookups, insertion and eviction stay on the orchestrating thread, and
 * decode workers share the immutable entries.
 */

#ifndef SURF_SCENARIO_DEFORMED_CODE_CACHE_HH
#define SURF_SCENARIO_DEFORMED_CODE_CACHE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "decode/mwpm.hh"
#include "decode/union_find.hh"
#include "sim/segment.hh"

namespace surf {

/** One memoized decode-ready segment. */
struct CachedSegment
{
    DetectorErrorModel dem; ///< of the standalone decoder-view circuit
    std::unique_ptr<MwpmDecoder> mwpm;
    std::unique_ptr<UnionFindDecoder> uf;

    /** Approximate heap footprint (budget accounting). */
    size_t memoryBytes() const;

    /** The part of memoryBytes() that can grow after construction: the
     *  MWPM graph's lazily memoized Dijkstra rows (O(1) to read). */
    size_t dynamicBytes() const;
};

/** One epoch of a memoized stitched timeline. */
struct CachedTimelineEpoch
{
    uint64_t startRound = 0;
    uint64_t rounds = 0;
    size_t distX = 0, distZ = 0;
    size_t activeDefects = 0;
    size_t detBegin = 0; ///< detector range in the concatenated circuit
    size_t detEnd = 0;
    /** Decode-ready segment; pins the segment even if its own cache
     *  entry is evicted while this timeline stays resident. */
    std::shared_ptr<const CachedSegment> seg;
    /** The segment's own cache key (empty when built uncached): warm
     *  timeline hits touch these entries through it, so the pinned
     *  segments keep fresh LRU stamps and re-measured byte counts even
     *  though the per-epoch get() calls are skipped. */
    std::string segKey;
};

/**
 * One memoized stitched timeline: the concatenated sampling circuit
 * (with seam prologues and oracle probes) plus the resolved decode
 * segment of every epoch. Keyed by the epoch-plan signature, so every
 * timeline pass with the same plan — the second and later repetitions
 * of a sweep, and every quiet (event-free) timeline — skips seam
 * classification and circuit stitching entirely.
 */
struct CachedTimeline
{
    /** False when a deformation window destroyed the logical qubit
     *  (no continuation existed at some seam); the circuit is empty. */
    bool alive = true;
    Circuit circuit;
    std::vector<CachedTimelineEpoch> epochs;

    /** Approximate heap footprint, excluding the segments (they are
     *  accounted by their own cache entries). */
    size_t memoryBytes() const;
};

/** Signature-keyed store of decode-ready segments. */
class DeformedCodeCache
{
  public:
    /**
     * Look up `key`: the resident segment, or null on a miss, after which
     * the caller builds the segment and hands it to insert(). The
     * returned pointer keeps the segment alive even if the entry is
     * later evicted to stay within budget.
     */
    std::shared_ptr<const CachedSegment> get(const std::string &key);

    /**
     * Store the segment a get() miss built, under a `key` that is not
     * resident. `cost` is the seconds its build measured: the entry's
     * GreedyDual priority lift, also added to buildSeconds().
     */
    std::shared_ptr<const CachedSegment>
    insert(const std::string &key, CachedSegment seg, double cost);

    /**
     * Timeline-level lookup: memoized stitched sampling circuits, same
     * budget and eviction policy as the segment entries (a timeline's
     * bytes exclude its segments, which keep their own entries). Null on
     * a miss, after which the caller builds the timeline (resolving its
     * segments through get()/insert()) and hands it to insertTimeline().
     * Keys live in the same namespace as segment keys — callers prefix
     * them.
     */
    std::shared_ptr<const CachedTimeline>
    getTimeline(const std::string &key);

    /** Timeline counterpart of insert(); `cost` is the build's own work
     *  (its stitching), as its segments carry their own costs. */
    std::shared_ptr<const CachedTimeline>
    insertTimeline(const std::string &key, CachedTimeline tl, double cost);

    /**
     * Bound the cache: evict (cost-weighted LRU) until the approximate
     * byte footprint is at most `max_bytes`; 0 means unbounded. Applies
     * immediately and to every subsequent insertion. A lookup never
     * evicts its own entry, so a budget below one entry keeps just it.
     */
    void setBudget(size_t max_bytes);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    /** Timeline-level lookups (a subset of hits()/misses()). */
    uint64_t timelineHits() const { return timeline_hits_; }
    uint64_t timelineMisses() const { return timeline_misses_; }
    size_t size() const { return entries_.size(); }
    /** Approximate bytes held by resident entries. Entry sizes are
     *  re-measured on every hit — the sparse decoder graphs grow as
     *  workers memoize Dijkstra rows — so byte budgets track the real
     *  footprint of each entry as of its last use. */
    size_t bytesUsed() const { return bytes_used_; }
    /** Sum of the costs handed to insert() and insertTimeline(). */
    double buildSeconds() const { return build_seconds_; }

    void
    resetStats()
    {
        hits_ = misses_ = evictions_ = 0;
        timeline_hits_ = timeline_misses_ = 0;
    }

    /**
     * Evict every resident entry (counted in evictions()) while keeping
     * the hit/miss statistics and the GreedyDual clock — the eviction
     * storm of the fault-injection harness. In-flight holders of entry
     * shared_ptrs are unaffected; subsequent lookups rebuild. Results
     * can never change (entries are pure functions of their keys), only
     * cost.
     */
    void evictAll();

    // --- Snapshot support (src/persist/cache_snapshot). Entries are pure
    // functions of their keys, so serializing and rehydrating them can
    // never change results — a restored entry is what a miss would have
    // built, minus the build time.

    /** Visit every resident segment entry (key, contents, measured build
     *  cost in seconds). Iteration order is the map's key order, so the
     *  snapshot byte stream is deterministic. */
    void forEachSegment(
        const std::function<void(const std::string &key,
                                 const CachedSegment &seg, double cost)> &fn)
        const;

    /** Visit every resident timeline entry (key, contents, cost). */
    void forEachTimeline(
        const std::function<void(const std::string &key,
                                 const CachedTimeline &tl, double cost)> &fn)
        const;

    /** Stateless lookup: the resident segment for `key`, or null. Used by
     *  the snapshot loader to re-pin timeline epochs without perturbing
     *  hit/miss counts or LRU stamps. */
    std::shared_ptr<const CachedSegment>
    peekSegment(const std::string &key) const;

    /**
     * Insert a rehydrated segment under `key` with the build cost its
     * original build measured (the GreedyDual priority lift it earned).
     * Normal byte accounting and budget enforcement apply; hit/miss and
     * buildSeconds() stats do not — a restore is neither. No-op (false)
     * when the key is already resident.
     */
    bool restoreSegment(const std::string &key, CachedSegment seg,
                        double cost);

    /** Timeline counterpart of restoreSegment(); epochs must already
     *  carry their pinned `seg` pointers (resolved via peekSegment). */
    bool restoreTimeline(const std::string &key, CachedTimeline tl,
                         double cost);

  private:
    struct Entry
    {
        std::shared_ptr<const CachedSegment> seg; ///< one of seg/tl set
        std::shared_ptr<const CachedTimeline> tl;
        size_t bytes = 0;        ///< static_bytes + dynamic at last use
        size_t static_bytes = 0; ///< immutable part, measured at insert
        double cost = 0.0;       ///< build seconds handed to insert
        double pri = 0.0;        ///< GreedyDual priority at last use
    };

    /** The one insert path of built and restored entries; false (and
     *  nothing stored) when `key` is resident. */
    bool add(const std::string &key,
             std::shared_ptr<const CachedSegment> seg,
             std::shared_ptr<const CachedTimeline> tl, double cost);
    /** A use (or the insert): re-measure `e`'s bytes, lift its priority. */
    void touch(Entry &e);
    void enforceBudget(const Entry *pinned);
    /** A timeline entry's current bytes: its static size plus every
     *  pinned segment whose own entry was evicted (the pin keeps that
     *  memory resident, so the budget charges it to the timeline). */
    size_t timelineBytes(const Entry &e) const;

    std::map<std::string, Entry> entries_;
    size_t max_bytes_ = 0; ///< 0 = unbounded
    size_t bytes_used_ = 0;
    double clock_ = 0.0;
    double build_seconds_ = 0.0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t timeline_hits_ = 0;
    uint64_t timeline_misses_ = 0;
};

} // namespace surf

#endif // SURF_SCENARIO_DEFORMED_CODE_CACHE_HH
