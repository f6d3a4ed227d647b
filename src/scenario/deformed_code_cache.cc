#include "scenario/deformed_code_cache.hh"

#include <algorithm>
#include <chrono>
#include <set>

#include "util/logging.hh"

namespace surf {

size_t
CachedSegment::memoryBytes() const
{
    size_t bytes = sizeof(CachedSegment);
    bytes += dem.detectorTag.capacity();
    bytes += (dem.edges[0].capacity() + dem.edges[1].capacity()) *
             sizeof(DemEdge);
    if (mwpm)
        bytes += mwpm->memoryBytes();
    if (uf)
        bytes += uf->memoryBytes();
    return bytes;
}

size_t
CachedSegment::dynamicBytes() const
{
    return mwpm ? mwpm->memoryBytes() : 0;
}

size_t
CachedTimeline::memoryBytes() const
{
    return sizeof(CachedTimeline) +
           epochs.capacity() * sizeof(CachedTimelineEpoch) +
           circuit.memoryBytes();
}

std::shared_ptr<const CachedSegment>
DeformedCodeCache::get(const std::string &key,
                       const std::function<CachedSegment()> &build,
                       const PrebuiltWork &prebuilt)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++hits_;
        Entry &e = it->second;
        SURF_ASSERT(e.seg, "segment lookup hit a timeline entry");
        // Re-measure the growable part on every hit: the sparse decoder
        // graphs grow as decode workers memoize Dijkstra rows, and a
        // byte budget must see that growth, not the at-insert size.
        // Everything else in the segment is immutable (measured once).
        const size_t bytes = e.static_bytes + e.seg->dynamicBytes();
        bytes_used_ += bytes - e.bytes;
        e.bytes = bytes;
        touch(e);
        enforceBudget(&e);
        return e.seg;
    }
    ++misses_;
    const auto t0 = std::chrono::steady_clock::now();
    auto seg = std::make_shared<CachedSegment>(build());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const double cost = wall + prebuilt.seconds;
    build_seconds_ += cost;
    nested_wall_ += wall + prebuilt.wallSeconds;
    Entry entry;
    entry.seg = std::move(seg);
    entry.bytes = entry.seg->memoryBytes() + key.size();
    entry.static_bytes = entry.bytes - entry.seg->dynamicBytes();
    entry.cost = cost;
    Entry &stored = entries_.emplace(key, std::move(entry)).first->second;
    bytes_used_ += stored.bytes;
    touch(stored);
    enforceBudget(&stored);
    return stored.seg;
}

void
DeformedCodeCache::refreshSegment(const std::string &key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return; // evicted; charged to the pinning timeline instead
    Entry &e = it->second;
    if (!e.seg)
        return;
    const size_t bytes = e.static_bytes + e.seg->dynamicBytes();
    bytes_used_ += bytes - e.bytes;
    e.bytes = bytes;
    touch(e);
}

size_t
DeformedCodeCache::timelineBytes(const Entry &e) const
{
    size_t bytes = e.static_bytes;
    // Count each orphaned segment once even when several epochs share
    // it. (Distinct timelines pinning the same orphan still each charge
    // it — overstating residency is the safe direction for a budget.)
    std::set<const CachedSegment *> counted;
    for (const CachedTimelineEpoch &ep : e.tl->epochs)
        if (ep.seg && !ep.segKey.empty() && !entries_.count(ep.segKey) &&
            counted.insert(ep.seg.get()).second)
            bytes += ep.seg->memoryBytes();
    return bytes;
}

std::shared_ptr<const CachedTimeline>
DeformedCodeCache::getTimeline(const std::string &key,
                               const std::function<CachedTimeline()> &build)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++hits_;
        ++timeline_hits_;
        Entry &e = it->second;
        SURF_ASSERT(e.tl, "timeline lookup hit a segment entry");
        // A warm hit skips the per-epoch get() calls, so keep the
        // pinned segment entries live in the budget's eyes: re-measure
        // their growable row pools and lift their LRU stamps. Segments
        // whose own entries were evicted stay resident through the
        // timeline's pins — re-measure charges them to this entry.
        for (const CachedTimelineEpoch &ep : e.tl->epochs)
            if (!ep.segKey.empty())
                refreshSegment(ep.segKey);
        const size_t bytes = timelineBytes(e);
        bytes_used_ += bytes - e.bytes;
        e.bytes = bytes;
        touch(e);
        enforceBudget(&e);
        return e.tl;
    }
    ++misses_;
    ++timeline_misses_;
    const auto t0 = std::chrono::steady_clock::now();
    const double nested0 = nested_wall_;
    // The build resolves its per-epoch segments through get(), so it
    // must run before this entry is inserted (the nested lookups mutate
    // the map and may evict).
    auto tl = std::make_shared<CachedTimeline>(build());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // The nested segment misses already logged their own build time and
    // carry their own eviction priorities; this entry's cost is the
    // stitching work on top of them (what a rebuild against cached
    // segments would pay). DEMs prefetched in parallel overlap on the
    // wall clock, so the wall they took is subtracted, not their cost.
    const double cost = std::max(0.0, wall - (nested_wall_ - nested0));
    build_seconds_ += cost;
    Entry entry;
    entry.tl = std::move(tl);
    entry.static_bytes = entry.tl->memoryBytes() + key.size();
    entry.cost = cost;
    Entry &stored = entries_.emplace(key, std::move(entry)).first->second;
    // Segments evicted during this very build (tiny budgets) are
    // already orphaned — charge them here like on a hit.
    stored.bytes = timelineBytes(stored);
    bytes_used_ += stored.bytes;
    touch(stored);
    enforceBudget(&stored);
    return stored.tl;
}

void
DeformedCodeCache::touch(Entry &e)
{
    // GreedyDual: priority decays to the clock as other entries evict;
    // a use (or the insert) lifts it back by the entry's build cost.
    e.pri = clock_ + e.cost;
}

void
DeformedCodeCache::enforceBudget(const Entry *pinned)
{
    while (max_bytes_ && bytes_used_ > max_bytes_ &&
           entries_.size() > (pinned ? 1u : 0u)) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (&it->second == pinned)
                continue;
            if (victim == entries_.end() ||
                it->second.pri < victim->second.pri)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        clock_ = std::max(clock_, victim->second.pri);
        bytes_used_ -= victim->second.bytes;
        entries_.erase(victim);
        ++evictions_;
    }
}

void
DeformedCodeCache::setBudget(size_t max_bytes)
{
    max_bytes_ = max_bytes;
    enforceBudget(nullptr);
}

void
DeformedCodeCache::evictAll()
{
    for (const auto &[key, e] : entries_)
        clock_ = std::max(clock_, e.pri);
    evictions_ += entries_.size();
    entries_.clear();
    bytes_used_ = 0;
}

void
DeformedCodeCache::forEachSegment(
    const std::function<void(const std::string &key, const CachedSegment &seg,
                             double cost)> &fn) const
{
    for (const auto &[key, e] : entries_)
        if (e.seg)
            fn(key, *e.seg, e.cost);
}

void
DeformedCodeCache::forEachTimeline(
    const std::function<void(const std::string &key, const CachedTimeline &tl,
                             double cost)> &fn) const
{
    for (const auto &[key, e] : entries_)
        if (e.tl)
            fn(key, *e.tl, e.cost);
}

std::shared_ptr<const CachedSegment>
DeformedCodeCache::peekSegment(const std::string &key) const
{
    const auto it = entries_.find(key);
    return (it != entries_.end() && it->second.seg) ? it->second.seg
                                                    : nullptr;
}

bool
DeformedCodeCache::restoreSegment(const std::string &key, CachedSegment seg,
                                  double cost)
{
    if (entries_.count(key))
        return false;
    Entry entry;
    entry.seg = std::make_shared<CachedSegment>(std::move(seg));
    entry.bytes = entry.seg->memoryBytes() + key.size();
    entry.static_bytes = entry.bytes - entry.seg->dynamicBytes();
    entry.cost = cost;
    Entry &stored = entries_.emplace(key, std::move(entry)).first->second;
    bytes_used_ += stored.bytes;
    touch(stored);
    enforceBudget(&stored);
    return true;
}

bool
DeformedCodeCache::restoreTimeline(const std::string &key, CachedTimeline tl,
                                   double cost)
{
    if (entries_.count(key))
        return false;
    Entry entry;
    entry.tl = std::make_shared<CachedTimeline>(std::move(tl));
    entry.static_bytes = entry.tl->memoryBytes() + key.size();
    entry.cost = cost;
    Entry &stored = entries_.emplace(key, std::move(entry)).first->second;
    stored.bytes = timelineBytes(stored);
    bytes_used_ += stored.bytes;
    touch(stored);
    enforceBudget(&stored);
    return true;
}

} // namespace surf
