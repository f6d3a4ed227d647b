#include "scenario/deformed_code_cache.hh"

#include <algorithm>
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
DeformedCodeCache::get(const std::string &key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    Entry &e = it->second;
    SURF_ASSERT(e.seg, "segment lookup hit a timeline entry");
    touch(e);
    enforceBudget(&e);
    return e.seg;
}

std::shared_ptr<const CachedSegment>
DeformedCodeCache::insert(const std::string &key, CachedSegment seg,
                          double cost)
{
    auto stored = std::make_shared<const CachedSegment>(std::move(seg));
    const bool added = add(key, stored, nullptr, cost);
    SURF_ASSERT(added, "segment insert over a resident key");
    build_seconds_ += cost;
    return stored;
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
DeformedCodeCache::getTimeline(const std::string &key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        ++timeline_misses_;
        return nullptr;
    }
    ++hits_;
    ++timeline_hits_;
    Entry &e = it->second;
    SURF_ASSERT(e.tl, "timeline lookup hit a segment entry");
    // A warm hit skips the per-epoch get() calls, so keep the pinned
    // segment entries live in the budget's eyes: re-measure their
    // growable row pools and lift their LRU stamps. Segments whose own
    // entries were evicted stay resident through the timeline's pins —
    // re-measuring charges them to this entry.
    for (const CachedTimelineEpoch &ep : e.tl->epochs)
        if (const auto seg = entries_.find(ep.segKey);
            seg != entries_.end() && seg->second.seg)
            touch(seg->second);
    touch(e);
    enforceBudget(&e);
    return e.tl;
}

std::shared_ptr<const CachedTimeline>
DeformedCodeCache::insertTimeline(const std::string &key, CachedTimeline tl,
                                  double cost)
{
    auto stored = std::make_shared<const CachedTimeline>(std::move(tl));
    const bool added = add(key, nullptr, stored, cost);
    SURF_ASSERT(added, "timeline insert over a resident key");
    build_seconds_ += cost;
    return stored;
}

bool
DeformedCodeCache::add(const std::string &key,
                       std::shared_ptr<const CachedSegment> seg,
                       std::shared_ptr<const CachedTimeline> tl, double cost)
{
    const auto [it, added] = entries_.try_emplace(key);
    if (!added)
        return false;
    Entry &e = it->second;
    e.seg = std::move(seg);
    e.tl = std::move(tl);
    e.static_bytes = key.size() + (e.seg ? e.seg->memoryBytes() -
                                               e.seg->dynamicBytes()
                                         : e.tl->memoryBytes());
    e.cost = cost;
    touch(e);
    enforceBudget(&e);
    return true;
}

void
DeformedCodeCache::touch(Entry &e)
{
    // A segment re-measures its growable part: the sparse decoder graphs
    // grow as decode workers memoize Dijkstra rows, and a byte budget
    // must see that growth, not the at-insert size. A timeline charges
    // the pinned segments whose own entries were evicted (tiny budgets
    // orphan some during the timeline's own build).
    const size_t bytes = e.seg ? e.static_bytes + e.seg->dynamicBytes()
                               : timelineBytes(e);
    bytes_used_ += bytes - e.bytes;
    e.bytes = bytes;
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
    return add(key, std::make_shared<const CachedSegment>(std::move(seg)),
               nullptr, cost);
}

bool
DeformedCodeCache::restoreTimeline(const std::string &key, CachedTimeline tl,
                                   double cost)
{
    return add(key, nullptr,
               std::make_shared<const CachedTimeline>(std::move(tl)), cost);
}

} // namespace surf
