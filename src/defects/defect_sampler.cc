#include "defects/defect_sampler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace surf {

std::set<Coord>
DefectSampler::regionSites(Coord center, int diameter)
{
    // `diameter` counts data qubits across the region; in doubled lattice
    // coordinates that is a Chebyshev radius of diameter - 1 (a diameter-4
    // region covers ~25 sites, the paper's 24 affected qubits).
    const int radius = std::max(0, diameter - 1);
    std::set<Coord> sites;
    for (int dx = -radius; dx <= radius; ++dx)
        for (int dy = -radius; dy <= radius; ++dy) {
            const Coord c{center.x + dx, center.y + dy};
            if (c.isDataSite() || c.isCheckSite())
                sites.insert(c);
        }
    return sites;
}

std::vector<DefectEvent>
DefectSampler::sampleEvents(const CodePatch &patch, uint64_t cycles)
{
    std::vector<DefectEvent> events;
    const double per_cycle =
        params_.eventRatePerQubitCycle() *
        static_cast<double>(patch.numPhysicalQubits());
    if (per_cycle <= 0.0)
        return events;
    const uint64_t duration = params_.durationCycles();
    uint64_t cycle = rng_.geometricSkip(per_cycle);
    while (cycle < cycles) {
        DefectEvent ev;
        ev.startCycle = cycle;
        ev.endCycle = cycle + duration;
        // Uniform center over the patch footprint.
        const int w = patch.xMax() - patch.xMin() + 1;
        const int h = patch.yMax() - patch.yMin() + 1;
        ev.center = {patch.xMin() + static_cast<int>(rng_.below(
                                        static_cast<uint64_t>(w))),
                     patch.yMin() + static_cast<int>(rng_.below(
                                        static_cast<uint64_t>(h)))};
        ev.sites = regionSites(ev.center, params_.regionDiameter);
        events.push_back(std::move(ev));
        const uint64_t skip = rng_.geometricSkip(per_cycle);
        if (skip >= cycles - cycle)
            break;
        cycle += skip + 1;
    }
    return events;
}

ActiveDefectSweep::ActiveDefectSweep(const std::vector<DefectEvent> &events)
    : events_(&events)
{
    by_start_.resize(events.size());
    by_end_.resize(events.size());
    for (size_t i = 0; i < events.size(); ++i)
        by_start_[i] = by_end_[i] = i;
    std::sort(by_start_.begin(), by_start_.end(), [&](size_t a, size_t b) {
        return events[a].startCycle < events[b].startCycle;
    });
    std::sort(by_end_.begin(), by_end_.end(), [&](size_t a, size_t b) {
        return events[a].endCycle < events[b].endCycle;
    });
}

void
ActiveDefectSweep::rewind()
{
    start_cursor_ = end_cursor_ = 0;
    last_cycle_ = 0;
    started_ = false;
    refcount_.clear();
    active_.clear();
}

const std::set<Coord> &
ActiveDefectSweep::activeAt(uint64_t cycle)
{
    SURF_ASSERT(!started_ || cycle >= last_cycle_,
                "ActiveDefectSweep queries must be monotone; rewind() first");
    started_ = true;
    last_cycle_ = cycle;
    // Admit events that have started (startCycle <= cycle)...
    while (start_cursor_ < by_start_.size()) {
        const DefectEvent &ev = (*events_)[by_start_[start_cursor_]];
        if (ev.startCycle > cycle)
            break;
        for (const Coord &c : ev.sites)
            if (++refcount_[c] == 1)
                active_.insert(c);
        ++start_cursor_;
    }
    // ... and retire events that have expired (endCycle <= cycle). Every
    // expired event was admitted above (endCycle > startCycle), so an
    // event skipped over entirely between two queries nets out exactly.
    while (end_cursor_ < by_end_.size()) {
        const DefectEvent &ev = (*events_)[by_end_[end_cursor_]];
        if (ev.endCycle > cycle)
            break;
        for (const Coord &c : ev.sites) {
            auto it = refcount_.find(c);
            if (it != refcount_.end() && --it->second == 0) {
                refcount_.erase(it);
                active_.erase(c);
            }
        }
        ++end_cursor_;
    }
    return active_;
}

std::set<Coord>
DefectSampler::activeSites(const std::vector<DefectEvent> &events,
                           uint64_t cycle)
{
    ActiveDefectSweep sweep(events);
    return sweep.activeAt(cycle);
}

StatusOr<std::set<Coord>>
DefectSampler::sampleStaticFaultsChecked(const CodePatch &patch, int k)
{
    std::vector<Coord> candidates = patch.dataList();
    for (const auto &c : patch.checks())
        if (c.ancilla)
            candidates.push_back(*c.ancilla);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (k < 0)
        return Status::invalidArgument(
            "static faults: k must be >= 0, got " + std::to_string(k));
    if (static_cast<size_t>(k) > candidates.size())
        return Status::invalidArgument(
            "static faults: k=" + std::to_string(k) + " exceeds the " +
            std::to_string(candidates.size()) + " physical qubits of the "
            "patch");
    const auto idx = rng_.sampleWithoutReplacement(
        static_cast<uint32_t>(candidates.size()), static_cast<uint32_t>(k));
    std::set<Coord> out;
    for (uint32_t i : idx)
        out.insert(candidates[i]);
    return out;
}

} // namespace surf
