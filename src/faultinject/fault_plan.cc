#include "faultinject/fault_plan.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "defects/fab_defects.hh"
#include "persist/snapshot.hh"

namespace surf {

namespace {

/** Site tags keep decision streams of different sites decorrelated. */
enum Site : uint64_t
{
    kSiteStall = 0x5741ULL,
    kSiteStormEpoch = 0x5701ULL,
    kSiteStormBatch = 0x5702ULL,
    kSiteTruncate = 0x7201ULL,
    kSiteCorrupt = 0xc021ULL,
    kSiteBurst = 0xb021ULL,
    kSiteBurstCenter = 0xb022ULL,
    kSiteSnapBitflip = 0x50b1ULL,
};

/** SplitMix64 over the fold of (seed, site, a, b, c): stateless, so
 *  decisions are identical at any thread count and on every replay. */
uint64_t
mix(uint64_t seed, uint64_t site, uint64_t a, uint64_t b = 0,
    uint64_t c = 0)
{
    uint64_t z = seed ^ (site * 0x9e3779b97f4a7c15ULL);
    for (uint64_t v : {a, b, c}) {
        z += 0x9e3779b97f4a7c15ULL * (v + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
    }
    return z;
}

double
unit(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Status
badClause(const std::string &clause, const char *why)
{
    return Status::invalidArgument("fault plan clause '" + clause +
                                   "': " + why);
}

} // namespace

std::string
FaultPlan::summary() const
{
    if (!enabled())
        return "none";
    char buf[256];
    std::string out = "seed=" + std::to_string(seed);
    if (stallProb > 0.0) {
        std::snprintf(buf, sizeof buf, "; stall p=%g ns=%llu stages=%s%s",
                      stallProb, static_cast<unsigned long long>(stallNs),
                      (stallStages >> kStageBlossom) & 1 ? "blossom," : "",
                      (stallStages >> kStageRows) & 1 ? "rows" : "");
        out += buf;
    }
    if (stormEveryEpochs || stormEveryBatches) {
        std::snprintf(buf, sizeof buf, "; storm epochs=%u batches=%u",
                      stormEveryEpochs, stormEveryBatches);
        out += buf;
    }
    if (truncateFrac >= 0.0) {
        std::snprintf(buf, sizeof buf, "; truncate frac=%g", truncateFrac);
        out += buf;
    }
    if (corruptProb > 0.0) {
        std::snprintf(buf, sizeof buf, "; corrupt p=%g", corruptProb);
        out += buf;
    }
    if (burstProb > 0.0) {
        std::snprintf(buf, sizeof buf, "; burst p=%g size=%u", burstProb,
                      burstSize);
        out += buf;
    }
    if (fabQubitProb > 0.0 || fabCouplerProb > 0.0) {
        std::snprintf(buf, sizeof buf, "; fab q.p=%g c.p=%g", fabQubitProb,
                      fabCouplerProb);
        out += buf;
    }
    if (snapTornFrac >= 0.0 || snapBitflipProb > 0.0 || snapStale ||
        snapKillTimelines) {
        std::snprintf(buf, sizeof buf,
                      "; snap torn=%g bitflip.p=%g stale=%d kill=%u",
                      snapTornFrac, snapBitflipProb, snapStale ? 1 : 0,
                      snapKillTimelines);
        out += buf;
    }
    return out;
}

Status
validateFaultPlan(const FaultPlan &plan)
{
    auto prob_ok = [](double p) {
        return std::isfinite(p) && p >= 0.0 && p <= 1.0;
    };
    if (!prob_ok(plan.stallProb))
        return Status::invalidArgument("fault plan: stall.p must be a "
                                       "probability in [0, 1]");
    if (!prob_ok(plan.corruptProb))
        return Status::invalidArgument("fault plan: corrupt.p must be a "
                                       "probability in [0, 1]");
    if (!prob_ok(plan.burstProb))
        return Status::invalidArgument("fault plan: burst.p must be a "
                                       "probability in [0, 1]");
    if (plan.truncateFrac >= 0.0 &&
        !(std::isfinite(plan.truncateFrac) && plan.truncateFrac <= 1.0))
        return Status::invalidArgument("fault plan: truncate.frac must be "
                                       "in [0, 1]");
    if (plan.stallProb > 0.0 && plan.stallNs == 0)
        return Status::invalidArgument("fault plan: stall.ns must be > 0 "
                                       "when stall.p > 0");
    if (plan.stallProb > 0.0 &&
        !(plan.stallStages &
          ((1u << kStageBlossom) | (1u << kStageRows))))
        return Status::invalidArgument("fault plan: stall.stages must name "
                                       "blossom and/or rows");
    if (plan.burstProb > 0.0 && plan.burstSize == 0)
        return Status::invalidArgument("fault plan: burst.size must be > 0 "
                                       "when burst.p > 0");
    if (!prob_ok(plan.fabQubitProb))
        return Status::invalidArgument("fault plan: fab.q.p must be a "
                                       "probability in [0, 1]");
    if (!prob_ok(plan.fabCouplerProb))
        return Status::invalidArgument("fault plan: fab.c.p must be a "
                                       "probability in [0, 1]");
    if (!prob_ok(plan.snapBitflipProb))
        return Status::invalidArgument("fault plan: snap.bitflip.p must be "
                                       "a probability in [0, 1]");
    if (plan.snapTornFrac >= 0.0 &&
        !(std::isfinite(plan.snapTornFrac) && plan.snapTornFrac <= 1.0))
        return Status::invalidArgument("fault plan: snap.torn must be in "
                                       "[0, 1]");
    return Status::okStatus();
}

StatusOr<FaultPlan>
parseFaultPlan(const std::string &spec)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(pos, end - pos);
        pos = end + 1;
        if (clause.empty())
            continue;
        const size_t eq = clause.find('=');
        if (eq == std::string::npos)
            return badClause(clause, "expected key=value");
        const std::string key = clause.substr(0, eq);
        const std::string val = clause.substr(eq + 1);
        if (val.empty())
            return badClause(clause, "empty value");

        auto number = [&](double &out) -> bool {
            char *tail = nullptr;
            out = std::strtod(val.c_str(), &tail);
            return tail && *tail == '\0';
        };
        double num = 0.0;
        if (key == "stall.stages") {
            uint8_t stages = 0;
            size_t p = 0;
            while (p < val.size()) {
                size_t c = val.find(',', p);
                if (c == std::string::npos)
                    c = val.size();
                const std::string name = val.substr(p, c - p);
                p = c + 1;
                if (name == "blossom")
                    stages |= 1u << kStageBlossom;
                else if (name == "rows")
                    stages |= 1u << kStageRows;
                else
                    return badClause(clause, "stage must be 'blossom' or "
                                             "'rows'");
            }
            plan.stallStages = stages;
            continue;
        }
        if (!number(num))
            return badClause(clause, "value is not a number");
        if (key == "seed")
            plan.seed = static_cast<uint64_t>(num);
        else if (key == "stall.p")
            plan.stallProb = num;
        else if (key == "stall.ns")
            plan.stallNs = static_cast<uint64_t>(num);
        else if (key == "storm.epochs")
            plan.stormEveryEpochs = static_cast<uint32_t>(num);
        else if (key == "storm.batches")
            plan.stormEveryBatches = static_cast<uint32_t>(num);
        else if (key == "truncate.frac")
            plan.truncateFrac = num;
        else if (key == "corrupt.p")
            plan.corruptProb = num;
        else if (key == "burst.p")
            plan.burstProb = num;
        else if (key == "burst.size")
            plan.burstSize = static_cast<uint32_t>(num);
        else if (key == "fab.q.p")
            plan.fabQubitProb = num;
        else if (key == "fab.c.p")
            plan.fabCouplerProb = num;
        else if (key == "snap.torn")
            plan.snapTornFrac = num;
        else if (key == "snap.bitflip.p")
            plan.snapBitflipProb = num;
        else if (key == "snap.stale")
            plan.snapStale = num != 0.0;
        else if (key == "snap.kill")
            plan.snapKillTimelines = static_cast<uint32_t>(num);
        else
            return badClause(clause,
                             "unknown key (expected seed, stall.p, "
                             "stall.ns, stall.stages, storm.epochs, "
                             "storm.batches, truncate.frac, corrupt.p, "
                             "burst.p, burst.size, fab.q.p, fab.c.p, "
                             "snap.torn, snap.bitflip.p, snap.stale, "
                             "snap.kill)");
    }
    if (const Status s = validateFaultPlan(plan); !s.ok())
        return s;
    return plan;
}

StatusOr<FaultPlan>
faultPlanFromEnv()
{
    const char *env = std::getenv("SURF_FAULT_PLAN");
    if (!env || !*env)
        return FaultPlan{};
    auto parsed = parseFaultPlan(env);
    if (!parsed.ok())
        return Status::invalidArgument("SURF_FAULT_PLAN: " +
                                       parsed.status().message());
    return parsed;
}

uint64_t
FaultInjector::stallNs(uint64_t salt, uint64_t shot, uint64_t epoch,
                       DecodeStage stage) const
{
    if (plan_.stallProb <= 0.0 || !(plan_.stallStages & (1u << stage)))
        return 0;
    const uint64_t h =
        mix(plan_.seed, uint64_t{kSiteStall} + stage, salt, shot, epoch);
    return unit(h) < plan_.stallProb ? plan_.stallNs : 0;
}

bool
FaultInjector::stormAtEpochBuild(uint64_t salt, uint64_t epochIndex) const
{
    (void)salt;
    const uint32_t n = plan_.stormEveryEpochs;
    return n && (epochIndex + 1) % n == 0;
}

bool
FaultInjector::stormAtBatch(uint64_t salt, uint64_t batchIndex) const
{
    (void)salt;
    const uint32_t n = plan_.stormEveryBatches;
    return n && (batchIndex + 1) % n == 0;
}

void
FaultInjector::mutateStream(uint64_t salt,
                            std::vector<DefectEvent> &events) const
{
    if (plan_.truncateFrac >= 0.0) {
        const size_t keep = static_cast<size_t>(
            std::floor(plan_.truncateFrac *
                       static_cast<double>(events.size())));
        if (keep < events.size())
            events.resize(keep);
    }
    if (plan_.corruptProb > 0.0) {
        for (size_t i = 0; i < events.size(); ++i) {
            const uint64_t h = mix(plan_.seed, kSiteCorrupt, salt, i);
            if (unit(h) >= plan_.corruptProb)
                continue;
            DefectEvent &ev = events[i];
            // Three malformation shapes, all of which input validation
            // must reject with a diagnosable Status (never UB): an
            // inverted cycle interval, an event with no sites, and a
            // center teleported far off the lattice.
            switch (h % 3) {
              case 0:
                std::swap(ev.startCycle, ev.endCycle);
                if (ev.startCycle == ev.endCycle)
                    ev.startCycle = ev.endCycle + 1;
                break;
              case 1:
                ev.sites.clear();
                break;
              default:
                ev.center = Coord{1 << 24, 1 << 24};
                ev.sites = {ev.center};
                break;
            }
        }
    }
}

size_t
FaultInjector::injectBurst(uint64_t salt, uint64_t shot, uint64_t epoch,
                           size_t numDetectors,
                           std::vector<uint32_t> &ids) const
{
    if (plan_.burstProb <= 0.0 || numDetectors == 0)
        return 0;
    const uint64_t h = mix(plan_.seed, kSiteBurst, salt, shot, epoch);
    if (unit(h) >= plan_.burstProb)
        return 0;
    const size_t want =
        std::min<size_t>(plan_.burstSize, numDetectors);
    const uint64_t hc =
        mix(plan_.seed, kSiteBurstCenter, salt, shot, epoch);
    const size_t start =
        static_cast<size_t>(hc % (numDetectors - want + 1));
    const size_t before = ids.size();
    for (size_t i = 0; i < want; ++i)
        ids.push_back(static_cast<uint32_t>(start + i));
    // The decoders require ascending, duplicate-free detector lists.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids.size() - before; // net new detectors (overlaps dedup away)
}

void
FaultInjector::injectFabDefects(uint64_t salt, const CodePatch &patch,
                                FabDefectSample &sample) const
{
    if (plan_.fabQubitProb <= 0.0 && plan_.fabCouplerProb <= 0.0)
        return;
    // The salt is already unique per timeline; the extra constant keeps
    // the decision stream decorrelated from a FabDefectModel that happens
    // to share the plan seed.
    sampleFabInto(sample, patch, plan_.fabQubitProb, plan_.fabCouplerProb,
                  plan_.seed, salt ^ 0xfab5a17eULL);
}

void
FaultInjector::mutateSnapshotBytes(uint64_t salt, std::string &bytes) const
{
    // Header layout (persist/snapshot.hh): magic[8] | format u32 at 8 |
    // abi u32 at 12 | crc32 of bytes [0, 16) at 16.
    if (plan_.snapStale && bytes.size() >= 20) {
        const uint32_t alien = 0xFFFFFFFFu;
        std::memcpy(&bytes[8], &alien, sizeof alien);
        // Recompute the header CRC so the loader's version check fires,
        // not its CRC check — this shape models a well-formed file from
        // a different build, not media damage.
        const uint32_t c = crc32(bytes.data(), 16);
        std::memcpy(&bytes[16], &c, sizeof c);
    }
    if (plan_.snapBitflipProb > 0.0) {
        for (size_t i = 0; i < bytes.size(); ++i) {
            const uint64_t h = mix(plan_.seed, kSiteSnapBitflip, salt, i);
            if (unit(h) < plan_.snapBitflipProb)
                bytes[i] = static_cast<char>(
                    static_cast<uint8_t>(bytes[i]) ^
                    static_cast<uint8_t>(1u << ((h >> 8) & 7)));
        }
    }
    // Torn write last: whatever the other faults produced, the tail is
    // simply missing — the shape a crash mid-write leaves behind.
    if (plan_.snapTornFrac >= 0.0) {
        const auto keep = static_cast<size_t>(
            std::floor(plan_.snapTornFrac *
                       static_cast<double>(bytes.size())));
        if (keep < bytes.size())
            bytes.resize(keep);
    }
}

} // namespace surf
