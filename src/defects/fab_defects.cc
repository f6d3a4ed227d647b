#include "defects/fab_defects.hh"

#include <algorithm>
#include <cmath>

#include "lattice/rotated.hh"
#include "util/logging.hh"

namespace surf {

namespace {

/** Site tags decorrelate the qubit and coupler decision streams. */
constexpr uint64_t kSiteFabQubit = 0xfab01ULL;
constexpr uint64_t kSiteFabCoupler = 0xfab02ULL;

/** SplitMix64 over the fold of (seed, site, a, b, c): stateless, same
 *  idiom as the fault injector's decision oracle. */
uint64_t
mix(uint64_t seed, uint64_t site, uint64_t a, uint64_t b = 0, uint64_t c = 0)
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

/** Fold a (possibly negative) coordinate into one decision word. */
uint64_t
packCoord(Coord c)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(c.x)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(c.y));
}

Status
badRate(const char *which, double v)
{
    return Status::invalidArgument(
        std::string("fab defects: ") + which +
        " must be a probability in [0, 1], got " + std::to_string(v));
}

} // namespace

std::vector<Coord>
fabQubitCandidates(const CodePatch &patch)
{
    std::vector<Coord> qubits = patch.dataList();
    for (const Check &c : patch.checks())
        if (c.ancilla)
            qubits.push_back(*c.ancilla);
    std::sort(qubits.begin(), qubits.end());
    qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());
    return qubits;
}

std::vector<std::pair<Coord, Coord>>
fabCouplerCandidates(const CodePatch &patch)
{
    std::vector<std::pair<Coord, Coord>> couplers;
    for (const Check &c : patch.checks()) {
        if (!c.ancilla)
            continue;
        for (const Coord &q : c.support)
            couplers.emplace_back(*c.ancilla, q);
    }
    std::sort(couplers.begin(), couplers.end());
    couplers.erase(std::unique(couplers.begin(), couplers.end()),
                   couplers.end());
    return couplers;
}

void
sampleFabInto(FabDefectSample &out, const CodePatch &patch, double qubitRate,
              double couplerRate, uint64_t seed, uint64_t salt)
{
    if (qubitRate > 0.0)
        for (const Coord &q : fabQubitCandidates(patch))
            if (unit(mix(seed, kSiteFabQubit, salt, packCoord(q))) <
                qubitRate)
                out.qubits.insert(q);
    if (couplerRate > 0.0)
        for (const auto &[anc, dat] : fabCouplerCandidates(patch))
            if (unit(mix(seed, kSiteFabCoupler, salt, packCoord(anc),
                         packCoord(dat))) < couplerRate)
                out.couplers.emplace(anc, dat);
}

StatusOr<FabDefectSample>
sampleFabDefectsChecked(const CodePatch &patch, const FabDefectModel &model)
{
    auto prob_ok = [](double p) {
        return std::isfinite(p) && p >= 0.0 && p <= 1.0;
    };
    if (!prob_ok(model.qubitRate))
        return badRate("qubitRate", model.qubitRate);
    if (!prob_ok(model.couplerRate))
        return badRate("couplerRate", model.couplerRate);
    FabDefectSample out;
    sampleFabInto(out, patch, model.qubitRate, model.couplerRate, model.seed,
                  0);
    return out;
}

std::set<Coord>
fabEffectiveSites(const FabDefectSample &sample)
{
    std::set<Coord> sites = sample.qubits;
    for (const auto &[anc, dat] : sample.couplers)
        sites.insert(dat);
    return sites;
}

StatusOr<FabAdaptation>
adaptFabDefectsChecked(Strategy s, int d, int deltaD,
                       const FabDefectSample &sample)
{
    FabAdaptation adapt;
    adapt.disabledSites = fabEffectiveSites(sample);
    StatusOr<StrategyOutcome> outcome =
        applyStrategyChecked(s, d, deltaD, adapt.disabledSites);
    if (!outcome.ok())
        return outcome.status();
    adapt.outcome = std::move(outcome.value());

    const CodePatch &patch = adapt.outcome.patch;
    const CodePatch pristine = squarePatch(d);
    for (const Coord &q : pristine.dataQubits())
        if (!patch.hasData(q))
            ++adapt.disabledData;
    adapt.superClusters = patch.supers().size();
    const size_t min_dist = adapt.outcome.minDist();
    adapt.distanceLoss =
        adapt.outcome.alive
            ? (static_cast<size_t>(d) > min_dist
                   ? static_cast<size_t>(d) - min_dist
                   : 0)
            : static_cast<size_t>(d);
    return adapt;
}

} // namespace surf
