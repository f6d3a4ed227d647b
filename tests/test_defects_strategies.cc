/**
 * @file
 * Tests for the defect models and the baseline strategy layer: region
 * geometry matches the paper's burst model, event sampling follows the
 * configured rates, detector imprecision behaves statistically, and the
 * strategies exhibit their characteristic behaviors (fig. 1). A golden
 * digest pins every strategy outcome over a seeded defect corpus.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/strategies.hh"
#include "defects/defect_sampler.hh"
#include "defects/detector_model.hh"
#include "fnv64.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "scenario/patch_signature.hh"

namespace surf {
namespace {

TEST(DefectSampler, RegionMatchesPaperScale)
{
    // Diameter 4 around an interior point: ~25 sites (paper: 24 affected
    // qubits + the struck one).
    const auto sites = DefectSampler::regionSites({10, 10}, 4);
    EXPECT_GE(sites.size(), 20u);
    EXPECT_LE(sites.size(), 27u);
    for (const Coord &c : sites) {
        EXPECT_LE(std::abs(c.x - 10), 3);
        EXPECT_LE(std::abs(c.y - 10), 3);
        EXPECT_TRUE(c.isDataSite() || c.isCheckSite());
    }
}

TEST(DefectSampler, EventRateMatchesModel)
{
    DefectModelParams params;
    params.eventRatePerQubitSec *= 1e4; // speed the test up
    DefectSampler sampler(params, 5);
    const CodePatch p = squarePatch(9);
    const uint64_t cycles = 2000000;
    const auto events = sampler.sampleEvents(p, cycles);
    const double expected = params.eventRatePerQubitCycle() *
                            static_cast<double>(p.numPhysicalQubits()) *
                            static_cast<double>(cycles);
    EXPECT_GT(expected, 5.0);
    EXPECT_NEAR(static_cast<double>(events.size()), expected,
                4 * std::sqrt(expected) + 2);
    for (const auto &ev : events)
        EXPECT_EQ(ev.endCycle - ev.startCycle, params.durationCycles());
}

TEST(DefectSampler, ActiveSitesWindowing)
{
    DefectModelParams params;
    DefectSampler sampler(params, 1);
    std::vector<DefectEvent> events;
    DefectEvent ev;
    ev.startCycle = 100;
    ev.endCycle = 200;
    ev.sites = DefectSampler::regionSites({5, 5}, 2);
    events.push_back(ev);
    EXPECT_TRUE(DefectSampler::activeSites(events, 50).empty());
    EXPECT_EQ(DefectSampler::activeSites(events, 150).size(),
              ev.sites.size());
    EXPECT_TRUE(DefectSampler::activeSites(events, 200).empty());
}

TEST(DefectSampler, StaticFaultsAreDistinctQubits)
{
    DefectSampler sampler(DefectModelParams{}, 3);
    const CodePatch p = squarePatch(7);
    const auto faults = sampler.sampleStaticFaultsChecked(p, 12).value();
    EXPECT_EQ(faults.size(), 12u);
}

TEST(DetectorModel, PreciseDetectionIsIdentity)
{
    DetectorModel m; // defaults: no errors
    Rng rng(2);
    const CodePatch p = squarePatch(5);
    const std::set<Coord> truth{{3, 3}, {4, 4}};
    EXPECT_EQ(m.observe(truth, p, rng), truth);
}

TEST(DetectorModel, FalseNegativesDropSites)
{
    DetectorModel m;
    m.falseNegative = 1.0;
    Rng rng(2);
    const CodePatch p = squarePatch(5);
    EXPECT_TRUE(m.observe({{3, 3}}, p, rng).empty());
}

TEST(DetectorModel, FalsePositivesAddSites)
{
    DetectorModel m;
    m.falsePositive = 0.5;
    Rng rng(2);
    const CodePatch p = squarePatch(5);
    const auto obs = m.observe({}, p, rng);
    EXPECT_GT(obs.size(), 10u); // half of ~49+24 sites flagged
}

TEST(Strategies, NamesAndSchemes)
{
    EXPECT_STREQ(strategyName(Strategy::SurfDeformer), "Surf-Deformer");
    EXPECT_EQ(schemeOf(Strategy::Q3deRevised), InterspaceScheme::Q3deRevised);
    EXPECT_EQ(schemeOf(Strategy::SurfDeformer),
              InterspaceScheme::SurfDeformer);
}

TEST(Strategies, CharacteristicBehaviors)
{
    const auto sites = DefectSampler::regionSites({8, 8}, 3);
    const int d = 9;

    const auto ls =
        applyStrategyChecked(Strategy::LatticeSurgery, d, 4, sites).value();
    EXPECT_EQ(ls.residualDefects.size(), sites.size());
    EXPECT_EQ(ls.grownLayers, 0);

    const auto ascs = applyStrategyChecked(Strategy::Ascs, d, 4, sites).value();
    EXPECT_TRUE(ascs.residualDefects.empty());
    EXPECT_LT(ascs.minDist(), static_cast<size_t>(d)); // lost distance
    EXPECT_EQ(ascs.grownLayers, 0);

    const auto q3 = applyStrategyChecked(Strategy::Q3de, d, 4, sites).value();
    EXPECT_FALSE(q3.residualDefects.empty());
    EXPECT_EQ(q3.grownLayers, 2 * d); // fixed doubling
    EXPECT_EQ(q3.minDist(), static_cast<size_t>(2 * d));

    const auto sd =
        applyStrategyChecked(Strategy::SurfDeformer, d, 4, sites).value();
    EXPECT_TRUE(sd.residualDefects.empty());
    EXPECT_GE(sd.minDist(), static_cast<size_t>(d)); // restored
    EXPECT_GT(sd.grownLayers, 0);
    EXPECT_LT(sd.patch.numData(), q3.patch.numData()); // adaptive < fixed
}

TEST(Strategies, CheckedEntryRejectsMalformedInput)
{
    // The checked entry turns every malformed shape into an
    // INVALID_ARGUMENT: unknown strategy values, out-of-range distances,
    // negative growth budgets. Well-formed input is accepted.
    EXPECT_EQ(applyStrategyChecked(static_cast<Strategy>(200), 5, 2, {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(applyStrategyChecked(Strategy::SurfDeformer, 1, 2, {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(applyStrategyChecked(Strategy::SurfDeformer, 1024, 2, {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(applyStrategyChecked(Strategy::SurfDeformer, 5, -1, {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    EXPECT_TRUE(
        applyStrategyChecked(Strategy::SurfDeformer, 5, 2, {Coord{5, 5}})
            .ok());
}

TEST(DefectSampler, CheckedStaticFaultsRejectsBadCounts)
{
    DefectSampler sampler(DefectModelParams{}, 11);
    const CodePatch p = squarePatch(3);
    EXPECT_EQ(sampler.sampleStaticFaultsChecked(p, -1).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sampler.sampleStaticFaultsChecked(p, 100000).status().code(),
              StatusCode::kInvalidArgument);
    const auto ok = sampler.sampleStaticFaultsChecked(p, 3);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok->size(), 3u);
}

TEST(Strategies, SurfDeformerBeatsAscsOnDistance)
{
    // Across several random bursts, SD's restored distance never falls
    // below ASC-S's remaining distance.
    for (int s = 0; s < 6; ++s) {
        DefectSampler sampler(DefectModelParams{}, 100 + s);
        const CodePatch ref = squarePatch(9);
        const auto faults = sampler.sampleStaticFaultsChecked(ref, 6).value();
        const auto a =
            applyStrategyChecked(Strategy::Ascs, 9, 4, faults).value();
        const auto d =
            applyStrategyChecked(Strategy::SurfDeformer, 9, 4, faults).value();
        EXPECT_GE(d.minDist(), a.minDist()) << "seed " << s;
    }
}

/** A seeded planner input at distance d: 1-5 scattered sites, or bursts
 *  of diameter-2 regions up to k = d^2/2 sites (dense enough that codes
 *  die and regions congest). */
std::set<Coord>
corpusDefects(int d, Rng &rng)
{
    const uint64_t span = static_cast<uint64_t>(2 * d + 1);
    const auto site = [&] {
        return Coord{static_cast<int>(rng.below(span)),
                     static_cast<int>(rng.below(span))};
    };
    std::set<Coord> sites;
    if (rng.below(2) == 0) {
        const uint64_t count = 1 + rng.below(5);
        for (uint64_t i = 0; i < count; ++i)
            sites.insert(site());
        return sites;
    }
    const uint64_t k = 1 + rng.below(static_cast<uint64_t>(d * d / 2));
    while (sites.size() < k)
        for (const Coord &c : DefectSampler::regionSites(site(), 2))
            sites.insert(c);
    return sites;
}

void
addCoords(testref::Fnv64 &f, const std::vector<Coord> &cs)
{
    f.add(cs.size());
    for (const Coord &c : cs) {
        f.add(static_cast<uint64_t>(static_cast<int64_t>(c.x)));
        f.add(static_cast<uint64_t>(static_cast<int64_t>(c.y)));
    }
}

TEST(StrategyGolden, OutcomesMatchRecordedDigest)
{
    // Every strategy over 120 seeded defect sets at d = 3..11: distances,
    // alive, grown layers, residual defects, the full patch signature and
    // both types' graphDistance and algebraicLogical of the outcome. The
    // constant was recorded from the BitVec / hash-map distance code.
    Rng rng(20261017);
    testref::Fnv64 f;
    size_t outcomes = 0, dead = 0, grown = 0;
    for (int d = 3; d <= 11; d += 2) {
        for (int set = 0; set < 24; ++set) {
            const std::set<Coord> defects = corpusDefects(d, rng);
            for (const Strategy s :
                 {Strategy::LatticeSurgery, Strategy::Ascs, Strategy::Q3de,
                  Strategy::Q3deRevised, Strategy::SurfDeformer}) {
                auto r = applyStrategyChecked(s, d, 2, defects);
                ASSERT_TRUE(r.ok()) << r.status().str();
                const StrategyOutcome &out = r.value();
                ++outcomes;
                dead += !out.alive;
                grown += s == Strategy::SurfDeformer && out.grownLayers > 0;
                f.add(static_cast<uint64_t>(s));
                f.add(static_cast<uint64_t>(d));
                f.add(out.distX);
                f.add(out.distZ);
                f.add(out.alive);
                f.add(static_cast<uint64_t>(out.grownLayers));
                addCoords(f, {out.residualDefects.begin(),
                              out.residualDefects.end()});
                f.addString(patchSignature(out.patch));
                for (const PauliType t : {PauliType::X, PauliType::Z}) {
                    const DistanceResult g = graphDistance(out.patch, t);
                    f.add(g.distance);
                    addCoords(f, g.path);
                    f.add(g.congestedQubits);
                    addCoords(f, algebraicLogical(out.patch, t));
                }
            }
        }
    }
    EXPECT_EQ(outcomes, 600u);
    EXPECT_GT(dead, 0u);
    EXPECT_GT(grown, 20u);
    EXPECT_EQ(f.h, 4269188377317445318ULL) << "digest " << f.h;
}

} // namespace
} // namespace surf
