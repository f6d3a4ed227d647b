/**
 * @file
 * Distance tests: the graph shortest-path distance must equal both the
 * designed distance of pristine patches and the exact GF(2) coset oracle,
 * and the flat kernel (algebraicLogical, graphDistance, graphDistances)
 * must reproduce the BitVec / hash-map references in
 * distance_reference.hh on strategy outcomes and hand-made candidates.
 */

#include <gtest/gtest.h>

#include "baselines/strategies.hh"
#include "convert.hh"
#include "core/deformation_unit.hh"
#include "core/instructions.hh"
#include "defects/defect_sampler.hh"
#include "distance_reference.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "util/rng.hh"

namespace surf {
namespace {

class DistanceParam : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DistanceParam, GraphMatchesDesign)
{
    const auto [dx, dz] = GetParam();
    const CodePatch p = rectangularPatch(dx, dz);
    EXPECT_EQ(graphDistance(p, PauliType::X).distance,
              static_cast<size_t>(dx));
    EXPECT_EQ(graphDistance(p, PauliType::Z).distance,
              static_cast<size_t>(dz));
    EXPECT_EQ(codeDistance(p), static_cast<size_t>(std::min(dx, dz)));
}

TEST_P(DistanceParam, GraphMatchesExactOracle)
{
    const auto [dx, dz] = GetParam();
    if (dx * dz > 30)
        GTEST_SKIP() << "oracle too large";
    const CodePatch p = rectangularPatch(dx, dz);
    EXPECT_EQ(graphDistance(p, PauliType::X).distance,
              exactDistance(p, PauliType::X));
    EXPECT_EQ(graphDistance(p, PauliType::Z).distance,
              exactDistance(p, PauliType::Z));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistanceParam,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 3},
                                           std::pair{5, 5}, std::pair{3, 5},
                                           std::pair{5, 3}, std::pair{4, 4},
                                           std::pair{9, 9}, std::pair{13, 13},
                                           std::pair{21, 21}));

TEST(Distance, PathIsValidLogicalOperator)
{
    const CodePatch p = rectangularPatch(5, 5);
    const auto rz = graphDistance(p, PauliType::Z);
    ASSERT_EQ(rz.distance, 5u);
    ASSERT_EQ(rz.path.size(), 5u);
    // The path must commute with every X generator (even overlap).
    for (const auto &g : p.stabilizerGenerators()) {
        if (g.type != PauliType::X)
            continue;
        EXPECT_FALSE(supportsAnticommute(rz.path, g.support));
    }
}

TEST(Distance, BareLogicalRepEqualsPathWithoutGauges)
{
    const CodePatch p = rectangularPatch(5, 5);
    const auto rep = bareLogicalRep(p, PauliType::Z);
    EXPECT_EQ(rep.size(), 5u);
}

TEST(Distance, RefreshLogicalsKeepsValidity)
{
    CodePatch p = rectangularPatch(5, 7);
    refreshLogicals(p);
    const auto r = p.validate();
    EXPECT_TRUE(r.ok) << r.reason;
    EXPECT_EQ(p.logicalX().size(), 5u);
    EXPECT_EQ(p.logicalZ().size(), 7u);
}

TEST(AlgebraicLogicalOracle, PristineRectanglesMatchReference)
{
    for (int dx = 2; dx <= 21; ++dx) {
        for (int dz : {dx, dx + 1, 2}) {
            const CodePatch p = rectangularPatch(dx, dz);
            for (const PauliType t : {PauliType::X, PauliType::Z})
                EXPECT_EQ(algebraicLogical(p, t),
                          testref::referenceAlgebraicLogical(p, t))
                    << dx << "x" << dz << " type " << typeChar(t);
        }
    }
}

TEST(AlgebraicLogicalOracle, DeformedPatchesMatchReference)
{
    // Deformation-unit outputs over random defect sets (data and syndrome
    // sites, interior and boundary), with growth, under both removal
    // policies; both logical types of every output patch.
    Rng rng(77);
    size_t patches = 0, grown = 0, gauged = 0;
    for (int trial = 0; trial < 120; ++trial) {
        const int d = 3 + 2 * static_cast<int>(rng.below(3));
        std::set<Coord> defects;
        const int count = 1 + static_cast<int>(rng.below(5));
        for (int k = 0; k < count; ++k)
            defects.insert({static_cast<int>(rng.below(2 * d + 1)),
                            static_cast<int>(rng.below(2 * d + 1))});
        for (const RemovalPolicy policy :
             {RemovalPolicy::Balanced, RemovalPolicy::MinimalDisable}) {
            DeformConfig cfg;
            cfg.d = d;
            cfg.deltaD = 2;
            cfg.policy = policy;
            cfg.syndromeViaDataRemoval =
                policy == RemovalPolicy::MinimalDisable;
            const DeformOutcome out = DeformationUnit(cfg).apply(defects);
            const CodePatch &p = out.result.patch;
            ++patches;
            grown += out.totalGrown() > 0;
            for (const auto &c : p.checks())
                if (c.role == CheckRole::Gauge) {
                    ++gauged;
                    break;
                }
            for (const PauliType t : {PauliType::X, PauliType::Z})
                EXPECT_EQ(algebraicLogical(p, t),
                          testref::referenceAlgebraicLogical(p, t))
                    << "trial " << trial << " type " << typeChar(t);
        }
    }
    EXPECT_GE(patches, 200u);
    EXPECT_GT(grown, 50u);
    EXPECT_GT(gauged, 50u);
}

/** Seeded defect sets at distance d: 1-5 scattered sites, or bursts of
 *  diameter-2 regions up to k = d^2/2 sites. */
std::set<Coord>
fuzzDefects(int d, Rng &rng)
{
    const uint64_t span = static_cast<uint64_t>(2 * d + 1);
    const auto site = [&] {
        return Coord{static_cast<int>(rng.below(span)),
                     static_cast<int>(rng.below(span))};
    };
    std::set<Coord> sites;
    if (rng.below(3) == 0) {
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

/**
 * The patches DeformState::build scores, with random pins and fixes
 * instead of scored ones: after the interior removals, then after every
 * boundary removal (supers recomputed, as candidateDistances does).
 * Unscored choices reach destroyed and congested codes that the
 * strategies avoid.
 */
std::vector<CodePatch>
candidatePatches(int d, const std::set<Coord> &defects, Rng &rng)
{
    CodePatch p = squarePatch(d);
    std::vector<Coord> interior_syn, boundary_syn, interior_data,
        boundary_data;
    for (const Coord &s : defects) {
        if (s.isDataSite() && p.hasData(s))
            (isInteriorData(p, s) ? interior_data : boundary_data)
                .push_back(s);
        else if (s.isCheckSite() && checkAt(p, s) >= 0)
            (isInteriorSyndrome(p, s) ? interior_syn : boundary_syn)
                .push_back(s);
    }
    for (const Coord &a : interior_syn)
        if (checkAt(p, a) >= 0)
            syndromeQRm(p, a);
    for (const Coord &q : interior_data)
        if (p.hasData(q))
            dataQRm(p, q);
    std::vector<CodePatch> out;
    const auto keep = [&] {
        out.push_back(p);
        out.back().recomputeSupers();
    };
    keep();
    for (const Coord &a : boundary_syn) {
        const int idx = checkAt(p, a);
        if (idx < 0)
            continue;
        const std::vector<Coord> support =
            p.checks()[static_cast<size_t>(idx)].support;
        removeBoundaryCheck(p, a, support[rng.below(support.size())]);
        keep();
    }
    for (const Coord &q : boundary_data) {
        if (!p.hasData(q))
            continue;
        pinData(p, q, rng.below(2) ? PauliType::X : PauliType::Z);
        keep();
    }
    return out;
}

TEST(GraphDistanceOracle, FlatKernelMatchesReference)
{
    // Strategy outcomes of every strategy at d = 3..15 over scattered and
    // dense clustered defect sets, plus the candidate patches of the
    // boundary removals: distance, path, congestion and the algebraic
    // reference logical of both types, single and paired queries.
    Rng rng(31337);
    std::vector<CodePatch> patches;
    for (int d = 3; d <= 15; d += 2) {
        patches.push_back(squarePatch(d));
        if (d <= 9)
            patches.push_back(rectangularPatch(2 * d, 2 * d));
        for (int set = 0; set < 26; ++set) {
            const std::set<Coord> defects = fuzzDefects(d, rng);
            for (const Strategy s : {Strategy::Ascs, Strategy::SurfDeformer})
                patches.push_back(
                    applyStrategyChecked(s, d, 2, defects).value().patch);
            for (CodePatch &c : candidatePatches(d, defects, rng))
                patches.push_back(std::move(c));
        }
    }

    size_t destroyed = 0, congested = 0, gauged = 0;
    for (size_t i = 0; i < patches.size(); ++i) {
        const CodePatch &p = patches[i];
        for (const auto &c : p.checks())
            if (c.role == CheckRole::Gauge) {
                ++gauged;
                break;
            }
        const DistanceResults both = graphDistances(p);
        for (const PauliType t : {PauliType::X, PauliType::Z}) {
            const DistanceResult ref = testref::referenceGraphDistance(p, t);
            const DistanceResult got = graphDistance(p, t);
            const DistanceResult &paired =
                t == PauliType::X ? both.x : both.z;
            for (const DistanceResult *r : {&got, &paired}) {
                EXPECT_EQ(r->distance, ref.distance)
                    << "patch " << i << " type " << typeChar(t);
                EXPECT_EQ(r->path, ref.path)
                    << "patch " << i << " type " << typeChar(t);
                EXPECT_EQ(r->congestedQubits, ref.congestedQubits)
                    << "patch " << i << " type " << typeChar(t);
            }
            EXPECT_EQ(algebraicLogical(p, t),
                      testref::referenceAlgebraicLogical(p, t))
                << "patch " << i << " type " << typeChar(t);
            destroyed += ref.distance == 0;
            congested += ref.congestedQubits > 0;
        }
    }
    EXPECT_GE(patches.size(), 1000u);
    EXPECT_GT(destroyed, 0u);
    EXPECT_GT(congested, 0u);
    EXPECT_GT(gauged, 500u);
}

} // namespace
} // namespace surf
