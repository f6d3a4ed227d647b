/**
 * @file
 * Distance tests: the graph shortest-path distance must equal both the
 * designed distance of pristine patches and the exact GF(2) coset oracle,
 * and algebraicLogical must pick the same representative as the
 * per-vector reference in distance_reference.hh.
 */

#include <gtest/gtest.h>

#include "core/deformation_unit.hh"
#include "distance_reference.hh"
#include "lattice/convert.hh"
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

} // namespace
} // namespace surf
