/**
 * @file
 * Tests for the Code Deformation Unit (paper Sec. V): Alg. 1 defect
 * removal with balancing, Alg. 2 adaptive enlargement with the Delta_d
 * cap, shrink-back when defects subside, randomized property tests that
 * every produced code is structurally and algebraically valid, and that a
 * grown outcome equals a direct rebuild of its final footprint.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "convert.hh"
#include "core/deformation_unit.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "util/rng.hh"

namespace surf {
namespace {

DeformConfig
sdConfig(int d, int delta_d)
{
    DeformConfig cfg;
    cfg.d = d;
    cfg.deltaD = delta_d;
    return cfg;
}

TEST(DeformationUnit, NoDefectsIsIdentity)
{
    DeformationUnit unit(sdConfig(5, 4));
    const auto out = unit.apply({});
    EXPECT_TRUE(out.restored);
    EXPECT_EQ(out.result.distX, 5u);
    EXPECT_EQ(out.result.distZ, 5u);
    EXPECT_EQ(out.totalGrown(), 0);
    EXPECT_EQ(out.result.patch.numData(), 25u);
}

TEST(DeformationUnit, InteriorDefectTriggersEnlargement)
{
    DeformationUnit unit(sdConfig(5, 4));
    const auto out = unit.apply({Coord{5, 5}});
    EXPECT_TRUE(out.restored);
    EXPECT_GE(out.result.distX, 5u);
    EXPECT_GE(out.result.distZ, 5u);
    const auto v = out.result.patch.validate();
    EXPECT_TRUE(v.ok) << v.reason;
}

TEST(DeformationUnit, EnlargementIsAdaptiveNotFixed)
{
    // A single interior defect costs at most one unit of distance per
    // type, so at most one layer per axis is added (vs Q3DE's d layers).
    DeformationUnit unit(sdConfig(7, 4));
    const auto out = unit.apply({Coord{7, 7}});
    EXPECT_TRUE(out.restored);
    EXPECT_LE(out.totalGrown(), 2);
}

TEST(DeformationUnit, DeltaDCapLimitsGrowth)
{
    DeformationUnit unit(sdConfig(5, 1));
    // A row of defects across the middle costs several units of
    // Z-distance; the cap allows at most 1 layer per side.
    std::set<Coord> defects;
    for (int x = 1; x <= 9; x += 2)
        defects.insert(Coord{x, 5});
    const auto out = unit.apply(defects);
    for (int s = 0; s < 4; ++s)
        EXPECT_LE(out.grown[static_cast<size_t>(s)], 1);
    // With such a heavy defect line the cap is insufficient.
    EXPECT_FALSE(out.restored);
}

TEST(DeformationUnit, ShrinksBackWhenDefectsSubside)
{
    DeformationUnit unit(sdConfig(5, 4));
    const auto hit = unit.apply({Coord{5, 5}});
    EXPECT_GE(hit.totalGrown(), 1);
    const auto calm = unit.apply({});
    EXPECT_EQ(calm.totalGrown(), 0);
    EXPECT_EQ(calm.result.patch.numData(), 25u);
}

TEST(DeformationUnit, SyndromeDefect)
{
    DeformationUnit unit(sdConfig(5, 4));
    const auto out = unit.apply({Coord{4, 4}});
    EXPECT_TRUE(out.restored);
    const auto v = out.result.patch.validate();
    EXPECT_TRUE(v.ok) << v.reason;
    // SyndromeQ_RM keeps all data qubits of the original footprint alive.
    EXPECT_GE(out.result.patch.numData(), 25u);
}

TEST(DeformationUnit, BalancedBeatsMinimalDisableOnCorner)
{
    // Corner defect (paper fig. 8): balancing keeps a larger min distance
    // than ASC-S's minimal-disable choice.
    DeformConfig sd = sdConfig(5, 0);
    sd.enlargement = false;
    DeformConfig ascs = sd;
    ascs.policy = RemovalPolicy::MinimalDisable;

    const std::set<Coord> defect{Coord{9, 1}};
    const auto out_sd = DeformationUnit(sd).apply(defect);
    const auto out_ascs = DeformationUnit(ascs).apply(defect);
    const size_t min_sd = std::min(out_sd.result.distX, out_sd.result.distZ);
    const size_t min_ascs =
        std::min(out_ascs.result.distX, out_ascs.result.distZ);
    EXPECT_GE(min_sd, min_ascs);
    EXPECT_EQ(min_sd, 4u);
}

TEST(DeformationUnit, TraceRecordsInstructions)
{
    DeformationUnit unit(sdConfig(5, 4));
    const auto out = unit.apply({Coord{5, 5}});
    EXPECT_GE(out.trace.size(), 2u); // DataQ_RM + PatchQ_ADD layers
    bool has_rm = false, has_add = false;
    for (const auto &r : out.trace.records()) {
        if (r.name.rfind("DataQ_RM", 0) == 0)
            has_rm = true;
        if (r.name.rfind("PatchQ_ADD", 0) == 0)
            has_add = true;
    }
    EXPECT_TRUE(has_rm);
    EXPECT_TRUE(has_add);
}

TEST(DeformationUnit, DefectOnProspectiveScaleLayer)
{
    // Paper fig. 9c/d: a defect sitting in the layer that the enlargement
    // wants to add; the unit must still restore the distance (growing an
    // extra layer or removing the defect in the new layer).
    DeformationUnit unit(sdConfig(5, 4));
    std::set<Coord> defects{Coord{5, 5}};   // interior defect
    defects.insert(Coord{11, 5});           // just east of the patch
    const auto out = unit.apply(defects);
    EXPECT_TRUE(out.restored);
    const auto v = out.result.patch.validate();
    EXPECT_TRUE(v.ok) << v.reason;
}

TEST(DeformationUnit, GrownOutcomeEqualsRebuildOfFinalFootprint)
{
    // For defect sets that trigger enlargement, replay the final footprint
    // directly: apply() must report that footprint's build, and its trace
    // must be that build's trace followed by the PatchQ_ADD records, each
    // counting the checks its layer adds.
    Rng rng(4242);
    int grown_cases = 0;
    for (int trial = 0; trial < 80; ++trial) {
        const int d = 3 + 2 * static_cast<int>(rng.below(3));
        std::set<Coord> defects;
        const int count = 1 + static_cast<int>(rng.below(5));
        for (int k = 0; k < count; ++k)
            defects.insert({static_cast<int>(rng.below(2 * d + 1)),
                            static_cast<int>(rng.below(2 * d + 1))});
        for (const RemovalPolicy policy :
             {RemovalPolicy::Balanced, RemovalPolicy::MinimalDisable}) {
            DeformConfig cfg = sdConfig(d, 2);
            cfg.policy = policy;
            cfg.syndromeViaDataRemoval =
                policy == RemovalPolicy::MinimalDisable;
            const DeformOutcome out = DeformationUnit(cfg).apply(defects);
            if (out.totalGrown() == 0)
                continue;
            ++grown_cases;

            DeformState state;
            state.origin = cfg.origin;
            state.dx = d;
            state.dz = d;
            state.defects = defects;
            state.policy = cfg.policy;
            state.syndromeViaDataRemoval = cfg.syndromeViaDataRemoval;
            for (const Side s :
                 {Side::North, Side::South, Side::West, Side::East})
                for (int i = 0; i < out.grown[static_cast<size_t>(s)]; ++i)
                    state.grow(s);
            DeformTrace t;
            const DeformedPatch rebuilt = state.build(&t);

            EXPECT_EQ(out.result.patch.render(), rebuilt.patch.render());
            EXPECT_EQ(out.result.distX, rebuilt.distX);
            EXPECT_EQ(out.result.distZ, rebuilt.distZ);
            EXPECT_EQ(out.result.alive, rebuilt.alive);
            EXPECT_EQ(out.result.patch.logicalX(), rebuilt.patch.logicalX());
            EXPECT_EQ(out.result.patch.logicalZ(), rebuilt.patch.logicalZ());

            const auto &got = out.trace.records();
            ASSERT_EQ(got.size(),
                      t.size() + static_cast<size_t>(out.totalGrown()));
            for (size_t i = 0; i < t.size(); ++i) {
                const InstructionRecord &a = got[i], &b = t.records()[i];
                EXPECT_EQ(a.name, b.name) << "record " << i;
                EXPECT_EQ(std::tie(a.s2g, a.g2s, a.s2s, a.g2g),
                          std::tie(b.s2g, b.g2s, b.s2s, b.g2g))
                    << "record " << i;
            }
            // Replay the growth: each PatchQ_ADD record's G2S count is
            // the number of checks its layer adds to the rectangle.
            std::array<int, 4> added{0, 0, 0, 0};
            int dx = d, dz = d;
            for (size_t i = t.size(); i < got.size(); ++i) {
                ASSERT_EQ(got[i].name.rfind("PatchQ_ADD layer ", 0), 0u)
                    << got[i].name;
                const size_t before = rectangularPatch(dx, dz).checks().size();
                for (const Side s :
                     {Side::North, Side::South, Side::West, Side::East})
                    if (got[i].name.substr(17) == sideName(s)) {
                        ++added[static_cast<size_t>(s)];
                        (s == Side::North || s == Side::South ? dz : dx) += 1;
                    }
                const size_t after = rectangularPatch(dx, dz).checks().size();
                EXPECT_EQ(static_cast<size_t>(got[i].g2s), after - before)
                    << got[i].name << " at " << dx << "x" << dz;
            }
            EXPECT_EQ(added, out.grown);
        }
    }
    EXPECT_GT(grown_cases, 40);
}

/** Property test: random defect patterns always yield valid codes. */
class RandomDefectPattern : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomDefectPattern, AlwaysValidAndOracleAgrees)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
    const int d = 5;
    DeformationUnit unit(sdConfig(d, 3));
    for (int trial = 0; trial < 6; ++trial) {
        // Sample 1-4 defective sites anywhere in/near the patch.
        std::set<Coord> defects;
        const int k = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < k; ++i) {
            const int x = static_cast<int>(rng.below(2 * d + 3)) - 1;
            const int y = static_cast<int>(rng.below(2 * d + 3)) - 1;
            const Coord c{x, y};
            if (c.isDataSite() || c.isCheckSite())
                defects.insert(c);
        }
        const auto out = unit.apply(defects);
        if (!out.result.alive)
            continue; // destroyed codes are legal outcomes for heavy hits
        const auto v = out.result.patch.validate();
        ASSERT_TRUE(v.ok) << v.reason << "\n" << out.result.patch.render();
        // Graph distance must agree with the exact oracle (skip when the
        // enlarged patch makes the 2^rank enumeration too expensive).
        if (out.result.patch.numData() <= 44) {
            ASSERT_EQ(exactDistance(out.result.patch, PauliType::X),
                      out.result.distX)
                << out.result.patch.render();
            ASSERT_EQ(exactDistance(out.result.patch, PauliType::Z),
                      out.result.distZ)
                << out.result.patch.render();
        }
        // The algebraic layer must accept the code (Theorem 1).
        const PatchAlgebra alg = toAlgebra(out.result.patch);
        const auto ar = alg.code.validate();
        ASSERT_TRUE(ar.ok) << ar.reason;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDefectPattern,
                         ::testing::Range(0, 12));

} // namespace
} // namespace surf
