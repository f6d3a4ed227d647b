/**
 * @file
 * Structural tests for pristine rotated surface code patches: qubit and
 * check counts, CSS commutation, boundary hosting rules, and algebraic
 * (Theorem-1) validity of the generator representation.
 */

#include <gtest/gtest.h>

#include "convert.hh"
#include "lattice/patch.hh"
#include "lattice/rotated.hh"

namespace surf {
namespace {

class RotatedPatchParam : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(RotatedPatchParam, CountsMatchTheory)
{
    const auto [dx, dz] = GetParam();
    const CodePatch p = rectangularPatch(dx, dz);
    EXPECT_EQ(p.numData(), static_cast<size_t>(dx * dz));
    // A dx-by-dz rotated code has dx*dz - 1 stabilizers.
    EXPECT_EQ(p.checks().size(), static_cast<size_t>(dx * dz - 1));
    EXPECT_TRUE(p.supers().empty());
    // Every physical qubit is data or a distinct ancilla.
    EXPECT_EQ(p.numPhysicalQubits(), static_cast<size_t>(2 * dx * dz - 1));
}

TEST_P(RotatedPatchParam, StructurallyValid)
{
    const auto [dx, dz] = GetParam();
    const CodePatch p = rectangularPatch(dx, dz);
    const auto r = p.validate();
    EXPECT_TRUE(r.ok) << r.reason;
}

TEST_P(RotatedPatchParam, EveryDataQubitCoveredByBothTypes)
{
    const auto [dx, dz] = GetParam();
    const CodePatch p = rectangularPatch(dx, dz);
    for (const Coord &q : p.dataQubits()) {
        const auto xs = p.checksOn(q, PauliType::X);
        const auto zs = p.checksOn(q, PauliType::Z);
        EXPECT_GE(xs.size(), 1u) << q.str();
        EXPECT_LE(xs.size(), 2u) << q.str();
        EXPECT_GE(zs.size(), 1u) << q.str();
        EXPECT_LE(zs.size(), 2u) << q.str();
    }
}

TEST_P(RotatedPatchParam, AlgebraPassesTheoremOne)
{
    const auto [dx, dz] = GetParam();
    const CodePatch p = rectangularPatch(dx, dz);
    const PatchAlgebra alg = toAlgebra(p);
    EXPECT_EQ(alg.code.numQubits(), static_cast<size_t>(dx * dz));
    EXPECT_EQ(alg.code.numLogical(), 1u);
    EXPECT_EQ(alg.code.numGauge(), 0u);
    const auto r = alg.code.validate();
    EXPECT_TRUE(r.ok) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RotatedPatchParam,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 3},
                                           std::pair{5, 5}, std::pair{3, 5},
                                           std::pair{5, 3}, std::pair{7, 7},
                                           std::pair{4, 6}, std::pair{9, 9}));

TEST(RotatedPatch, D3HasExpectedCheckMix)
{
    const CodePatch p = rectangularPatch(3, 3);
    int x_full = 0, x_half = 0, z_full = 0, z_half = 0;
    for (const auto &c : p.checks()) {
        if (c.type == PauliType::X)
            (c.weight() == 4 ? x_full : x_half)++;
        else
            (c.weight() == 4 ? z_full : z_half)++;
    }
    EXPECT_EQ(x_full, 2);
    EXPECT_EQ(x_half, 2);
    EXPECT_EQ(z_full, 2);
    EXPECT_EQ(z_half, 2);
}

TEST(RotatedPatch, BoundaryHostingRule)
{
    const CodePatch p = rectangularPatch(5, 5);
    for (const auto &c : p.checks()) {
        if (c.weight() == 4)
            continue;
        ASSERT_EQ(c.weight(), 2u);
        ASSERT_TRUE(c.ancilla.has_value());
        const Coord v = *c.ancilla;
        // Half-checks on the north/south edge must be Z; east/west must be X.
        if (v.y < p.yMin() || v.y > p.yMax())
            EXPECT_EQ(c.type, PauliType::Z) << v.str();
        else
            EXPECT_EQ(c.type, PauliType::X) << v.str();
    }
}

TEST(RotatedPatch, OriginShiftPreservesStructure)
{
    const CodePatch a = rectangularPatch(3, 3);
    const CodePatch b = rectangularPatch(3, 3, {10, 6});
    EXPECT_EQ(a.numData(), b.numData());
    EXPECT_EQ(a.checks().size(), b.checks().size());
    const auto r = b.validate();
    EXPECT_TRUE(r.ok) << r.reason;
    EXPECT_EQ(b.xMin(), 11);
    EXPECT_EQ(b.yMin(), 7);
}

TEST(RotatedPatch, LogicalRepsAnticommuteOnce)
{
    const CodePatch p = rectangularPatch(5, 5);
    auto lx = p.logicalX();
    auto lz = p.logicalZ();
    std::sort(lx.begin(), lx.end());
    std::sort(lz.begin(), lz.end());
    EXPECT_TRUE(supportsAnticommute(lx, lz));
    EXPECT_EQ(lx.size(), 5u);
    EXPECT_EQ(lz.size(), 5u);
}

TEST(RotatedPatch, RenderProducesGrid)
{
    const CodePatch p = rectangularPatch(3, 3);
    const std::string art = p.render();
    EXPECT_NE(art.find('o'), std::string::npos);
    EXPECT_NE(art.find('X'), std::string::npos);
    EXPECT_NE(art.find('Z'), std::string::npos);
}

TEST(SupportOps, XorAndAnticommute)
{
    std::vector<Coord> a{{1, 1}, {3, 1}, {5, 1}};
    std::vector<Coord> b{{3, 1}, {7, 1}};
    const auto x = supportXor(a, b);
    ASSERT_EQ(x.size(), 3u);
    EXPECT_EQ(x[0], (Coord{1, 1}));
    EXPECT_EQ(x[1], (Coord{5, 1}));
    EXPECT_EQ(x[2], (Coord{7, 1}));
    EXPECT_TRUE(supportsAnticommute(a, b));      // overlap {3,1}: odd
    std::vector<Coord> c{{1, 1}, {3, 1}};
    EXPECT_FALSE(supportsAnticommute(a, c));     // overlap size 2: even
}

} // namespace
} // namespace surf
