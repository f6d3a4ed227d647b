/**
 * @file
 * Tests for the layout generator (paper Sec. VI): the Poisson block
 * probability, the Delta_d selection rule reproducing the paper's worked
 * example, and physical-qubit accounting across inter-space schemes.
 */

#include <gtest/gtest.h>

#include "core/layout_gen.hh"

namespace surf {
namespace {

TEST(LayoutGen, PaperWorkedExample)
{
    // d = 27, rho = 0.1/26 Hz, T = 25 ms, D = 4 => lambda ~= 0.14,
    // Delta_d = 4 gives p_block ~= 0.0089 < 0.01 (paper Sec. VI).
    const DefectModelParams model; // defaults are the paper's numbers
    LayoutGenerator gen(model);
    EXPECT_NEAR(model.lambdaForPatch(27), 0.14, 0.005);
    EXPECT_EQ(gen.chooseDeltaDChecked(27, 0.01).value(), 4);
    EXPECT_NEAR(gen.blockProbability(27, 4), 0.0089, 0.0015);
    EXPECT_GT(gen.blockProbability(27, 3), 0.01);
}

TEST(LayoutGen, DeltaDGrowsWithDistance)
{
    LayoutGenerator gen{DefectModelParams{}};
    // Larger patches catch more cosmic rays, so need more headroom.
    EXPECT_LE(gen.chooseDeltaDChecked(9).value(),
              gen.chooseDeltaDChecked(27).value());
    EXPECT_LE(gen.chooseDeltaDChecked(27).value(),
              gen.chooseDeltaDChecked(81).value());
}

TEST(LayoutGen, BlockProbabilityMonotonicInDeltaD)
{
    LayoutGenerator gen{DefectModelParams{}};
    double prev = 1.0;
    for (int delta = 0; delta <= 16; delta += 4) {
        const double p = gen.blockProbability(27, delta);
        EXPECT_LE(p, prev);
        prev = p;
    }
}

TEST(LayoutGen, DurationCyclesMatchesPaper)
{
    const DefectModelParams model;
    // 25 ms at 1 us per cycle = 25,000 QEC cycles (paper Sec. VII-A).
    EXPECT_EQ(model.durationCycles(), 25000u);
}

TEST(LayoutGen, SchemeInterspaces)
{
    EXPECT_EQ(LayoutGenerator::interspace(19, 4,
                                          InterspaceScheme::LatticeSurgery),
              19);
    EXPECT_EQ(LayoutGenerator::interspace(19, 4, InterspaceScheme::Q3de), 19);
    EXPECT_EQ(LayoutGenerator::interspace(19, 4,
                                          InterspaceScheme::Q3deRevised),
              38);
    EXPECT_EQ(LayoutGenerator::interspace(19, 4,
                                          InterspaceScheme::SurfDeformer),
              23);
}

TEST(LayoutGen, PlanQubitCounting)
{
    LayoutGenerator gen{DefectModelParams{}};
    const auto ls =
        gen.planChecked(400, 19, InterspaceScheme::LatticeSurgery).value();
    const auto sd =
        gen.planChecked(400, 19, InterspaceScheme::SurfDeformer).value();
    const auto q3r =
        gen.planChecked(400, 19, InterspaceScheme::Q3deRevised).value();
    EXPECT_EQ(ls.gridCols, 20);
    EXPECT_EQ(ls.gridRows, 20);
    // Surf-Deformer costs ~20% more than the plain LS layout at equal d
    // (paper Sec. VII-B observation 3)...
    const double sd_over_ls = static_cast<double>(sd.physicalQubits) /
                              static_cast<double>(ls.physicalQubits);
    EXPECT_GT(sd_over_ls, 1.05);
    EXPECT_LT(sd_over_ls, 1.45);
    // ...while the revised Q3DE layout costs ~2.25x (paper Sec. VI).
    const double q3r_over_ls = static_cast<double>(q3r.physicalQubits) /
                               static_cast<double>(ls.physicalQubits);
    EXPECT_GT(q3r_over_ls, 1.9);
    EXPECT_LT(q3r_over_ls, 2.6);
}

TEST(LayoutGen, PlanReportsAchievedBlockProbability)
{
    LayoutGenerator gen{DefectModelParams{}};
    const auto plan =
        gen.planChecked(100, 27, InterspaceScheme::SurfDeformer, 0.01)
            .value();
    EXPECT_EQ(plan.deltaD, 4);
    EXPECT_LE(plan.pBlock, 0.01);
}

TEST(LayoutGen, CheckedEntriesRejectBadInputAsStatus)
{
    LayoutGenerator gen{DefectModelParams{}};

    // Out-of-range parameters come back as INVALID_ARGUMENT.
    EXPECT_EQ(gen.chooseDeltaDChecked(2, 0.01).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gen.chooseDeltaDChecked(27, 0.0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gen.chooseDeltaDChecked(27, -1.0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gen.planChecked(0, 27, InterspaceScheme::SurfDeformer)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gen.planChecked(100, 1, InterspaceScheme::LatticeSurgery)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // An unsatisfiable alpha_block (defect rate swamping the patch) is a
    // diagnosable Status too — the Delta_d search is user-driven.
    DefectModelParams hot;
    hot.eventRatePerQubitSec = 1e9;
    LayoutGenerator swamped{hot};
    StatusOr<int> none = swamped.chooseDeltaDChecked(27, 1e-12);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
}

} // namespace
} // namespace surf
