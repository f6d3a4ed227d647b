/**
 * @file
 * Tests for the fault-injection harness (faultinject/fault_plan.hh) and
 * its integration with the scenario engine: plan parsing and validation,
 * stall plans forcing the staged fallback ladder with full ledger
 * accounting, deterministic replays at any thread count, cache-eviction
 * storms that change cost but never results, stream truncation and
 * corruption, and adversarial burst syndromes.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "defects/defect_sampler.hh"
#include "faultinject/fault_plan.hh"
#include "scenario/scenario_experiment.hh"

namespace surf {
namespace {

/** Small deformation-free scenario: one epoch, enough noise that almost
 *  every shot has defects to decode (so the ladder is exercised). */
ScenarioConfig
quietConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 9;
    sc.timeline.windowRounds = 9;
    sc.eventRateScale = 0.0;
    sc.noise.p = 3e-3;
    sc.maxShotsPerTimeline = 256;
    sc.batchShots = 128;
    sc.seed = 77;
    return sc;
}

/** Sampled multi-epoch scenario (mirrors the end-to-end engine test:
 *  the event rate guarantees real deformation epochs at this seed). */
ScenarioConfig
sampledConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 60;
    sc.timeline.windowRounds = 10;
    sc.timeline.maxEpochRounds = 10;
    sc.defectModel.durationSec = 20e-6;
    sc.defectModel.regionDiameter = 2;
    sc.eventRateScale = 150000.0;
    sc.numTimelines = 2;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 128;
    sc.batchShots = 64;
    sc.seed = 99;
    return sc;
}

void
expectLedgersEqual(const DegradationLedger &a, const DegradationLedger &b,
                   const char *what)
{
    EXPECT_EQ(a.ladderDecodes, b.ladderDecodes) << what;
    EXPECT_EQ(a.degradedDecodes, b.degradedDecodes) << what;
    for (size_t s = 0; s < kNumDecodeStages; ++s) {
        EXPECT_EQ(a.stageAttempts[s], b.stageAttempts[s])
            << what << " stage " << s;
        EXPECT_EQ(a.stageTimeouts[s], b.stageTimeouts[s])
            << what << " stage " << s;
        EXPECT_EQ(a.stageCompleted[s], b.stageCompleted[s])
            << what << " stage " << s;
        EXPECT_EQ(a.stageLatency[s].samples, b.stageLatency[s].samples)
            << what << " stage " << s;
        EXPECT_EQ(a.stageLatency[s].totalNs, b.stageLatency[s].totalNs)
            << what << " stage " << s;
    }
    EXPECT_EQ(a.injectedStalls, b.injectedStalls) << what;
    EXPECT_EQ(a.injectedBursts, b.injectedBursts) << what;
    EXPECT_EQ(a.injectedBurstDetectors, b.injectedBurstDetectors) << what;
    EXPECT_EQ(a.cacheStorms, b.cacheStorms) << what;
}

TEST(FaultPlan, ParsesFullSpec)
{
    const auto plan = parseFaultPlan(
        "seed=11;stall.p=0.25;stall.ns=2000000;stall.stages=blossom,rows;"
        "storm.epochs=2;storm.batches=3;truncate.frac=0.5;corrupt.p=0.1;"
        "burst.p=0.05;burst.size=16");
    ASSERT_TRUE(plan.ok()) << plan.status().str();
    EXPECT_EQ(plan.value().seed, 11u);
    EXPECT_DOUBLE_EQ(plan.value().stallProb, 0.25);
    EXPECT_EQ(plan.value().stallNs, 2000000u);
    EXPECT_EQ(plan.value().stormEveryEpochs, 2u);
    EXPECT_EQ(plan.value().stormEveryBatches, 3u);
    EXPECT_DOUBLE_EQ(plan.value().truncateFrac, 0.5);
    EXPECT_DOUBLE_EQ(plan.value().corruptProb, 0.1);
    EXPECT_DOUBLE_EQ(plan.value().burstProb, 0.05);
    EXPECT_EQ(plan.value().burstSize, 16u);
    EXPECT_TRUE(plan.value().enabled());
    EXPECT_TRUE(plan.value().hasDecoderStalls());
    EXPECT_FALSE(plan.value().summary().empty());

    const auto empty = parseFaultPlan("");
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty.value().enabled());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char *spec :
         {"nonsense", "stall.p", "stall.p=", "stall.p=abc",
          "frobnicate=1", "stall.p=1.5", "corrupt.p=-0.1",
          "stall.stages=quick", "truncate.frac=2",
          "stall.p=0.5;stall.ns=0", "burst.p=0.5;burst.size=0"}) {
        const auto plan = parseFaultPlan(spec);
        EXPECT_FALSE(plan.ok()) << spec;
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
            << spec;
    }
}

TEST(FaultPlan, EnvPlanIsPickedUpAndValidated)
{
    ASSERT_EQ(setenv("SURF_FAULT_PLAN", "seed=3;burst.p=0.5", 1), 0);
    auto env = faultPlanFromEnv();
    ASSERT_TRUE(env.ok()) << env.status().str();
    EXPECT_EQ(env.value().seed, 3u);
    EXPECT_DOUBLE_EQ(env.value().burstProb, 0.5);

    ASSERT_EQ(setenv("SURF_FAULT_PLAN", "stall.p=7", 1), 0);
    env = faultPlanFromEnv();
    EXPECT_FALSE(env.ok());
    EXPECT_NE(env.status().message().find("SURF_FAULT_PLAN"),
              std::string::npos);
    // A bad env plan must surface through the checked entry, not abort.
    const auto res = runScenarioExperimentChecked(quietConfig());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

    ASSERT_EQ(unsetenv("SURF_FAULT_PLAN"), 0);
    env = faultPlanFromEnv();
    ASSERT_TRUE(env.ok());
    EXPECT_FALSE(env.value().enabled());
}

TEST(FaultInjector, DecisionsAreStatelessAndSeeded)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.stallProb = 0.5;
    const FaultInjector inject(plan);
    EXPECT_TRUE(inject.virtualClockNeeded());
    // Same (salt, shot, epoch, stage) always gives the same decision.
    size_t stalled = 0;
    for (uint64_t shot = 0; shot < 200; ++shot) {
        const uint64_t a = inject.stallNs(1, shot, 0, kStageRows);
        const uint64_t b = inject.stallNs(1, shot, 0, kStageRows);
        EXPECT_EQ(a, b);
        stalled += a != 0;
    }
    // ... and the decisions actually vary across shots at p=0.5.
    EXPECT_GT(stalled, 50u);
    EXPECT_LT(stalled, 150u);

    FaultPlan storms;
    storms.stormEveryEpochs = 3;
    const FaultInjector si(storms);
    EXPECT_FALSE(si.virtualClockNeeded());
    size_t hits = 0;
    for (uint64_t e = 0; e < 12; ++e)
        hits += si.stormAtEpochBuild(0, e);
    EXPECT_EQ(hits, 4u); // every third build, deterministically
}

TEST(FaultInjection, StallPlanForcesLadderAndCompletes)
{
    // stall.p=1 with the default 50 ms stall against the default 10 ms
    // stall-plan deadline: both MWPM stages overrun on every decodable
    // shot, the union-find floor answers, and the run still completes
    // with every shot accounted for.
    ScenarioConfig sc = quietConfig();
    sc.matching = MatchingBackend::SparseBlossom; // full 3-stage ladder
    auto plan = parseFaultPlan("seed=5;stall.p=1");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto res = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(res.ok()) << res.status().str();
    EXPECT_EQ(res.value().shots, sc.maxShotsPerTimeline);

    const DegradationLedger &led = res.value().ledger;
    EXPECT_GT(led.ladderDecodes, 0u);
    EXPECT_EQ(led.degradedDecodes, led.ladderDecodes)
        << "every ladder decode should have timed out at stall.p=1";
    EXPECT_GT(led.injectedStalls, 0u);
    EXPECT_EQ(led.stageAttempts[kStageBlossom], led.ladderDecodes);
    EXPECT_EQ(led.stageTimeouts[kStageBlossom], led.ladderDecodes);
    EXPECT_EQ(led.stageTimeouts[kStageRows], led.ladderDecodes);
    EXPECT_EQ(led.stageCompleted[kStageUnionFind], led.ladderDecodes)
        << "the union-find floor must answer every degraded shot";
    EXPECT_EQ(led.stageLatency[kStageBlossom].samples, led.ladderDecodes);
    EXPECT_FALSE(led.summary().empty());
}

TEST(FaultInjection, PartialStallsDegradeOnlyStalledShots)
{
    ScenarioConfig sc = quietConfig();
    auto plan = parseFaultPlan("seed=5;stall.p=0.3");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto res = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(res.ok()) << res.status().str();
    const DegradationLedger &led = res.value().ledger;
    EXPECT_GT(led.ladderDecodes, 0u);
    EXPECT_GT(led.degradedDecodes, 0u);
    EXPECT_LT(led.degradedDecodes, led.ladderDecodes)
        << "at p=0.3 most shots must still answer within budget";
    EXPECT_GT(led.stageCompleted[kStageRows], 0u);
    EXPECT_GT(led.stageCompleted[kStageUnionFind], 0u);
}

TEST(FaultInjection, ReplaysAreDeterministicAcrossThreadCounts)
{
    // Stalls force the virtual clock, so stage choices, the ledger and
    // the physics must be bit-identical at any thread count and across
    // replays.
    ScenarioConfig sc = sampledConfig();
    auto plan =
        parseFaultPlan("seed=9;stall.p=0.4;burst.p=0.1;burst.size=8;"
                       "storm.batches=2");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();

    sc.threads = 1;
    const auto ref = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(ref.ok()) << ref.status().str();
    EXPECT_GT(ref.value().ledger.degradedDecodes, 0u);
    EXPECT_GT(ref.value().ledger.injectedBursts, 0u);

    for (size_t threads : {1u, 4u, 8u}) {
        sc.threads = threads;
        const auto res = runScenarioExperimentChecked(sc);
        ASSERT_TRUE(res.ok()) << res.status().str();
        EXPECT_EQ(res.value().shots, ref.value().shots)
            << "threads=" << threads;
        EXPECT_EQ(res.value().failures, ref.value().failures)
            << "threads=" << threads;
        EXPECT_EQ(res.value().totalEpochs, ref.value().totalEpochs)
            << "threads=" << threads;
        expectLedgersEqual(res.value().ledger, ref.value().ledger,
                           "threads");
    }
}

TEST(FaultInjection, EvictionStormsChangeCostButNotResults)
{
    ScenarioConfig sc = sampledConfig();
    const auto baseline = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(baseline.ok()) << baseline.status().str();

    auto plan = parseFaultPlan("storm.batches=1;storm.epochs=1");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto stormy = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(stormy.ok()) << stormy.status().str();
    EXPECT_GT(stormy.value().ledger.cacheStorms, 0u);
    EXPECT_EQ(stormy.value().failures, baseline.value().failures)
        << "eviction storms may only change cost, never physics";
    EXPECT_EQ(stormy.value().totalEpochs, baseline.value().totalEpochs);
    EXPECT_EQ(stormy.value().shots, baseline.value().shots);
    EXPECT_GE(stormy.value().cacheMisses, baseline.value().cacheMisses)
        << "storms force rebuilds";
}

TEST(FaultInjection, CorruptStreamsAreRejectedAsDataLoss)
{
    ScenarioConfig sc = sampledConfig();
    auto plan = parseFaultPlan("seed=2;corrupt.p=1");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto res = runScenarioExperimentChecked(sc);
    ASSERT_FALSE(res.ok())
        << "every sampled event was corrupted; validation must reject";
    EXPECT_EQ(res.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(res.status().message().find("defect stream"),
              std::string::npos)
        << res.status().str();
}

TEST(FaultInjection, TruncationToZeroMatchesQuietTimeline)
{
    // truncate.frac=0 drops every sampled event after the fact, which
    // must be indistinguishable from never sampling events at all: the
    // same quiet plan, the same seeds, the same physics.
    ScenarioConfig sc = sampledConfig();
    auto plan = parseFaultPlan("truncate.frac=0");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto truncated = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(truncated.ok()) << truncated.status().str();

    ScenarioConfig quiet = sampledConfig();
    quiet.eventRateScale = 0.0;
    const auto reference = runScenarioExperimentChecked(quiet);
    ASSERT_TRUE(reference.ok()) << reference.status().str();
    EXPECT_EQ(truncated.value().failures, reference.value().failures);
    EXPECT_EQ(truncated.value().totalEpochs,
              reference.value().totalEpochs);
}

TEST(FaultInjection, BurstSyndromesAreSurvivedAndCounted)
{
    ScenarioConfig sc = quietConfig();
    auto plan = parseFaultPlan("seed=8;burst.p=0.5;burst.size=24");
    ASSERT_TRUE(plan.ok());
    sc.faults = plan.value();
    const auto res = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(res.ok()) << res.status().str();
    EXPECT_EQ(res.value().shots, sc.maxShotsPerTimeline);
    EXPECT_GT(res.value().ledger.injectedBursts, 0u);
    EXPECT_GT(res.value().ledger.injectedBurstDetectors, 0u);
    // Bursts are adversarial extra defects, so more failures than the
    // clean run is expected — but never a crash or a hang.
    const auto clean = runScenarioExperimentChecked(quietConfig());
    ASSERT_TRUE(clean.ok());
    EXPECT_GE(res.value().failures, clean.value().failures);
}

TEST(FaultInjection, NoPlanAndNoDeadlineIsBitIdentical)
{
    // The strict opt-in guarantee: a config with no deadline and no
    // fault plan must produce exactly the pre-subsystem results (the
    // ladder path is never entered, the ledger stays empty).
    const auto res = runScenarioExperimentChecked(quietConfig());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.value().ledger.empty());
}

} // namespace
} // namespace surf
