/**
 * @file
 * Tests for fabrication-defect adaptation (src/defects/fab_defects) and
 * its scenario-engine wiring: deterministic chip sampling, the bandage
 * super-stabilizer adapter cross-checked against applyStrategyChecked
 * and a noiseless tableau oracle, the zero-rate "costs nothing when
 * off" contract, thread-count invariance with broken chips, the dead-patch
 * yield contract (tallied, never aborting), and kill/resume
 * checkpointing with fab counters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <stdlib.h>

#include "decode/memory_experiment.hh"
#include "defects/fab_defects.hh"
#include "faultinject/fault_plan.hh"
#include "lattice/rotated.hh"
#include "scenario/patch_signature.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/syndrome_circuit.hh"
#include "tableau.hh"

namespace surf {
namespace {

/** Fresh temp directory, removed (best effort) on destruction. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/surf_fab_XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "/tmp";
    }
    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] int rc = ::system(cmd.c_str());
    }
};

FaultPlan
mustPlan(const std::string &spec)
{
    StatusOr<FaultPlan> plan = parseFaultPlan(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().str();
    return plan.ok() ? *plan : FaultPlan{};
}

void
expectSameResults(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.totalEpochs, b.totalEpochs);
    EXPECT_EQ(a.deadTimelines, b.deadTimelines);
    ASSERT_EQ(a.timelines.size(), b.timelines.size());
    for (size_t t = 0; t < a.timelines.size(); ++t) {
        const TimelineStats &x = a.timelines[t];
        const TimelineStats &y = b.timelines[t];
        EXPECT_EQ(x.shots, y.shots) << "timeline " << t;
        EXPECT_EQ(x.failures, y.failures) << "timeline " << t;
        EXPECT_EQ(x.dead, y.dead) << "timeline " << t;
        ASSERT_EQ(x.epochs.size(), y.epochs.size()) << "timeline " << t;
        for (size_t e = 0; e < x.epochs.size(); ++e) {
            EXPECT_EQ(x.epochs[e].shots, y.epochs[e].shots);
            EXPECT_EQ(x.epochs[e].mismatches, y.epochs[e].mismatches);
        }
    }
    EXPECT_EQ(a.ledger.fabDeadPatches, b.ledger.fabDeadPatches);
    EXPECT_EQ(a.ledger.fabAdaptedPatches, b.ledger.fabAdaptedPatches);
    EXPECT_EQ(a.ledger.fabDistanceLoss, b.ledger.fabDistanceLoss);
}

// ---------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------

TEST(FabSampler, RateBoundsAndDeterminism)
{
    const CodePatch patch = squarePatch(5);

    FabDefectModel off;
    off.seed = 42; // a seed alone breaks nothing
    const auto none = sampleFabDefectsChecked(patch, off);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->empty());
    EXPECT_FALSE(off.enabled());

    FabDefectModel all;
    all.qubitRate = 1.0;
    all.couplerRate = 1.0;
    const auto every = sampleFabDefectsChecked(patch, all);
    ASSERT_TRUE(every.ok());
    EXPECT_EQ(every->qubits.size(), fabQubitCandidates(patch).size());
    EXPECT_EQ(every->couplers.size(), fabCouplerCandidates(patch).size());

    FabDefectModel some;
    some.qubitRate = 0.1;
    some.couplerRate = 0.05;
    some.seed = 7;
    const auto a = sampleFabDefectsChecked(patch, some);
    const auto b = sampleFabDefectsChecked(patch, some);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->qubits, b->qubits);
    EXPECT_EQ(a->couplers, b->couplers);

    some.seed = 8; // a different chip
    const auto c = sampleFabDefectsChecked(patch, some);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(a->qubits != c->qubits || a->couplers != c->couplers);
}

TEST(FabSampler, RejectsMalformedRates)
{
    const CodePatch patch = squarePatch(3);
    for (double bad : {1.5, -0.25}) {
        FabDefectModel m;
        m.qubitRate = bad;
        EXPECT_EQ(sampleFabDefectsChecked(patch, m).status().code(),
                  StatusCode::kInvalidArgument)
            << "qubitRate " << bad;
        FabDefectModel m2;
        m2.couplerRate = bad;
        EXPECT_EQ(sampleFabDefectsChecked(patch, m2).status().code(),
                  StatusCode::kInvalidArgument)
            << "couplerRate " << bad;
    }
}

// ---------------------------------------------------------------------
// Bandage adapter.
// ---------------------------------------------------------------------

TEST(FabAdapter, MatchesApplyStrategyAndValidates)
{
    // The adapter is a thin deterministic wrapper over the strategy
    // layer: its patch must equal applyStrategyChecked on the effective
    // defect set, structure for structure, and pass code validation. It
    // rejects what the strategy layer rejects.
    const CodePatch patch = squarePatch(5);
    int exercised = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        FabDefectModel m;
        m.qubitRate = 0.08;
        m.couplerRate = 0.04;
        m.seed = seed;
        const auto sample = sampleFabDefectsChecked(patch, m);
        ASSERT_TRUE(sample.ok());
        if (sample->empty())
            continue;
        const auto adapt = adaptFabDefectsChecked(Strategy::SurfDeformer, 5,
                                                  2, *sample);
        ASSERT_TRUE(adapt.ok()) << adapt.status().str();
        const auto direct = applyStrategyChecked(Strategy::SurfDeformer, 5,
                                                 2, fabEffectiveSites(*sample));
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(patchSignature(adapt->outcome.patch),
                  patchSignature(direct->patch))
            << "seed " << seed;
        EXPECT_EQ(adapt->outcome.distX, direct->distX);
        EXPECT_EQ(adapt->outcome.distZ, direct->distZ);
        EXPECT_EQ(adapt->outcome.alive, direct->alive);
        if (!adapt->outcome.alive)
            continue;
        const auto v = adapt->outcome.patch.validate();
        EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.reason;
        ++exercised;
    }
    EXPECT_GE(exercised, 3) << "rate too low to exercise the adapter";

    const FabDefectSample none;
    EXPECT_EQ(adaptFabDefectsChecked(Strategy::SurfDeformer, 1, 2, none)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(adaptFabDefectsChecked(static_cast<Strategy>(99), 5, 2, none)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

TEST(FabAdapter, AdaptedPatchIsNoiselesslyDeterministic)
{
    // Tableau oracle: a noiseless memory run on a bandage-adapted patch
    // must be detector-quiet with an unflipped observable, for real
    // (random) measurement collapse — the super-stabilizer wiring can't
    // hide behind Monte-Carlo averaging.
    const CodePatch patch = squarePatch(5);
    NoiseParams noiseless;
    noiseless.p = 0.0;
    noiseless.pDefect = 0.0;
    int exercised = 0;
    for (uint64_t chip_seed = 1; chip_seed <= 12 && exercised < 3;
         ++chip_seed) {
        FabDefectModel m;
        m.qubitRate = 0.08;
        m.couplerRate = 0.04;
        m.seed = chip_seed;
        const auto sample = sampleFabDefectsChecked(patch, m);
        ASSERT_TRUE(sample.ok());
        if (sample->empty())
            continue;
        const auto adapt = adaptFabDefectsChecked(Strategy::SurfDeformer, 5,
                                                  2, *sample);
        ASSERT_TRUE(adapt.ok());
        if (!adapt->outcome.alive)
            continue;
        for (PauliType basis : {PauliType::Z, PauliType::X}) {
            MemorySpec spec;
            spec.basis = basis;
            spec.rounds = 6;
            const BuiltCircuit built =
                buildMemoryCircuit(adapt->outcome.patch, spec, noiseless);
            for (uint64_t seed = 1; seed <= 4; ++seed) {
                const auto run =
                    TableauSimulator::runCircuit(built.circuit, seed, false);
                for (size_t i = 0; i < run.detectors.size(); ++i)
                    ASSERT_FALSE(run.detectors[i])
                        << "chip " << chip_seed << " detector " << i
                        << " fired without noise";
                ASSERT_FALSE(run.observables.at(0))
                    << "chip " << chip_seed << ": logical flipped";
            }
        }
        ++exercised;
    }
    EXPECT_GE(exercised, 3);
}

// ---------------------------------------------------------------------
// Scenario-engine wiring.
// ---------------------------------------------------------------------

ScenarioConfig
fabScenarioConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 30;
    sc.timeline.windowRounds = 10;
    sc.defectModel.durationSec = 20e-6;
    sc.defectModel.regionDiameter = 2;
    sc.eventRateScale = 150000.0; // several strikes per timeline
    sc.numTimelines = 3;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 128;
    sc.batchShots = 64;
    sc.seed = 99;
    return sc;
}

TEST(FabScenario, ZeroRateReproducesMemoryExperimentBitExactly)
{
    // An enabled-but-zero-rate fab model must cost nothing: with no
    // dynamic events the scenario still reproduces the plain memory
    // experiment shot for shot.
    MemoryExperimentConfig mem;
    mem.spec.rounds = 12;
    mem.noise.p = 4e-3;
    mem.maxShots = 2048;
    mem.batchShots = 512;
    mem.targetFailures = uint64_t{1} << 30;
    mem.seed = 2024;
    mem.threads = 2;
    const auto ref = runMemoryExperiment(squarePatch(5), mem);

    ScenarioConfig sc;
    sc.timeline.d = 5;
    sc.timeline.horizonRounds = 12;
    sc.timeline.windowRounds = 4;
    sc.eventRateScale = 0.0;
    sc.noise.p = 4e-3;
    sc.maxShotsPerTimeline = 2048;
    sc.batchShots = 512;
    sc.targetFailures = uint64_t{1} << 30;
    sc.seed = 2024;
    sc.threads = 2;
    sc.fabDefects.qubitRate = 0.0;
    sc.fabDefects.couplerRate = 0.0;
    sc.fabDefects.seed = 0xfab; // a seed alone must change nothing
    const auto run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_EQ(run->shots, ref.shots);
    EXPECT_EQ(run->failures, ref.failures);
    EXPECT_EQ(run->fabDefectiveQubits, 0u);
    EXPECT_EQ(run->fabDefectiveCouplers, 0u);
    EXPECT_EQ(run->ledger.fabAdaptedPatches, 0u);
    EXPECT_EQ(run->ledger.fabDeadPatches, 0u);
}

TEST(FabScenario, ZeroRateMatchesConfigWithoutFabField)
{
    // With dynamic strikes in play, a zero-rate fab model must still be
    // bit-identical to a config that never mentions fabrication.
    const ScenarioConfig plain = fabScenarioConfig();
    const auto truth = runScenarioExperimentChecked(plain);
    ASSERT_TRUE(truth.ok()) << truth.status().str();

    ScenarioConfig zero = fabScenarioConfig();
    zero.fabDefects.seed = 123456789;
    const auto run = runScenarioExperimentChecked(zero);
    ASSERT_TRUE(run.ok());
    expectSameResults(*truth, *run);
}

TEST(FabScenario, BrokenChipThreadCountInvariance)
{
    // A broken chip plus per-timeline injected fab defects: results must
    // be bit-identical at any thread count (sampling is pure hashes of
    // seeds and salts; dead chips are deterministic all-loss timelines).
    ScenarioConfig base = fabScenarioConfig();
    base.fabDefects.qubitRate = 0.05;
    base.fabDefects.couplerRate = 0.02;
    base.fabDefects.seed = 21;
    base.faults = mustPlan("seed=5;fab.q.p=0.03;fab.c.p=0.01");

    base.threads = 1;
    const auto ref = runScenarioExperimentChecked(base);
    ASSERT_TRUE(ref.ok()) << ref.status().str();
    EXPECT_GT(ref->ledger.fabAdaptedPatches + ref->ledger.fabDeadPatches,
              0u)
        << "the chip came out pristine; bump a rate or seed";

    for (size_t threads : {size_t{4}, size_t{8}}) {
        ScenarioConfig cfg = base;
        cfg.threads = threads;
        const auto run = runScenarioExperimentChecked(cfg);
        ASSERT_TRUE(run.ok()) << run.status().str();
        expectSameResults(*ref, *run);
    }
}

TEST(FabScenario, DeadChipsAreTalliedNeverAborted)
{
    // Rate-1 chips with no spare room are unconditionally dead: the run
    // must complete (ok()), count every timeline as a deterministic
    // all-loss yield failure, and keep the books in the ledger.
    ScenarioConfig sc = fabScenarioConfig();
    sc.timeline.deltaD = 0; // no pristine enlargement region to flee into
    sc.fabDefects.qubitRate = 1.0;
    sc.fabDefects.couplerRate = 1.0;
    sc.fabDefects.seed = 3;
    const auto run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_FALSE(run->fabChipAlive);
    EXPECT_EQ(run->deadTimelines,
              static_cast<uint64_t>(sc.numTimelines));
    EXPECT_EQ(run->ledger.fabDeadPatches,
              static_cast<uint64_t>(sc.numTimelines));
    EXPECT_EQ(run->shots, run->failures);
    EXPECT_GT(run->shots, 0u);
    for (const TimelineStats &tl : run->timelines) {
        EXPECT_TRUE(tl.dead);
        EXPECT_EQ(tl.shots, tl.failures);
    }
}

TEST(FabScenario, KillAndResumePreservesFabCounters)
{
    // A broken-chip run killed mid-sweep (snap.kill) must resume from
    // its checkpoint bit-identically, fab ledger counters included.
    ScenarioConfig base = fabScenarioConfig();
    base.fabDefects.qubitRate = 0.05;
    base.fabDefects.couplerRate = 0.02;
    base.fabDefects.seed = 21;
    base.faults = mustPlan("seed=5;fab.q.p=0.03;fab.c.p=0.01");
    const auto truth = runScenarioExperimentChecked(base);
    ASSERT_TRUE(truth.ok()) << truth.status().str();

    TempDir dir;
    ScenarioConfig killed = base;
    killed.persistDir = dir.path;
    killed.faults = mustPlan("seed=5;fab.q.p=0.03;fab.c.p=0.01;snap.kill=2");
    const auto crash = runScenarioExperimentChecked(killed);
    ASSERT_FALSE(crash.ok());
    EXPECT_EQ(crash.status().code(), StatusCode::kAborted)
        << crash.status().str();

    ScenarioConfig resumed = base;
    resumed.persistDir = dir.path;
    const auto done = runScenarioExperimentChecked(resumed);
    ASSERT_TRUE(done.ok()) << done.status().str();
    EXPECT_EQ(done->resumedTimelines, 2u);
    expectSameResults(*truth, *done);
}

// ---------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------

TEST(FabValidation, FaultPlanFabClauses)
{
    const FaultPlan plan = mustPlan("seed=2;fab.q.p=0.01;fab.c.p=0.005");
    EXPECT_DOUBLE_EQ(plan.fabQubitProb, 0.01);
    EXPECT_DOUBLE_EQ(plan.fabCouplerProb, 0.005);
    EXPECT_TRUE(plan.enabled());
    EXPECT_NE(plan.summary().find("fab"), std::string::npos);

    EXPECT_EQ(parseFaultPlan("fab.q.p=1.5").status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parseFaultPlan("fab.c.p=-0.1").status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parseFaultPlan("fab.rate=0.1").status().code(),
              StatusCode::kInvalidArgument); // unknown key
}

TEST(FabValidation, ScenarioConfigRejectsMalformedFabModel)
{
    ScenarioConfig sc = fabScenarioConfig();
    sc.fabDefects.qubitRate = 1.5;
    EXPECT_EQ(runScenarioExperimentChecked(sc).status().code(),
              StatusCode::kInvalidArgument);

    ScenarioConfig sc2 = fabScenarioConfig();
    sc2.fabDefects.couplerRate = -0.5;
    EXPECT_EQ(runScenarioExperimentChecked(sc2).status().code(),
              StatusCode::kInvalidArgument);

    ScenarioConfig sc3 = fabScenarioConfig();
    sc3.timeline.strategy = static_cast<Strategy>(250);
    EXPECT_EQ(runScenarioExperimentChecked(sc3).status().code(),
              StatusCode::kInvalidArgument);
}

} // namespace
} // namespace surf
