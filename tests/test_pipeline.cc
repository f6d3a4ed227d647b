/**
 * @file
 * Tests for the batched sampling + parallel decoding pipeline: thread-pool
 * correctness, thread-count invariance of runMemoryExperiment, agreement
 * of the batched sparse syndrome transpose with the per-shot scan, frame
 * simulator buffer-reuse determinism, MWPM/union-find agreement on
 * low-weight syndromes, and timeline digests (shots, failures, per-epoch
 * mismatches, ledgers) pinned across the batch loop's history.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "decode/union_find.hh"
#include "defects/defect_sampler.hh"
#include "faultinject/fault_plan.hh"
#include "lattice/rotated.hh"
#include "scenario/epoch_plan.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "timeline_digest.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace surf {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (size_t workers : {1u, 2u, 5u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.size(), workers);
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(hits.size(), [&](size_t t, size_t w) {
            ASSERT_LT(w, pool.size());
            ++hits[t];
        });
        for (const auto &h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    std::atomic<uint64_t> total{0};
    for (int job = 0; job < 50; ++job)
        pool.parallelFor(11, [&](size_t t, size_t) { total += t; });
    EXPECT_EQ(total, 50u * (11u * 10u / 2u));
}

TEST(FrameSim, ResetRunReproducesFreshSimulator)
{
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 5e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(3), spec, noise);

    // One reused simulator stepping through seeds must equal a fresh
    // simulator per seed, bit for bit.
    FrameSimulator reused(built.circuit, 512, 100);
    for (uint64_t seed : {100u, 101u, 777u}) {
        if (seed != 100) {
            reused.reset(seed);
            reused.run();
        }
        FrameSimulator fresh(built.circuit, 512, seed);
        ASSERT_EQ(reused.numDetectors(), fresh.numDetectors());
        for (size_t d = 0; d < fresh.numDetectors(); ++d)
            ASSERT_EQ(reused.detectorBits(d), fresh.detectorBits(d))
                << "seed " << seed << " detector " << d;
        ASSERT_EQ(reused.observableBits(0), fresh.observableBits(0));
    }
}

TEST(FrameSim, SparseFiredDetectorsMatchesPerShotScan)
{
    // Random circuits: random Cliffords + noise + detectors over random
    // measurement subsets, exercising irregular detector counts.
    Rng rng(42);
    for (int trial = 0; trial < 8; ++trial) {
        Circuit ckt;
        const uint32_t nq = 4 + static_cast<uint32_t>(rng.below(5));
        std::vector<uint32_t> all;
        for (uint32_t q = 0; q < nq; ++q)
            all.push_back(q);
        ckt.append(Op::ResetZ, all);
        size_t n_meas = 0;
        for (int layer = 0; layer < 6; ++layer) {
            ckt.append(Op::H, {static_cast<uint32_t>(rng.below(nq))});
            const uint32_t a = static_cast<uint32_t>(rng.below(nq));
            uint32_t b = static_cast<uint32_t>(rng.below(nq));
            if (b == a)
                b = (b + 1) % nq;
            ckt.append(Op::CX, {a, b});
            ckt.append(Op::XError, all, 0.05);
            ckt.append(Op::ZError, all, 0.03);
            ckt.append(Op::MeasureZ, {a});
            ++n_meas;
            if (n_meas >= 2 && rng.bernoulli(0.7)) {
                const auto m1 = static_cast<uint32_t>(rng.below(n_meas));
                const auto m2 = static_cast<uint32_t>(rng.below(n_meas));
                ckt.appendDetector(m1 == m2 ? std::vector<uint32_t>{m1}
                                            : std::vector<uint32_t>{m1, m2},
                                   PauliType::Z);
            }
        }

        // 130 shots spans multiple 64-shot words plus a partial tail word.
        FrameSimulator sim(ckt, 130, 7 + static_cast<uint64_t>(trial));
        const SparseSyndromes sparse = sim.sparseFiredDetectors();
        ASSERT_EQ(sparse.shots(), sim.shots());
        for (size_t s = 0; s < sim.shots(); ++s)
            ASSERT_EQ(sparse.shotVector(s), sim.firedDetectors(s))
                << "trial " << trial << " shot " << s;
    }
}

TEST(FrameSim, SparseFiredDetectorsMatchesOnMemoryCircuit)
{
    MemorySpec spec;
    spec.rounds = 4;
    NoiseParams noise;
    noise.p = 4e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec, noise);
    FrameSimulator sim(built.circuit, 1000, 99);
    SparseSyndromes sparse;
    sim.sparseFiredDetectors(sparse);
    for (size_t s = 0; s < sim.shots(); ++s)
        ASSERT_EQ(sparse.shotVector(s), sim.firedDetectors(s)) << "shot " << s;
}

MemoryExperimentConfig
pipelineConfig()
{
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = 3;
    cfg.noise.p = 4e-3;
    cfg.maxShots = 6000;
    cfg.batchShots = 1024; // several full batches plus a partial tail
    cfg.targetFailures = 1u << 30;
    cfg.seed = 2024;
    return cfg;
}

TEST(Pipeline, ThreadCountDoesNotChangeResults)
{
    const CodePatch p = squarePatch(3);
    auto cfg = pipelineConfig();
    cfg.threads = 1;
    const auto serial = runMemoryExperiment(p, cfg);
    EXPECT_EQ(serial.shots, cfg.maxShots);
    for (size_t threads : {2u, 8u}) {
        cfg.threads = threads;
        const auto parallel = runMemoryExperiment(p, cfg);
        EXPECT_EQ(parallel.shots, serial.shots) << threads << " threads";
        EXPECT_EQ(parallel.failures, serial.failures) << threads
                                                      << " threads";
        EXPECT_EQ(parallel.pShot, serial.pShot);
    }
}

TEST(Pipeline, ThreadCountInvariantWithEarlyStopAndAutoDecoder)
{
    // Early stop interacts with batching: the failure tally that gates
    // the next batch must match at every thread count.
    const CodePatch p = squarePatch(3);
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = 2;
    cfg.noise.p = 2e-2;
    cfg.maxShots = 50000;
    cfg.targetFailures = 25;
    cfg.batchShots = 512;
    cfg.decoder = DecoderKind::Auto;
    cfg.mwpmDefectCap = 6; // force a mix of MWPM and union-find shots
    cfg.threads = 1;
    const auto serial = runMemoryExperiment(p, cfg);
    EXPECT_GE(serial.failures, 25u);
    for (size_t threads : {2u, 8u}) {
        cfg.threads = threads;
        const auto parallel = runMemoryExperiment(p, cfg);
        EXPECT_EQ(parallel.shots, serial.shots);
        EXPECT_EQ(parallel.failures, serial.failures);
    }
}

TEST(Decoders, MwpmAndUnionFindAgreeOnLowWeightSyndromes)
{
    // Every weight-1 and weight-2 syndrome of a d=3 memory must decode
    // identically under MWPM and union-find: low-weight defects leave no
    // room for the approximate decoder to pick a homologically different
    // correction unless the syndrome is genuinely ambiguous — and the
    // d=3 graph's weighted paths break those ties the same way.
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 1e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(3), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const uint8_t tag = 1;
    const MwpmDecoder mwpm(dem, tag);
    const UnionFindDecoder uf(dem, tag);
    MwpmScratch ms;
    UfScratch us;

    std::vector<uint32_t> tagged;
    for (uint32_t d = 0; d < dem.numDetectors; ++d)
        if (dem.detectorTag[d] == tag)
            tagged.push_back(d);
    ASSERT_GT(tagged.size(), 4u);

    size_t checked = 0;
    for (size_t i = 0; i < tagged.size(); ++i) {
        const uint32_t fired1[1] = {tagged[i]};
        EXPECT_EQ(mwpm.decode(fired1, 1, ms), uf.decode(fired1, 1, us))
            << "single defect " << tagged[i];
        for (size_t j = i + 1; j < tagged.size(); ++j) {
            const uint32_t fired2[2] = {tagged[i], tagged[j]};
            EXPECT_EQ(mwpm.decode(fired2, 2, ms), uf.decode(fired2, 2, us))
                << "defect pair " << tagged[i] << "," << tagged[j];
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(Decoders, ScratchReuseMatchesFreshScratch)
{
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 8e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(3), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const MwpmDecoder mwpm(dem, 1);
    const UnionFindDecoder uf(dem, 1);
    FrameSimulator sim(built.circuit, 600, 5);
    MwpmScratch ms;
    UfScratch us;
    for (size_t s = 0; s < sim.shots(); ++s) {
        const auto fired = sim.firedDetectors(s);
        MwpmScratch fresh_ms;
        UfScratch fresh_us;
        EXPECT_EQ(mwpm.decode(fired.data(), fired.size(), ms),
                  mwpm.decode(fired.data(), fired.size(), fresh_ms));
        EXPECT_EQ(uf.decode(fired.data(), fired.size(), us),
                  uf.decode(fired.data(), fired.size(), fresh_us));
    }
}

// ----------------------------------------------------- timeline digests

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

using testref::addLedger;
using testref::addTimeline;

/** The scenario-d7 benchmark workload: d=7 cosmic-ray histories (seed
 *  20240731, event rate x20000) in 20-round windows, 16 shots each. */
ScenarioConfig
scenarioD7Config(size_t threads)
{
    ScenarioConfig cfg;
    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = 7;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 160;
    cfg.timeline.windowRounds = 20;
    cfg.timeline.maxEpochRounds = 20;
    cfg.defectModel.durationSec = 40e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 20000.0;
    cfg.noise.p = 2e-3;
    cfg.maxShotsPerTimeline = 16;
    cfg.batchShots = 16;
    cfg.threads = threads;
    return cfg;
}

/** Every scenario-d7 timeline, planned through one memo, run twice
 *  against one cache (cold, then warm). */
void
addScenarioD7(testref::Fnv64 &f, size_t threads)
{
    const ScenarioConfig cfg = scenarioD7Config(threads);
    DefectModelParams model = cfg.defectModel;
    model.eventRatePerQubitSec *= cfg.eventRateScale;
    const CodePatch base = squarePatch(cfg.timeline.d);
    StrategyMemo memo;
    std::vector<ScenarioPlan> plans;
    for (uint64_t t = 0; t < 12; ++t) {
        DefectSampler sampler(model, mix(20240731, t));
        const auto events =
            sampler.sampleEvents(base, cfg.timeline.horizonRounds);
        plans.push_back(planEpochs(cfg.timeline, events, &memo));
    }
    DeformedCodeCache cache;
    for (int pass = 0; pass < 2; ++pass)
        for (size_t t = 0; t < plans.size(); ++t)
            addTimeline(f, runPlannedTimeline(plans[t], cfg, cache,
                                              mix(1, 0xba7c + t), 0));
}

/** A multi-epoch d=5 scenario of three batches (the last one short). */
ScenarioConfig
multiBatchScenario(size_t threads)
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
    sc.numTimelines = 3;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 120;
    sc.batchShots = 48;
    sc.seed = 99;
    sc.threads = threads;
    return sc;
}

ScenarioResult
addScenario(testref::Fnv64 &f, const ScenarioConfig &sc)
{
    auto res = runScenarioExperimentChecked(sc);
    EXPECT_TRUE(res.ok()) << res.status().str();
    if (!res.ok())
        return {};
    f.add(res.value().timelines.size());
    for (const TimelineStats &tl : res.value().timelines)
        addTimeline(f, tl);
    addLedger(f, res.value().ledger);
    return std::move(res.value());
}

uint64_t
addMemory(testref::Fnv64 &f, const MemoryExperimentConfig &cfg)
{
    const auto r = runMemoryExperiment(squarePatch(3), cfg);
    f.add(r.shots);
    f.add(r.failures);
    return r.shots;
}

TEST(Pipeline, TimelineDigestsMatchParent)
{
    // Recorded from the serial sample-then-decode batch loop: streaming
    // sampling into the decode job, and sampling the next batch ahead,
    // must not move a single shot, failure, mismatch or ledger count.
    constexpr uint64_t kD7 = 9734418507501511299ULL;
    constexpr uint64_t kFaults = 7903904456240761911ULL;
    constexpr uint64_t kMemory = 14025444473483315227ULL;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        testref::Fnv64 d7;
        addScenarioD7(d7, threads);

        // Bursts, stalls under the virtual clock, and eviction storms at
        // every batch and epoch build; then the same scenario stopped
        // early after a few failures, with a batch sampled ahead.
        testref::Fnv64 faults;
        ScenarioConfig sc = multiBatchScenario(threads);
        auto plan = parseFaultPlan("seed=9;stall.p=0.4;burst.p=0.1;"
                                   "burst.size=8;storm.batches=1;"
                                   "storm.epochs=2");
        ASSERT_TRUE(plan.ok());
        sc.faults = plan.value();
        const ScenarioResult faulted = addScenario(faults, sc);
        EXPECT_GT(faulted.ledger.degradedDecodes, 0u);
        EXPECT_GT(faulted.ledger.injectedBursts, 0u);
        EXPECT_GT(faulted.ledger.cacheStorms, 0u);
        EXPECT_GT(faulted.totalEpochs, faulted.timelines.size());
        ScenarioConfig early = multiBatchScenario(threads);
        early.batchShots = 16;
        early.targetFailures = 3;
        EXPECT_LT(addScenario(faults, early).shots,
                  early.numTimelines * early.maxShotsPerTimeline);

        // Memory runs: early stop mid-run, and a short last batch.
        testref::Fnv64 memory;
        MemoryExperimentConfig cfg;
        cfg.spec.rounds = 3;
        cfg.noise.p = 1e-2;
        cfg.maxShots = 20000;
        cfg.batchShots = 256;
        cfg.targetFailures = 40;
        cfg.seed = 31;
        cfg.threads = threads;
        EXPECT_LT(addMemory(memory, cfg), cfg.maxShots);
        cfg.maxShots = 1000;
        cfg.batchShots = 384;
        cfg.targetFailures = UINT64_MAX;
        addMemory(memory, cfg);

        EXPECT_EQ(d7.h, kD7) << "scenario-d7, " << threads << " threads";
        EXPECT_EQ(faults.h, kFaults) << "faults, " << threads << " threads";
        EXPECT_EQ(memory.h, kMemory) << "memory, " << threads << " threads";
    }
}

} // namespace
} // namespace surf
