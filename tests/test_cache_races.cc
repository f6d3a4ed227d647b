/**
 * @file
 * Race-coverage tests, written to run under ThreadSanitizer (the CI tsan
 * job) but also meaningful as plain determinism checks:
 *
 *  - decode threads sharing one fresh decoder, racing to build and
 *    publish the same memoized rows (each CAS loser frees its copy);
 *  - DeformedCodeCache eviction mid-timeline (budget pressure and
 *    fault-plan eviction storms) while the threaded decode pipeline is
 *    using pinned shared_ptr segments.
 *
 * Every scenario asserts bit-identical physics against an unbounded /
 * serial reference — races and eviction may only ever change cost.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "lattice/rotated.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"

namespace surf {
namespace {

TEST(CacheRaces, ConcurrentRowPublicationMatchesSerial)
{
    // One fresh sparse decoder hammered by several threads decoding the
    // same shots: every row is first needed by several threads at once,
    // so builders race to publish it and the losers free their copies.
    // Every prediction and matched weight must match the serial
    // reference bit for bit, and each source must end up published once.
    MemorySpec spec;
    spec.rounds = 5;
    NoiseParams noise;
    noise.p = 4e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec,
                                                  noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);

    MwpmDecoder reference(dem, 1, nullptr, MatchingBackend::Sparse);
    MwpmDecoder shared(dem, 1, nullptr, MatchingBackend::Sparse);

    FrameSimulator sim(built.circuit, 512, 0xace5);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    std::vector<uint8_t> expected(sim.shots());
    std::vector<int64_t> expected_weight(sim.shots());
    MwpmScratch ref_scratch;
    for (size_t s = 0; s < sim.shots(); ++s) {
        expected[s] = reference.decode(syndromes.data(s),
                                       syndromes.count(s), ref_scratch);
        expected_weight[s] = ref_scratch.lastWeight;
    }

    constexpr size_t kThreads = 4;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            MwpmScratch scratch; // per-thread scratch, shared decoder
            size_t bad = 0;
            for (size_t s = 0; s < sim.shots(); ++s) {
                bad += shared.decode(syndromes.data(s), syndromes.count(s),
                                     scratch) != (expected[s] != 0);
                bad += scratch.lastWeight != expected_weight[s];
            }
            mismatches.fetch_add(bad, std::memory_order_relaxed);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(mismatches.load(), 0u)
        << "racing row publication changed a prediction or weight";
    EXPECT_GT(reference.graph().rowsResident(), 0u);
    EXPECT_EQ(shared.graph().rowsResident(),
              reference.graph().rowsResident())
        << "a source was published more than once";
}

/** Deformation scenario with enough epochs to keep the cache busy. */
ScenarioConfig
racyScenarioConfig()
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
    sc.batchShots = 32; // many batches: many storm / eviction windows
    sc.seed = 99;
    return sc;
}

TEST(CacheRaces, SegmentEvictionMidTimelineUnderThreads)
{
    // Serial, unbounded reference.
    ScenarioConfig ref_cfg = racyScenarioConfig();
    ref_cfg.threads = 1;
    const auto ref = runScenarioExperimentChecked(ref_cfg);
    ASSERT_TRUE(ref.ok()) << ref.status().str();

    // A one-byte cache budget (only the entry being looked up stays
    // resident) under a threaded pipeline: segments are evicted while
    // earlier epochs' decoders are still decoding through their pinned
    // shared_ptr handles.
    ScenarioConfig cfg = racyScenarioConfig();
    cfg.threads = 4;
    DeformedCodeCache cache;
    cache.setBudget(1);
    cfg.cache = &cache;
    const auto bounded = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(bounded.ok()) << bounded.status().str();
    EXPECT_EQ(bounded.value().failures, ref.value().failures);
    EXPECT_EQ(bounded.value().totalEpochs, ref.value().totalEpochs);
    EXPECT_GT(bounded.value().cacheEvictions, 0u)
        << "the budget never evicted: the race was not exercised";
}

TEST(CacheRaces, EvictionStormsUnderThreadedPipeline)
{
    ScenarioConfig ref_cfg = racyScenarioConfig();
    ref_cfg.threads = 1;
    const auto ref = runScenarioExperimentChecked(ref_cfg);
    ASSERT_TRUE(ref.ok()) << ref.status().str();

    // Fault-plan storms clear the whole cache before every batch and
    // epoch build while four workers decode; pinned segments must keep
    // every in-flight decode safe and the physics unchanged.
    ScenarioConfig cfg = racyScenarioConfig();
    cfg.threads = 4;
    auto plan = parseFaultPlan("storm.batches=1;storm.epochs=1");
    ASSERT_TRUE(plan.ok());
    cfg.faults = plan.value();
    const auto stormy = runScenarioExperimentChecked(cfg);
    ASSERT_TRUE(stormy.ok()) << stormy.status().str();
    EXPECT_GT(stormy.value().ledger.cacheStorms, 0u);
    EXPECT_EQ(stormy.value().failures, ref.value().failures);
    EXPECT_EQ(stormy.value().totalEpochs, ref.value().totalEpochs);
}

} // namespace
} // namespace surf
