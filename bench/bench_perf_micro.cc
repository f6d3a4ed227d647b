/**
 * @file
 * Google-benchmark micro-benchmarks of the performance-critical kernels:
 * frame-simulator sampling, DEM extraction, MWPM and union-find decoding,
 * cold Dijkstra rows, deformation, graph distance computation, epoch
 * planning, a warm scenario pass, deformed-code cache snapshot save/load,
 * and CRC32.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/deformation_unit.hh"
#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "decode/union_find.hh"
#include "defects/defect_sampler.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/snapshot.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"

using namespace surf;

namespace {

BuiltCircuit
standardCircuit(int d, double p = 1e-3)
{
    MemorySpec spec;
    spec.rounds = d;
    NoiseParams noise;
    noise.p = p;
    return buildMemoryCircuit(squarePatch(d), spec, noise);
}

void
BM_FrameSimulator(benchmark::State &state)
{
    const auto built = standardCircuit(static_cast<int>(state.range(0)));
    uint64_t seed = 1;
    for (auto _ : state) {
        FrameSimulator sim(built.circuit, 1024, seed++);
        benchmark::DoNotOptimize(sim.numDetectors());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FrameSimulator)->Arg(3)->Arg(5)->Arg(9);

void
BM_FrameSimulatorReuse(benchmark::State &state)
{
    // Same sampling work as BM_FrameSimulator, but reusing one simulator's
    // frame/record/detector buffers via reset() + run() instead of
    // reconstructing: measures the allocation overhead removed per batch.
    const auto built = standardCircuit(static_cast<int>(state.range(0)));
    FrameSimulator sim(built.circuit, 1024, 0);
    uint64_t seed = 1;
    for (auto _ : state) {
        sim.reset(seed++);
        sim.run();
        benchmark::DoNotOptimize(sim.numDetectors());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FrameSimulatorReuse)->Arg(3)->Arg(5)->Arg(9);

void
BM_FrameSimulatorSmallBatch(benchmark::State &state)
{
    // The scenario engine's shape: a fresh simulator per 160-round d=7
    // timeline circuit, sampled in small batches (16 shots in
    // scenario-d7), where per-instruction cost dominates per-shot cost.
    MemorySpec spec;
    spec.rounds = 160;
    NoiseParams noise;
    noise.p = 2e-3;
    const auto built = buildMemoryCircuit(squarePatch(7), spec, noise);
    const size_t shots = static_cast<size_t>(state.range(0));
    uint64_t seed = 1;
    for (auto _ : state) {
        FrameSimulator sim(built.circuit, shots, seed++);
        benchmark::DoNotOptimize(sim.numDetectors());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shots));
}
BENCHMARK(BM_FrameSimulatorSmallBatch)->Arg(16)->Arg(64);

void
BM_SyndromeExtractDense(benchmark::State &state)
{
    // Seed extraction path: one O(numDetectors) bit-scan per shot.
    const auto built = standardCircuit(static_cast<int>(state.range(0)));
    FrameSimulator sim(built.circuit, 1024, 7);
    for (auto _ : state) {
        size_t fired = 0;
        for (size_t s = 0; s < sim.shots(); ++s)
            fired += sim.firedDetectors(s).size();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SyndromeExtractDense)->Arg(3)->Arg(5)->Arg(9);

void
BM_SyndromeExtractSparse(benchmark::State &state)
{
    // Batched transpose: word-scan over detector planes, zero words
    // skipped, CSR buffers reused across batches.
    const auto built = standardCircuit(static_cast<int>(state.range(0)));
    FrameSimulator sim(built.circuit, 1024, 7);
    SparseSyndromes syndromes;
    for (auto _ : state) {
        sim.sparseFiredDetectors(syndromes);
        benchmark::DoNotOptimize(syndromes.flat.size());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SyndromeExtractSparse)->Arg(3)->Arg(5)->Arg(9);

void
BM_BuildDem(benchmark::State &state)
{
    // DEM build of a d-round memory segment (DEPOLARIZE1/2 sites fold
    // with one symmetric difference per component).
    const auto built = standardCircuit(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto dem = buildDem(built.circuit, PauliType::Z);
        benchmark::DoNotOptimize(dem.numDetectors);
    }
}
BENCHMARK(BM_BuildDem)->Arg(7)->Arg(9)->Arg(13)->Unit(benchmark::kMillisecond);

void
BM_MwpmDecode(benchmark::State &state)
{
    // Decode throughput per backend: args are (distance, backend).
    const int d = static_cast<int>(state.range(0));
    const auto backend = state.range(1) ? MatchingBackend::Sparse
                                        : MatchingBackend::Dense;
    const auto built = standardCircuit(d);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const MwpmDecoder decoder(dem, 1, nullptr, backend);
    FrameSimulator sim(built.circuit, 256, 7);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    MwpmScratch scratch;
    size_t shot = 0;
    for (auto _ : state) {
        const size_t s = shot % 256;
        benchmark::DoNotOptimize(decoder.decode(
            syndromes.data(s), syndromes.count(s), scratch));
        ++shot;
    }
}
BENCHMARK(BM_MwpmDecode)
    ->Args({3, 0})
    ->Args({5, 0})
    ->Args({9, 0})
    ->Args({3, 1})
    ->Args({5, 1})
    ->Args({9, 1});

void
BM_RowsDecode(benchmark::State &state)
{
    // Warm memoized-rows decode (arg: distance): Z memory at p = 5e-3 on
    // the Sparse backend with the burst dispatch off. An untimed pass
    // over the 256 shots builds every row first, so the loop times the
    // per-shot instance assembly plus the blossom solve.
    const int d = static_cast<int>(state.range(0));
    const auto built = standardCircuit(d, 5e-3);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    MwpmDecoder decoder(dem, 1, nullptr, MatchingBackend::Sparse);
    decoder.setBlossomThreshold(SIZE_MAX);
    FrameSimulator sim(built.circuit, 256, 7);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    MwpmScratch scratch;
    for (size_t s = 0; s < 256; ++s)
        (void)decoder.decode(syndromes.data(s), syndromes.count(s), scratch);
    size_t shot = 0;
    for (auto _ : state) {
        const size_t s = shot % 256;
        benchmark::DoNotOptimize(decoder.decode(
            syndromes.data(s), syndromes.count(s), scratch));
        ++shot;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowsDecode)->Arg(7)->Arg(9);

void
BM_UnionFindDecode(benchmark::State &state)
{
    // Union-find decode (arg: distance): Z memory at p = 5e-3 over d
    // rounds, 256 pre-sampled shots cut down to the decoder's Z-check
    // detectors, one scratch.
    const int d = static_cast<int>(state.range(0));
    const auto built = standardCircuit(d, 5e-3);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const UnionFindDecoder decoder(dem, 1);
    FrameSimulator sim(built.circuit, 256, 7);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    std::vector<std::vector<uint32_t>> shots(256);
    for (size_t s = 0; s < 256; ++s)
        for (uint32_t id : syndromes.shotVector(s))
            if (dem.detectorTag[id] == 1)
                shots[s].push_back(id);
    UfScratch scratch;
    size_t shot = 0;
    for (auto _ : state) {
        const std::vector<uint32_t> &s = shots[shot % 256];
        benchmark::DoNotOptimize(decoder.decode(s.data(), s.size(), scratch));
        ++shot;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnionFindDecode)->Arg(9)->Arg(13);

void
BM_DecodingGraphBuild(benchmark::State &state)
{
    // Cold-path decoder-graph construction per backend: args are
    // (distance, backend). This is the cost every new deformed-patch
    // shape pays before its first decoded shot; Sparse keeps only the
    // CSR adjacency while Dense builds the all-pairs tables.
    const int d = static_cast<int>(state.range(0));
    const auto backend = state.range(1) ? MatchingBackend::Sparse
                                        : MatchingBackend::Dense;
    const auto built = standardCircuit(d);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    for (auto _ : state) {
        const MwpmDecoder decoder(dem, 1, nullptr, backend);
        benchmark::DoNotOptimize(decoder.graph().numNodes());
    }
}
BENCHMARK(BM_DecodingGraphBuild)
    ->Args({3, 0})
    ->Args({5, 0})
    ->Args({9, 0})
    ->Args({13, 0})
    ->Args({3, 1})
    ->Args({5, 1})
    ->Args({9, 1})
    ->Args({13, 1});

void
BM_ColdRows(benchmark::State &state)
{
    // Every Dijkstra row of a cold decoder (arg: distance): each
    // iteration builds a fresh Sparse decoder over a d-round Z memory
    // DEM and asks for the row of every node, as a freshly deformed
    // code does before its rows are warm.
    const int d = static_cast<int>(state.range(0));
    const auto built = standardCircuit(d, 5e-3);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    DijkstraScratch scratch;
    int n = 0;
    for (auto _ : state) {
        const MwpmDecoder decoder(dem, 1, nullptr, MatchingBackend::Sparse);
        const DecodingGraph &graph = decoder.graph();
        n = static_cast<int>(graph.numNodes());
        for (int src = 0; src < n; ++src)
            benchmark::DoNotOptimize(graph.row(src, scratch).dist.data());
    }
    state.SetItemsProcessed(state.iterations() * n); // rows
}
BENCHMARK(BM_ColdRows)->Arg(7)->Arg(9)->Arg(13)->Unit(benchmark::kMillisecond);

void
BM_PipelineDecode(benchmark::State &state)
{
    // End-to-end sampling + decoding pipeline throughput (the engine
    // behind fig. 11 and Table II): args are (distance, threads).
    const int d = static_cast<int>(state.range(0));
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = d;
    cfg.noise.p = 1e-3;
    cfg.maxShots = 4096;
    cfg.batchShots = 1024;
    cfg.targetFailures = 1u << 30;
    cfg.threads = static_cast<size_t>(state.range(1));
    const CodePatch patch = squarePatch(d);
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.seed = seed++;
        const auto res = runMemoryExperiment(patch, cfg);
        benchmark::DoNotOptimize(res.failures);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(cfg.maxShots));
}
BENCHMARK(BM_PipelineDecode)
    ->Args({3, 1})
    ->Args({5, 1})
    ->Args({9, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->Args({9, 2})
    ->Args({9, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_DeformationUnit(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    DeformConfig cfg;
    cfg.d = d;
    cfg.deltaD = 4;
    DeformationUnit unit(cfg);
    const std::set<Coord> defects{{d, d}, {d + 1, d + 1}, {d - 2, d}};
    for (auto _ : state) {
        auto out = unit.apply(defects);
        benchmark::DoNotOptimize(out.result.distX);
    }
}
BENCHMARK(BM_DeformationUnit)->Arg(9)->Arg(15)->Arg(21);

void
BM_GraphDistance(benchmark::State &state)
{
    const CodePatch p = squarePatch(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(graphDistance(p, PauliType::Z).distance);
    }
}
BENCHMARK(BM_GraphDistance)->Arg(9)->Arg(21)->Arg(35);

/** SplitMix64 finalizer: the scenario benchmark's history sub-seeds. */
uint64_t
historySeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The scenario-d7 workload's planner config and its twelve cosmic-ray
 *  histories (d=7, delta_d=2, 160 rounds in 20-round windows, history
 *  seed 20240731, event rate x20000). */
struct ScenarioD7
{
    ScenarioConfig cfg;
    std::vector<std::vector<DefectEvent>> history;

    ScenarioD7()
    {
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
        cfg.threads = 2;
        DefectModelParams model = cfg.defectModel;
        model.eventRatePerQubitSec *= cfg.eventRateScale;
        const CodePatch base = squarePatch(cfg.timeline.d);
        for (uint64_t t = 0; t < 12; ++t) {
            DefectSampler sampler(model, historySeed(20240731, t));
            history.push_back(
                sampler.sampleEvents(base, cfg.timeline.horizonRounds));
        }
    }
};

void
BM_PlanEpochs(benchmark::State &state)
{
    // The scenario-d7 workload's planning layer: its twelve histories
    // planned through one fresh strategy memo per iteration, as one
    // scenario pass plans them.
    const ScenarioD7 sc;
    for (auto _ : state) {
        StrategyMemo memo;
        size_t epochs = 0;
        for (const auto &events : sc.history)
            epochs += planEpochs(sc.cfg.timeline, events, &memo).epochs.size();
        benchmark::DoNotOptimize(epochs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(sc.history.size()));
}
BENCHMARK(BM_PlanEpochs)->Unit(benchmark::kMillisecond);

void
BM_ScenarioWarmPass(benchmark::State &state)
{
    // One warm scenario-d7 pass: plan the twelve histories with a fresh
    // memo, then sample and decode 16 shots of each on 2 threads against
    // a cache that already holds every segment and timeline.
    const ScenarioD7 sc;
    DeformedCodeCache cache;
    auto pass = [&] {
        StrategyMemo memo;
        uint64_t failures = 0;
        for (size_t t = 0; t < sc.history.size(); ++t)
            failures += runPlannedTimeline(
                            planEpochs(sc.cfg.timeline, sc.history[t], &memo),
                            sc.cfg, cache, historySeed(1, 0xba7c + t), 0)
                            .failures;
        return failures;
    };
    pass(); // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(pass());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(sc.history.size()));
}
BENCHMARK(BM_ScenarioWarmPass)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ScenarioColdPass(benchmark::State &state)
{
    // One cold scenario-d7 pass: the warm pass's planning, sampling and
    // decoding, plus every stitched timeline, segment DEM and decoder
    // built from scratch into a fresh cache (missing DEMs are prefetched
    // on the 2-thread pool).
    const ScenarioD7 sc;
    for (auto _ : state) {
        DeformedCodeCache cache;
        StrategyMemo memo;
        uint64_t failures = 0;
        for (size_t t = 0; t < sc.history.size(); ++t)
            failures += runPlannedTimeline(
                            planEpochs(sc.cfg.timeline, sc.history[t], &memo),
                            sc.cfg, cache, historySeed(1, 0xba7c + t), 0)
                            .failures;
        benchmark::DoNotOptimize(failures);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(sc.history.size()));
}
BENCHMARK(BM_ScenarioColdPass)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_MemoryColdCall(benchmark::State &state)
{
    // One cold runMemoryExperiment call (arg: distance): Z memory at
    // p = 5e-3 over d rounds, 2048 shots on 2 threads, from stitching and
    // the DEM build through sampling and decoding, as each call of a
    // figure sweep pays it.
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = static_cast<int>(state.range(0));
    cfg.noise.p = 5e-3;
    cfg.maxShots = 2048;
    cfg.threads = 2;
    const CodePatch patch = squarePatch(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runMemoryExperiment(patch, cfg).failures);
        ++cfg.seed;
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_MemoryColdCall)
    ->Arg(9)
    ->Arg(13)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** A deformed-code cache populated by a d=5 cosmic-ray scenario (segments,
 *  stitched timelines and the Dijkstra rows their decodes memoized), and
 *  a temp directory for its snapshot; built once per process. */
struct SnapshotFixture
{
    DeformedCodeCache cache;
    std::string dir;
    std::string path;

    SnapshotFixture()
    {
        ScenarioConfig cfg;
        cfg.timeline.strategy = Strategy::SurfDeformer;
        cfg.timeline.d = 5;
        cfg.timeline.deltaD = 2;
        cfg.timeline.horizonRounds = 60;
        cfg.timeline.windowRounds = 10;
        cfg.timeline.maxEpochRounds = 10;
        cfg.defectModel.durationSec = 20e-6;
        cfg.defectModel.regionDiameter = 2;
        cfg.eventRateScale = 150000.0;
        cfg.numTimelines = 4;
        cfg.noise.p = 2e-3;
        cfg.maxShotsPerTimeline = 128;
        cfg.batchShots = 64;
        cfg.seed = 99;
        cfg.cache = &cache;
        runScenarioExperimentChecked(cfg).value();
        char tmpl[] = "/tmp/surf_bench_snapshot_XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        if (!d) {
            std::perror("mkdtemp");
            std::exit(1);
        }
        dir = d;
        path = dir + "/cache.snap";
    }
    ~SnapshotFixture()
    {
        std::remove(path.c_str());
        ::rmdir(dir.c_str());
    }
};

SnapshotFixture &
snapshotFixture()
{
    static SnapshotFixture fixture;
    return fixture;
}

void
BM_SnapshotSave(benchmark::State &state)
{
    // CRC-framed encode of every cached record plus the atomic
    // temp-file write, fsync and rename.
    SnapshotFixture &fx = snapshotFixture();
    uint64_t bytes = 0;
    for (auto _ : state) {
        const auto saved = saveCacheSnapshot(fx.cache, fx.path);
        benchmark::DoNotOptimize(saved);
        if (!saved.ok()) {
            state.SkipWithError(saved.status().str().c_str());
            break;
        }
        bytes = saved->fileBytes;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_SnapshotLoad(benchmark::State &state)
{
    // File read, per-record CRC check, paranoid decode and the decoder
    // rebuild each restored segment needs, into a fresh cache.
    SnapshotFixture &fx = snapshotFixture();
    if (!saveCacheSnapshot(fx.cache, fx.path).ok()) {
        state.SkipWithError("snapshot save failed");
        return;
    }
    uint64_t bytes = 0;
    for (auto _ : state) {
        DeformedCodeCache fresh;
        const auto loaded = loadCacheSnapshot(fresh, fx.path);
        benchmark::DoNotOptimize(loaded);
        if (!loaded.ok() || loaded->rejectedRecords) {
            state.SkipWithError("snapshot load rejected records");
            break;
        }
        bytes = loaded->fileBytes;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_Crc32(benchmark::State &state)
{
    // The snapshot checksum over one random buffer: 4 KiB (a small
    // record) and 32 MiB (about a scenario-d7 snapshot).
    std::string buf(static_cast<size_t>(state.range(0)), '\0');
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (char &c : buf) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        c = static_cast<char>(x);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(32 << 20);

} // namespace

BENCHMARK_MAIN();
