/**
 * @file
 * Benchmark program: one workload per process, measured from outside the
 * library through its public entry points.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
 *
 * Untraced (--trace 0) runs time runMemoryExperiment (memory workloads) or
 * scenario passes (planEpochs + runPlannedTimeline per timeline, as
 * runScenarioExperiment runs them, plus cache snapshot and checkpoint
 * calls for restarts) in a closed loop — the next call starts when the
 * previous one returns — with 2 decode threads, and report the end-to-end
 * metrics, each timed operation scaled to a reference machine speed by
 * SpeedMeter (raw wall-clock medians go to stderr). Traced (--trace 1)
 * runs rebuild the pipeline layer by layer from the public layer functions
 * (circuit/segment builders, buildDem, decoder constructors, the frame
 * simulator, per-shot decode) on one thread, with a span around every
 * call, and report per-layer metrics. Both modes check their outputs.
 *
 * The last stdout line is one JSON object: {"metrics": {name: {"value",
 * "unit"}}, "attempted", "failed_checks", "band": {"failures", "shots"}}.
 * run.py checks the band against a reference rate and turns the line into
 * the benchmark's result line.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "decode/memory_experiment.hh"
#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/segment.hh"
#include "util/thread_pool.hh"

using namespace surf;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall seconds of one call. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** SplitMix64 finalizer: decorrelated sub-seeds from the workload seed. */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile (0 for an empty sample). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

double
peakRssMib()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Machine-speed calibration of the timed runs. On a shared 4-vCPU Xeon VM,
 * other tenants slowed every instruction stream of the benchmark by 30-40%
 * in spells of a few seconds, and raw wall-clock medians of identical runs
 * moved by up to 38%. So every timed operation is bracketed by a fixed
 * reference kernel (Dijkstra from fixed sources on a fixed random graph:
 * benchmark code, independent of the library and of --seed), and its wall
 * time is reported scaled by kReferenceSeconds over the mean of the two
 * kernel times: the time the operation takes on a machine that runs the
 * kernel in kReferenceSeconds. On that VM this cut the seed-to-seed spread
 * of shots_per_s from 0.05-0.41 of its median to 0.01-0.07.
 */
class SpeedMeter
{
  public:
    /** Kernel time on an unshared core of the 4-vCPU Xeon host the first
     *  numbers were measured on. */
    static constexpr double kReferenceSeconds = 0.013;

    /** Wall and speed-scaled seconds of one operation. */
    struct Sample
    {
        double wall, scaled;
    };

    SpeedMeter()
    {
        uint64_t x = 0x5eed;
        offsets_.resize(kNodes + 1);
        for (uint32_t u = 0; u <= kNodes; ++u)
            offsets_[u] = u * kDegree;
        for (uint32_t e = 0; e < kNodes * kDegree; ++e) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            heads_.push_back(static_cast<uint32_t>((x >> 33) % kNodes));
            weights_.push_back(1 + static_cast<uint32_t>((x >> 20) % 1000));
        }
        dist_.resize(kNodes);
        kernel(); // first touch of the graph
    }

    /** Wall seconds of one run of the reference kernel. */
    double
    kernel()
    {
        using Item = std::pair<uint64_t, uint32_t>;
        const auto t0 = Clock::now();
        for (uint32_t src = 0; src < kSources; ++src) {
            std::fill(dist_.begin(), dist_.end(), UINT64_MAX);
            std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
            const uint32_t s = src * 97;
            dist_[s] = 0;
            pq.push({0, s});
            while (!pq.empty()) {
                const auto [d, u] = pq.top();
                pq.pop();
                if (d > dist_[u])
                    continue;
                for (uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e)
                    if (d + weights_[e] < dist_[heads_[e]]) {
                        dist_[heads_[e]] = d + weights_[e];
                        pq.push({dist_[heads_[e]], heads_[e]});
                    }
            }
            checksum_ += dist_[kNodes - 1 - s];
        }
        return secondsSince(t0);
    }

    template <typename Fn>
    Sample
    time(Fn &&fn)
    {
        const double before = kernel();
        const double wall = timed(fn);
        const double after = kernel();
        return {wall, wall * kReferenceSeconds / (0.5 * (before + after))};
    }

    /** Folded into the output so the kernel cannot be optimised away. */
    uint64_t checksum() const { return checksum_; }

  private:
    static constexpr uint32_t kNodes = 16384, kDegree = 4, kSources = 4;
    std::vector<uint32_t> offsets_, heads_, weights_;
    std::vector<uint64_t> dist_;
    uint64_t checksum_ = 0;
};

/** The samples of one kind of timed operation. */
struct Timings
{
    std::vector<SpeedMeter::Sample> samples;

    void add(const SpeedMeter::Sample &s) { samples.push_back(s); }

    /** Median of &Sample::scaled or &Sample::wall. */
    double
    medianOf(double SpeedMeter::Sample::*field) const
    {
        std::vector<double> v;
        for (const auto &s : samples)
            v.push_back(s.*field);
        return median(v);
    }
};

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kThreads = 2;       ///< decode workers of timed runs
// Set-up and restart are measured several times per run and reported as
// medians: 5 times on the scenario (a cold pass takes about a second), and
// on the memory workloads (10-50 ms each) once per timed call, at least 15
// times.
constexpr int kScenarioRepeats = 5;
constexpr int kMemoryRepeats = 15;

/** Metrics, check outcomes and the p_shot band input of one run. */
struct Report
{
    struct Metric
    {
        std::string name, unit;
        double value;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> failed;
    uint64_t attempted = 0;
    uint64_t bandFailures = 0, bandShots = 0; ///< p_shot at a fixed seed

    void
    metric(const std::string &name, const char *unit, double value)
    {
        metrics.push_back({name, unit, value});
    }
    void
    count(const std::string &name, double value)
    {
        metric(name, "count", value);
    }
    /** One timed library call that completed. */
    void op() { ++attempted; }
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            failed.push_back(what);
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    void
    print() const
    {
        std::printf("{\"metrics\": {");
        for (size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
        std::printf("}, \"attempted\": %llu, \"failed_checks\": [",
                    static_cast<unsigned long long>(attempted));
        for (size_t i = 0; i < failed.size(); ++i)
            std::printf("%s\"%s\"", i ? ", " : "", failed[i].c_str());
        std::printf("], \"band\": {\"failures\": %llu, \"shots\": %llu}}\n",
                    static_cast<unsigned long long>(bandFailures),
                    static_cast<unsigned long long>(bandShots));
        std::fflush(stdout);
    }
};

// ------------------------------------------------------------ workloads

/** Z memory on squarePatch(d) for d rounds, Auto decoder, default backend. */
struct MemoryWorkload
{
    const char *name;
    int d;
    double p;
    uint64_t shotsPerCall; ///< shots of one timed runMemoryExperiment call
    uint64_t traceShots;   ///< shots of the traced replica
};

constexpr MemoryWorkload kMemoryWorkloads[] = {
    {"mem-d9-p1e-3", 9, 1e-3, 32768, 32768},
    {"mem-d9-p5e-3", 9, 5e-3, 1024, 4096},
    {"mem-d13-p5e-3", 13, 5e-3, 2048, 2048},
};

/** Timed calls whose failures feed p_shot (always completed, so p_shot
 *  is a pure function of the seed). */
constexpr int kBandCalls = 2;

MemoryExperimentConfig
memoryConfig(const MemoryWorkload &w, uint64_t seed, uint64_t shots,
             size_t threads)
{
    MemoryExperimentConfig cfg;
    cfg.spec.basis = PauliType::Z;
    cfg.spec.rounds = w.d;
    cfg.noise.p = w.p;
    cfg.maxShots = shots;
    cfg.targetFailures = UINT64_MAX;
    cfg.seed = seed;
    cfg.decoder = DecoderKind::Auto;
    cfg.threads = threads;
    return cfg;
}

/** The memory experiment as a zero-defect scenario (bit-identical by the
 *  engine's contract) — the public path that can persist its cache. */
ScenarioConfig
zeroDefectConfig(const MemoryWorkload &w, uint64_t seed, uint64_t shots)
{
    ScenarioConfig cfg;
    cfg.timeline.d = w.d;
    cfg.timeline.horizonRounds = static_cast<uint64_t>(w.d);
    cfg.timeline.windowRounds = static_cast<uint64_t>(w.d);
    cfg.eventRateScale = 0.0;
    cfg.numTimelines = 1;
    cfg.noise.p = w.p;
    cfg.maxShotsPerTimeline = shots;
    cfg.threads = kThreads;
    cfg.seed = seed;
    return cfg;
}

struct Timed
{
    ScenarioResult result;
    double seconds = 0.0;
};

/** One checked runScenarioExperiment call; a non-OK status is a failed
 *  check. */
Timed
scenarioRun(const ScenarioConfig &cfg, const char *what, Report &rep)
{
    Timed out;
    std::optional<StatusOr<ScenarioResult>> r;
    out.seconds = timed([&] { r.emplace(runScenarioExperimentChecked(cfg)); });
    rep.check(r->ok(), std::string(what) + " status " +
                           (r->ok() ? "OK" : r->status().str()));
    if (r->ok())
        out.result = std::move(r->value());
    return out;
}

/** bench_scenario_timeline's cosmic-ray workload at d=7. */
constexpr int kScenarioTimelines = 12;

/**
 * The defect history is part of the workload: drawn once from
 * bench_scenario_timeline's seed, so every run replays the same strikes
 * and --seed draws only the Monte-Carlo shots. A pass costs in proportion
 * to the distinct deformed shapes its history produces: across ten random
 * 36-timeline histories the quartile spread of every end-to-end figure
 * was 25-33% of its median, more than any bound a regression check could
 * use.
 */
constexpr uint64_t kHistorySeed = 20240731;

/** The scenario workload: config, defect history, per-timeline seeds. */
struct Scenario
{
    ScenarioConfig cfg;
    std::vector<std::vector<DefectEvent>> history;
    std::vector<uint64_t> batchSeeds;
};

Scenario
makeScenario(uint64_t seed, size_t threads)
{
    Scenario sc;
    ScenarioConfig &cfg = sc.cfg;
    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = 7;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 160;
    cfg.timeline.windowRounds = 20;
    cfg.timeline.maxEpochRounds = 20;
    cfg.defectModel.durationSec = 40e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 20000.0;
    cfg.numTimelines = kScenarioTimelines;
    cfg.noise.p = 2e-3;
    cfg.maxShotsPerTimeline = 16;
    cfg.batchShots = 16;
    cfg.threads = threads;

    DefectModelParams model = cfg.defectModel;
    model.eventRatePerQubitSec *= cfg.eventRateScale;
    const CodePatch base = squarePatch(cfg.timeline.d);
    for (int t = 0; t < cfg.numTimelines; ++t) {
        DefectSampler sampler(model, mixSeed(kHistorySeed, t));
        sc.history.push_back(
            sampler.sampleEvents(base, cfg.timeline.horizonRounds));
        sc.batchSeeds.push_back(mixSeed(seed, 0xba7c + t));
    }
    return sc;
}

/** Outcome of one pass over every timeline. */
struct Pass
{
    std::vector<uint64_t> failures; ///< per timeline
    uint64_t shots = 0, epochs = 0;
    double seconds = 0.0;

    uint64_t
    totalFailures() const
    {
        uint64_t f = 0;
        for (uint64_t x : failures)
            f += x;
        return f;
    }
};

/**
 * One pass as runScenarioExperiment runs it: plan every timeline with a
 * fresh strategy memo, then run it against `cache`. With `checkpoint`
 * set, the completed timelines are checkpointed after each one, as a
 * persisted run does.
 */
Pass
scenarioPass(const Scenario &sc, DeformedCodeCache &cache,
             const std::string *checkpoint, Report &rep)
{
    Pass out;
    std::vector<TimelineStats> done;
    bool saved = true;
    const uint64_t sig = scenarioConfigSignature(sc.cfg);
    const auto t0 = Clock::now();
    try {
        StrategyMemo memo;
        for (size_t t = 0; t < sc.history.size(); ++t) {
            const ScenarioPlan plan =
                planEpochs(sc.cfg.timeline, sc.history[t], &memo);
            TimelineStats tl =
                runPlannedTimeline(plan, sc.cfg, cache, sc.batchSeeds[t], 0);
            out.failures.push_back(tl.failures);
            out.shots += tl.shots;
            out.epochs += tl.epochs.size();
            if (checkpoint) {
                done.push_back(std::move(tl));
                saved &= saveRunCheckpoint(*checkpoint, sig, done).ok();
            }
        }
    } catch (const StatusError &e) {
        rep.check(false, "scenario pass status " + e.status().str());
    }
    out.seconds = secondsSince(t0);
    rep.op();
    if (checkpoint) {
        rep.check(saved, "run checkpoints written");
        std::remove(checkpoint->c_str());
    }
    return out;
}

/**
 * What a restarted sweep pays: a fresh in-memory cache restored from the
 * snapshot in `dir`, a checkpointed pass, and the snapshot rewritten at
 * the end (the persisted-run protocol of runScenarioExperiment).
 */
Pass
restartPass(const Scenario &sc, const std::string &dir, Report &rep)
{
    const std::string snap = dir + "/cache.snap", ckpt = dir + "/run.ckpt";
    DeformedCodeCache cache;
    StatusOr<SnapshotRestoreStats> restored = loadCacheSnapshot(cache, snap);
    rep.check(restored.ok() && restored->segments > 0 &&
                  restored->rejectedRecords == 0,
              "restart restores every snapshot record");
    Pass out = scenarioPass(sc, cache, &ckpt, rep);
    rep.check(saveCacheSnapshot(cache, snap).ok(), "restart snapshot save");
    return out;
}

/**
 * The engine's own persisted-run path: run `cfg` twice with persistDir
 * set; the second run must restore the first one's snapshot and agree
 * with it on failures.
 */
void
persistDirCheck(ScenarioConfig cfg, const std::string &dir, Report &rep)
{
    cfg.persistDir = dir + "/engine";
    const Timed first = scenarioRun(cfg, "persisted run", rep);
    const Timed second = scenarioRun(cfg, "restarted persisted run", rep);
    rep.check(second.result.persistRestoredSegments > 0,
              "persistDir restart restores entries");
    rep.check(second.result.failures == first.result.failures,
              "persistDir restart agrees on failures");
    std::remove((cfg.persistDir + "/cache.snap").c_str());
    ::rmdir(cfg.persistDir.c_str());
}

// --------------------------------------------------------------- tracing

/** Accumulated span time per layer plus per-shot decode samples. */
struct Trace
{
    double plan = 0, stitch = 0, segment = 0, dem = 0, graph = 0;
    double sample = 0, extract = 0, decode = 0;
    uint64_t timelines = 0, epochs = 0, builds = 0, shots = 0;
    uint64_t failures = 0;
    std::vector<double> k;          ///< fired detectors per decoded epoch
    std::vector<double> kMatch;     ///< of those, the decoder's basis tag
    std::vector<double> threshold;  ///< blossomThreshold() per decode
    std::vector<double> rowsUs, blossomUs, ufUs;

    double
    layers() const
    {
        return stitch + segment + dem + graph + sample + extract + decode;
    }
};

template <typename Fn>
auto
span(double &acc, Fn &&fn)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += secondsSince(t0);
    } else {
        auto r = fn();
        acc += secondsSince(t0);
        return r;
    }
}

/** Decoders of one epoch, as the engine builds them. */
struct EpochDecoder
{
    DetectorErrorModel dem;
    std::unique_ptr<MwpmDecoder> mwpm;
    std::unique_ptr<UnionFindDecoder> uf;
    size_t detBegin = 0, detEnd = 0;
};

constexpr uint8_t kTagZ = 1;

EpochDecoder
buildEpochDecoder(const Circuit &standalone, Trace &tr)
{
    EpochDecoder ed;
    ed.dem = span(tr.dem, [&] { return buildDem(standalone, PauliType::Z); });
    span(tr.graph, [&] {
        ed.mwpm = std::make_unique<MwpmDecoder>(ed.dem, kTagZ);
        ed.uf = std::make_unique<UnionFindDecoder>(ed.dem, kTagZ);
    });
    ++tr.builds;
    return ed;
}

/**
 * Sample and decode `shots` shots of `ckt` exactly like runPlannedTimeline
 * (batch seeds from `seedBase`, Auto rule at the default cap), one
 * thread, with a span around every layer call. Returns the failures.
 */
uint64_t
sampleAndDecode(const Circuit &ckt, const std::vector<EpochDecoder> &eps,
                uint64_t shots, size_t batchShots, uint64_t seedBase,
                Trace &tr, SparseSyndromes *firstBatch = nullptr)
{
    constexpr size_t kCap = 120; // ScenarioConfig::mwpmDefectCap default
    MwpmScratch msc;
    UfScratch usc;
    SparseSyndromes syn;
    std::unique_ptr<FrameSimulator> sim;
    std::vector<uint32_t> ids;
    uint64_t done = 0, failures = 0, seed = seedBase;
    while (done < shots) {
        const size_t batch = static_cast<size_t>(
            std::min<uint64_t>(batchShots, shots - done));
        span(tr.sample, [&] {
            if (!sim || sim->shots() != batch) {
                sim = std::make_unique<FrameSimulator>(ckt, batch, seed++);
            } else {
                sim->reset(seed++);
                sim->run();
            }
        });
        span(tr.extract, [&] { sim->sparseFiredDetectors(syn); });
        if (firstBatch && done == 0)
            *firstBatch = syn;
        const BitVec &obs = sim->observableBits(0);
        for (size_t s = 0; s < batch; ++s) {
            const uint32_t *fired = syn.data(s);
            const size_t n_fired = syn.count(s);
            size_t idx = 0;
            bool total = false;
            for (const EpochDecoder &ed : eps) {
                ids.clear();
                size_t tagged = 0;
                while (idx < n_fired && fired[idx] < ed.detEnd) {
                    const uint32_t local = fired[idx] - ed.detBegin;
                    ids.push_back(local);
                    tagged += ed.dem.detectorTag[local] == kTagZ;
                    ++idx;
                }
                const auto t0 = Clock::now();
                bool pred;
                std::vector<double> *bucket;
                if (ids.size() <= kCap) {
                    pred = ed.mwpm->decode(ids.data(), ids.size(), msc);
                    bucket = tagged >= ed.mwpm->blossomThreshold()
                                 ? &tr.blossomUs
                                 : &tr.rowsUs;
                } else {
                    pred = ed.uf->decode(ids.data(), ids.size(), usc);
                    bucket = &tr.ufUs;
                }
                const double dt = secondsSince(t0);
                tr.decode += dt;
                bucket->push_back(1e6 * dt);
                tr.k.push_back(static_cast<double>(ids.size()));
                tr.kMatch.push_back(static_cast<double>(tagged));
                tr.threshold.push_back(
                    static_cast<double>(ed.mwpm->blossomThreshold()));
                total ^= pred;
            }
            failures += total != obs.get(s);
        }
        done += batch;
    }
    tr.shots += shots;
    tr.failures += failures;
    return failures;
}

/** Per-layer metrics common to both workload kinds. */
void
reportTrace(const Trace &tr, double tracedWall, double untracedWall,
            Report &rep)
{
    const double shots = std::max<uint64_t>(1, tr.shots);
    const double builds = std::max<uint64_t>(1, tr.builds);
    const double decodes = std::max<size_t>(1, tr.k.size());
    rep.metric("sample.us_per_shot", "us", 1e6 * tr.sample / shots);
    rep.metric("extract.us_per_shot", "us", 1e6 * tr.extract / shots);
    rep.metric("mwpm.rows_us.p50", "us", quantile(tr.rowsUs, 0.5));
    rep.metric("mwpm.rows_us.p99", "us", quantile(tr.rowsUs, 0.99));
    rep.metric("mwpm.dispatch_frac", "fraction",
               tr.blossomUs.size() / decodes);
    rep.metric("mwpm.blossom_us.p50", "us", quantile(tr.blossomUs, 0.5));
    rep.metric("mwpm.blossom_us.p99", "us", quantile(tr.blossomUs, 0.99));
    rep.metric("uf.frac", "fraction", tr.ufUs.size() / decodes);
    rep.metric("uf.us.p50", "us", quantile(tr.ufUs, 0.5));
    rep.metric("uf.us.p99", "us", quantile(tr.ufUs, 0.99));
    rep.count("decode.samples", static_cast<double>(tr.k.size()));
    rep.count("k.p50", quantile(tr.k, 0.5));
    rep.count("k.p99", quantile(tr.k, 0.99));
    rep.count("k.max", quantile(tr.k, 1.0));
    // Dispatch compares the decoder-basis count with the threshold.
    rep.count("k_match.p50", quantile(tr.kMatch, 0.5));
    rep.count("k_match.p99", quantile(tr.kMatch, 0.99));
    rep.count("mwpm.blossom_threshold", quantile(tr.threshold, 0.5));
    // log2 histogram of k: bucket 0 holds k=0, bucket b holds
    // [2^(b-1), 2^b), the last bucket everything from 512 up.
    constexpr int kBuckets = 11;
    double hist[kBuckets] = {};
    for (double k : tr.k) {
        int b = 0;
        for (uint64_t v = static_cast<uint64_t>(k); v; v >>= 1)
            ++b;
        ++hist[std::min(b, kBuckets - 1)];
    }
    for (int b = 0; b < kBuckets; ++b)
        rep.count("k.log2." + std::to_string(b), hist[b]);
    rep.metric("stitch.ms_per_timeline", "ms",
               tr.timelines ? 1e3 * tr.stitch / tr.timelines : 0.0);
    rep.metric("segment.ms_per_epoch", "ms",
               tr.epochs ? 1e3 * tr.segment / tr.epochs : 0.0);
    rep.metric("dem.ms_per_build", "ms", 1e3 * tr.dem / builds);
    rep.metric("graph.ms_per_build", "ms", 1e3 * tr.graph / builds);
    rep.count("trace.epochs", static_cast<double>(tr.epochs));
    rep.metric("trace.unattributed_share", "fraction",
               (tracedWall - tr.layers()) / tracedWall);
    rep.metric("trace.overhead", "fraction", tracedWall / untracedWall - 1);
}

/** Snapshot save + direct load of a populated cache (persist layer). */
void
reportPersist(const DeformedCodeCache &cache, const std::string &dir,
              Report &rep)
{
    const std::string path = dir + "/layer.snap";
    std::optional<StatusOr<SnapshotSaveStats>> save;
    const double save_s =
        timed([&] { save.emplace(saveCacheSnapshot(cache, path)); });
    const StatusOr<SnapshotSaveStats> &saved = *save;
    rep.check(saved.ok(), "saveCacheSnapshot status");
    DeformedCodeCache fresh;
    std::optional<StatusOr<SnapshotRestoreStats>> load;
    const double load_s =
        timed([&] { load.emplace(loadCacheSnapshot(fresh, path)); });
    const StatusOr<SnapshotRestoreStats> &loaded = *load;
    rep.check(loaded.ok() && loaded->segments > 0 &&
                  loaded->rejectedRecords == 0,
              "loadCacheSnapshot restores every record");
    std::remove(path.c_str());
    rep.metric("persist.save_ms", "ms", 1e3 * save_s);
    rep.metric("persist.load_ms", "ms", 1e3 * load_s);
    rep.metric("persist.snapshot_mib", "MiB",
               saved.ok() ? saved->fileBytes / kMiB : 0.0);
    rep.count("persist.restored_rows", loaded.ok() ? loaded->rows : 0.0);
}

/** Cache counters: lookups of a cold pass (fresh cache before it) and
 *  the stitched-timeline hit rate of the warm pass after it. */
void
reportCache(const DeformedCodeCache &cache, uint64_t hits, uint64_t misses,
            uint64_t epochs, double warmTimelineHitRate, Report &rep)
{
    const uint64_t lookups = hits + misses;
    rep.metric("cache.hit_rate", "fraction",
               lookups ? static_cast<double>(hits) / lookups : 0.0);
    rep.metric("cache.timeline_hit_rate", "fraction", warmTimelineHitRate);
    rep.metric("cache.build_s", "s", cache.buildSeconds());
    rep.metric("cache.resident_mib", "MiB", cache.bytesUsed() / kMiB);
    rep.count("cache.hits", static_cast<double>(hits));
    rep.count("cache.misses", static_cast<double>(misses));
    rep.count("epochs", static_cast<double>(epochs));
}

/**
 * End-to-end metrics of a timed run, at the calibrated speed; the raw
 * wall-clock medians go to stderr. Every call of `calls` covers `shots`.
 */
void
reportTimed(const SpeedMeter &meter, uint64_t shots, const Timings &calls,
            const Timings &setup, const Timings &restarts, Report &rep)
{
    using S = SpeedMeter::Sample;
    std::fprintf(stderr,
                 "wall-clock medians: %.6g shots/s over %zu calls, setup "
                 "%.6g s, restart %.6g s (kernel checksum %llu)\n",
                 shots / calls.medianOf(&S::wall), calls.samples.size(),
                 setup.medianOf(&S::wall), restarts.medianOf(&S::wall),
                 static_cast<unsigned long long>(meter.checksum()));
    rep.metric("shots_per_s", "1/s", shots / calls.medianOf(&S::scaled));
    rep.metric("setup_s", "s", setup.medianOf(&S::scaled));
    rep.metric("restart_s", "s", restarts.medianOf(&S::scaled));
    rep.metric("peak_rss_mib", "MiB", peakRssMib());
}

// ------------------------------------------------------- memory workloads

/**
 * Restart of a memory sweep: the snapshot of a zero-defect cache
 * populated with `populateShots` shots (the memory experiment as a
 * scenario, which can persist its cache).
 */
struct MemoryRestart
{
    std::string snap;
    ScenarioConfig cfg; ///< one-shot run against the restored cache
    DeformedCodeCache cache;
    ScenarioResult populate;

    MemoryRestart(const MemoryWorkload &w, uint64_t seed,
                  const std::string &dir, uint64_t populateShots, Report &rep)
        : snap(dir + "/cache.snap"), cfg(zeroDefectConfig(w, seed, 1))
    {
        ScenarioConfig fill = zeroDefectConfig(w, seed, populateShots);
        fill.cache = &cache;
        populate = scenarioRun(fill, "zero-defect populate", rep).result;
        rep.check(saveCacheSnapshot(cache, snap).ok(), "memory snapshot save");
    }

    /** Restore the snapshot into a fresh cache and run one shot, drawn
     *  from `shotSeed`, against it. */
    void
    run(uint64_t shotSeed, Report &rep)
    {
        DeformedCodeCache restored;
        StatusOr<SnapshotRestoreStats> r = loadCacheSnapshot(restored, snap);
        rep.check(r.ok() && r->segments > 0 && r->rejectedRecords == 0,
                  "memory restart restores every snapshot record");
        ScenarioConfig one = cfg;
        one.seed = shotSeed;
        one.cache = &restored;
        scenarioRun(one, "memory restart", rep);
    }
};

void
runMemoryTimed(const MemoryWorkload &w, uint64_t seed, double seconds,
               const std::string &dir, Report &rep)
{
    // Set-up, restart and timed call alternate, so all three see the same
    // machine state over the whole run: restart_s against setup_s is
    // restoring against rebuilding. The one-shot populate leaves almost no
    // memoized rows in the snapshot, so its size does not depend on the
    // seed.
    SpeedMeter meter;
    MemoryRestart restart(w, mixSeed(seed, 200), dir, 1, rep);
    Timings setup, restarts, calls;
    const auto t0 = Clock::now();
    for (int i = 0; i < kMemoryRepeats || secondsSince(t0) < seconds; ++i) {
        const auto one =
            memoryConfig(w, mixSeed(mixSeed(seed, 100), i), 1, kThreads);
        setup.add(meter.time(
            [&] { runMemoryExperiment(squarePatch(w.d), one); }));
        rep.op();
        restarts.add(meter.time(
            [&] { restart.run(mixSeed(mixSeed(seed, 201), i), rep); }));

        const auto cfg =
            memoryConfig(w, mixSeed(seed, i), w.shotsPerCall, kThreads);
        MemoryExperimentResult r;
        calls.add(meter.time(
            [&] { r = runMemoryExperiment(squarePatch(w.d), cfg); }));
        rep.check(r.shots == w.shotsPerCall, "memory run decodes every shot");
        if (i < kBandCalls) {
            rep.bandFailures += r.failures;
            rep.bandShots += r.shots;
        }
    }
    reportTimed(meter, w.shotsPerCall, calls, setup, restarts, rep);
}

/** Time every matching backend on the workload's own syndromes. */
void
backendTable(const DetectorErrorModel &dem, const SparseSyndromes &syn,
             Report &rep)
{
    constexpr double kBudgetS = 1.0; // per backend
    struct Backend
    {
        const char *metric;
        MatchingBackend backend;
        bool rowsOnly;
    };
    const Backend backends[] = {
        {"backend.dense_us", MatchingBackend::Dense, false},
        {"backend.rows_us", MatchingBackend::Sparse, true},
        {"backend.sblossom_us", MatchingBackend::SparseBlossom, false},
        {"backend.default_us", defaultMatchingBackend(), false},
    };
    // Every backend decodes the same shots, with no Auto cap.
    std::vector<std::vector<int64_t>> weights;
    size_t measured = syn.shots();
    for (const Backend &b : backends) {
        ThreadPool pool(kThreads); // parallel Dense table build
        MwpmDecoder dec(dem, kTagZ, &pool, b.backend);
        if (b.rowsOnly)
            dec.setBlossomThreshold(SIZE_MAX);
        MwpmScratch sc;
        std::vector<int64_t> w;
        const auto t0 = Clock::now();
        size_t s = 0;
        for (; s < measured && (s < 32 || secondsSince(t0) < kBudgetS); ++s) {
            dec.decode(syn.data(s), syn.count(s), sc);
            w.push_back(sc.lastWeight);
        }
        rep.metric(b.metric, "us", 1e6 * secondsSince(t0) / s);
        measured = s; // later backends compare on the same shots
        weights.push_back(std::move(w));
    }
    // Dense tables and the matrix-free matcher are both exact: their
    // matched weights agree on every shot.
    bool equal = true;
    for (size_t s = 0; s < weights[2].size(); ++s)
        equal &= weights[0][s] == weights[2][s];
    rep.check(equal, "dense and sparse-blossom matched weights agree");

    UnionFindDecoder uf(dem, kTagZ);
    UfScratch usc;
    const auto t0 = Clock::now();
    size_t s = 0;
    for (; s < syn.shots() && (s < 32 || secondsSince(t0) < kBudgetS); ++s)
        uf.decode(syn.data(s), syn.count(s), usc);
    rep.metric("backend.uf_us", "us", 1e6 * secondsSince(t0) / s);
}

void
runMemoryTraced(const MemoryWorkload &w, uint64_t seed,
                const std::string &dir, Report &rep)
{
    const uint64_t run_seed = mixSeed(seed, 0);
    const CodePatch patch = squarePatch(w.d);
    // The untraced reference runs before and after the traced replica;
    // their mean cancels drift and first-run warm-up.
    const auto untracedRun = [&](MemoryExperimentResult &r) {
        const double wall = timed([&] {
            r = runMemoryExperiment(
                patch, memoryConfig(w, run_seed, w.traceShots, 1));
        });
        rep.op();
        return wall;
    };
    MemoryExperimentResult ref, again;
    const double before = untracedRun(ref);

    Trace tr;
    SparseSyndromes first;
    std::vector<EpochDecoder> eps(1);
    const double traced = timed([&] {
        MemorySpec spec;
        spec.rounds = w.d;
        NoiseParams noise;
        noise.p = w.p;
        const BuiltCircuit sampling = span(
            tr.stitch, [&] { return buildMemoryCircuit(patch, spec, noise); });
        const Circuit standalone = span(tr.segment, [&] {
            SegmentSpec seg;
            seg.rounds = w.d;
            return buildStandaloneSegment(
                patch, seg, noise,
                computeSeamPlan(nullptr, patch, PauliType::Z, {}));
        });
        eps[0] = buildEpochDecoder(standalone, tr);
        eps[0].detEnd = eps[0].dem.numDetectors;
        sampleAndDecode(sampling.circuit, eps, w.traceShots, 4096, run_seed,
                        tr, &first);
    });
    const double untraced = 0.5 * (before + untracedRun(again));
    tr.timelines = tr.epochs = 1;
    rep.check(again.failures == ref.failures,
              "untraced memory runs repeat at a fixed seed");
    rep.check(tr.failures == ref.failures,
              "traced failures " + std::to_string(tr.failures) +
                  " == untraced " + std::to_string(ref.failures));
    rep.bandFailures = ref.failures;
    rep.bandShots = ref.shots;
    reportTrace(tr, traced, untraced, rep);
    rep.metric("p_shot", "fraction", ref.pShot);
    // Scenario-only layers: not on a memory workload's path.
    rep.metric("plan.ms_per_timeline", "ms", 0.0);
    rep.metric("timeline.overhead_ms", "ms", 0.0);
    rep.metric("scenario.epochs_per_s_cold", "1/s", 0.0);
    rep.metric("scenario.epochs_per_s_warm", "1/s", 0.0);

    backendTable(eps[0].dem, first, rep);

    MemoryRestart restart(w, mixSeed(seed, 200), dir, w.traceShots, rep);
    restart.run(mixSeed(seed, 201), rep);
    persistDirCheck(zeroDefectConfig(w, mixSeed(seed, 300), 256), dir, rep);
    const ScenarioResult &pop = restart.populate;
    reportCache(restart.cache, pop.cacheHits, pop.cacheMisses,
                pop.totalEpochs, 0.0, rep);
    rep.count("dem.builds", 1.0);
    reportPersist(restart.cache, dir, rep);
}

// ----------------------------------------------------- scenario workload

void
runScenarioTimed(uint64_t seed, double seconds, const std::string &dir,
                 Report &rep)
{
    SpeedMeter meter;
    const Scenario sc = makeScenario(seed, kThreads);
    std::unique_ptr<DeformedCodeCache> cache;
    Timings setup;
    Pass cold;
    for (int i = 0; i < kScenarioRepeats; ++i) {
        cache = std::make_unique<DeformedCodeCache>();
        Pass p;
        setup.add(meter.time(
            [&] { p = scenarioPass(sc, *cache, nullptr, rep); }));
        if (i)
            rep.check(p.failures == cold.failures,
                      "cold passes agree on failures");
        cold = p;
    }
    rep.bandFailures = cold.totalFailures();
    rep.bandShots = cold.shots;

    Timings passes;
    const auto t0 = Clock::now();
    while (passes.samples.empty() || secondsSince(t0) < seconds) {
        Pass p;
        passes.add(meter.time(
            [&] { p = scenarioPass(sc, *cache, nullptr, rep); }));
        rep.check(p.failures == cold.failures,
                  "warm pass agrees with cold on failures");
    }

    rep.check(saveCacheSnapshot(*cache, dir + "/cache.snap").ok(),
              "scenario snapshot save");
    cache.reset(); // a restarted process holds only what it restores
    Timings restarts;
    for (int i = 0; i < kScenarioRepeats; ++i) {
        Pass p;
        restarts.add(meter.time([&] { p = restartPass(sc, dir, rep); }));
        rep.check(p.failures == cold.failures,
                  "restart pass agrees with cold on failures");
    }
    reportTimed(meter, cold.shots, passes, setup, restarts, rep);
}

void
runScenarioTraced(uint64_t seed, const std::string &dir, Report &rep)
{
    // Engine passes: cold, warm, restart — the checks and exact counts.
    const Scenario sc = makeScenario(seed, kThreads);
    DeformedCodeCache cache;
    const Pass cold = scenarioPass(sc, cache, nullptr, rep);
    const uint64_t hits = cache.hits(), misses = cache.misses();
    // Every segment-level miss builds one DEM; timeline misses build none.
    const uint64_t dem_builds = misses - cache.timelineMisses();
    cache.resetStats();
    const Pass warm = scenarioPass(sc, cache, nullptr, rep);
    rep.check(warm.failures == cold.failures,
              "warm pass agrees with cold on failures");
    const uint64_t tl_lookups = cache.timelineHits() + cache.timelineMisses();
    rep.check(tl_lookups > 0 && cache.timelineHits() == tl_lookups,
              "warm pass hits every stitched timeline");
    rep.bandFailures = cold.totalFailures();
    rep.bandShots = cold.shots;
    rep.metric("p_shot", "fraction",
               static_cast<double>(cold.totalFailures()) / cold.shots);
    rep.metric("scenario.epochs_per_s_cold", "1/s",
               cold.epochs / cold.seconds);
    rep.metric("scenario.epochs_per_s_warm", "1/s",
               warm.epochs / warm.seconds);
    reportCache(cache, hits, misses, cold.epochs,
                tl_lookups ? static_cast<double>(cache.timelineHits()) /
                                 tl_lookups
                           : 0.0,
                rep);
    rep.count("dem.builds", static_cast<double>(dem_builds));
    reportPersist(cache, dir, rep);

    // Fixed per-timeline cost of a warm pass (thread pool, simulator
    // construction, planning, timeline lookup, tally): the intercept of
    // warm wall time against batches per timeline.
    Scenario two = sc;
    two.cfg.maxShotsPerTimeline = 2 * sc.cfg.batchShots;
    std::vector<double> one_batch, two_batch;
    for (int i = 0; i < kScenarioRepeats; ++i) {
        one_batch.push_back(scenarioPass(sc, cache, nullptr, rep).seconds);
        two_batch.push_back(scenarioPass(two, cache, nullptr, rep).seconds);
    }
    rep.metric("timeline.overhead_ms", "ms",
               1e3 * (2 * median(one_batch) - median(two_batch)) /
                   sc.history.size());

    rep.check(saveCacheSnapshot(cache, dir + "/cache.snap").ok(),
              "scenario snapshot save");
    const Pass restart = restartPass(sc, dir, rep);
    rep.check(restart.failures == cold.failures,
              "restart pass agrees with cold on failures");
    // The same protocol through runScenarioExperiment (whose defect
    // history follows its own seed).
    ScenarioConfig engine = sc.cfg;
    engine.seed = mixSeed(seed, 300);
    persistDirCheck(engine, dir, rep);

    // Traced replica: plan, stitch, build and decode every epoch from the
    // layer functions (no cache, one thread), against the engine's
    // uncached single-thread runPlannedTimeline on the same plans and
    // batch seeds.
    Scenario one = makeScenario(seed, 1);
    one.cfg.useCache = false;
    Trace tr;
    StrategyMemo memo;
    std::vector<ScenarioPlan> plans;
    for (const auto &events : one.history)
        plans.push_back(span(tr.plan, [&] {
            return planEpochs(one.cfg.timeline, events, &memo);
        }));
    // The untraced reference runs before and after the traced replica;
    // their mean cancels drift and first-run warm-up.
    DeformedCodeCache unused;
    const auto untracedRun = [&](std::vector<uint64_t> &failures) {
        double wall = 0.0;
        for (size_t t = 0; t < plans.size(); ++t) {
            TimelineStats st;
            wall += timed([&] {
                st = runPlannedTimeline(plans[t], one.cfg, unused,
                                        one.batchSeeds[t], 0);
            });
            failures.push_back(st.failures);
        }
        rep.op();
        return wall;
    };
    std::vector<uint64_t> ref_failures, again;
    const double before = untracedRun(ref_failures);

    const ScenarioConfig &cfg = one.cfg;
    std::vector<uint64_t> replica_failures;
    const double traced = timed([&] {
        for (size_t t = 0; t < plans.size(); ++t) {
            const ScenarioPlan &plan = plans[t];
            uint64_t failures = cfg.maxShotsPerTimeline; // dead timeline
            Circuit ckt;
            std::vector<EpochDecoder> eps;
            bool alive = plan.alive;
            if (alive) {
                ++tr.timelines;
                std::map<Coord, uint32_t> qid;
                SeamState carry;
                const CodePatch *prev = nullptr;
                std::vector<Coord> tracked;
                for (size_t e = 0; e < plan.epochs.size(); ++e) {
                    const Epoch &ep = plan.epochs[e];
                    SegmentSpec spec;
                    spec.rounds = static_cast<int>(ep.rounds);
                    spec.startRound = ep.startRound;
                    spec.first = e == 0;
                    spec.last = e + 1 == plan.epochs.size();
                    spec.epochProbes = true;
                    const std::vector<Coord> prev_tracked = tracked;
                    const SeamPlan seam = span(tr.stitch, [&] {
                        return computeSeamPlan(prev, ep.deformed.patch,
                                               PauliType::Z, ep.activeSites,
                                               ep.startRound,
                                               e ? &prev_tracked : nullptr);
                    });
                    if (!seam.obsCarryValid) {
                        alive = false;
                        break;
                    }
                    tracked = seam.trackedLogical;
                    // Sampling view: residual defects plus active defects
                    // measured out at the seam (their readouts are junk).
                    NoiseParams samp = cfg.noise;
                    samp.defectiveSites = ep.residualDefects;
                    for (const Coord &q : seam.removed)
                        if (ep.activeSites.count(q))
                            samp.defectiveSites.insert(q);
                    const SegmentResult res = span(tr.stitch, [&] {
                        return appendSegment(ckt, qid, ep.deformed.patch,
                                             spec, samp, seam,
                                             e ? &carry : nullptr, false);
                    });
                    carry = res.carry;
                    const Circuit standalone = span(tr.segment, [&] {
                        SegmentSpec s = spec;
                        s.epochProbes = false;
                        return buildStandaloneSegment(ep.deformed.patch, s,
                                                      cfg.noise, seam, prev);
                    });
                    ++tr.epochs;
                    eps.push_back(buildEpochDecoder(standalone, tr));
                    eps.back().detBegin = res.detBegin;
                    eps.back().detEnd = res.detEnd;
                    prev = &ep.deformed.patch;
                }
            }
            if (alive)
                failures = sampleAndDecode(ckt, eps, cfg.maxShotsPerTimeline,
                                           cfg.batchShots,
                                           one.batchSeeds[t], tr);
            else
                tr.shots += cfg.maxShotsPerTimeline;
            replica_failures.push_back(failures);
        }
    });
    const double untraced = 0.5 * (before + untracedRun(again));
    rep.check(again == ref_failures,
              "uncached timelines repeat at fixed seeds");
    rep.check(replica_failures == ref_failures,
              "traced scenario replica matches runPlannedTimeline failures");
    reportTrace(tr, traced, untraced, rep);
    rep.metric("plan.ms_per_timeline", "ms", 1e3 * tr.plan / plans.size());
    // The backend table runs on the memory workloads' one-epoch syndromes.
    for (const char *b : {"dense", "rows", "sblossom", "default", "uf"})
        rep.metric(std::string("backend.") + b + "_us", "us", 0.0);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, workdir;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(v);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--workdir")
            workdir = v;
        else
            usage();
    }
    if (workload.empty() || workdir.empty() || seconds < 0 ||
        (trace != 0 && trace != 1))
        usage();

    Report rep;
    if (workload == "scenario-d7") {
        if (trace)
            runScenarioTraced(seed, workdir, rep);
        else
            runScenarioTimed(seed, seconds, workdir, rep);
    } else {
        const MemoryWorkload *w = nullptr;
        for (const MemoryWorkload &m : kMemoryWorkloads)
            if (workload == m.name)
                w = &m;
        if (!w) {
            std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
            return 2;
        }
        if (trace)
            runMemoryTraced(*w, seed, workdir, rep);
        else
            runMemoryTimed(*w, seed, seconds, workdir, rep);
    }
    rep.print();
    return 0;
}
