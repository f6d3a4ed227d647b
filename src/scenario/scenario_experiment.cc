#include "scenario/scenario_experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>

#include <cerrno>
#include <sys/stat.h>
#include <unistd.h>

#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "scenario/patch_signature.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace surf {

namespace {

/** SplitMix64-style timeline seed derivation (deterministic, decorrelated
 *  from the per-batch sampling seeds). */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Per-timeline stride of the batch-seed sequence; timeline 0 starts at
 *  cfg.seed exactly so one-timeline scenarios share the memory pipeline's
 *  seed schedule. */
constexpr uint64_t kTimelineSeedStride = 0x51ed5eed9e3779b9ULL;

/** Soft budget armed when a fault plan injects decoder stalls but the
 *  config sets no explicit decodeDeadlineNs: 10 ms, a fifth of the
 *  default 50 ms injected stall, so stall plans force the ladder out of
 *  the box. */
constexpr uint64_t kDefaultStallDeadlineNs = 10'000'000;

/** mkdir -p for the persist directory (single-filesystem, 0755). */
Status
ensurePersistDir(const std::string &dir)
{
    size_t pos = 0;
    while (pos <= dir.size()) {
        size_t next = dir.find('/', pos);
        if (next == std::string::npos)
            next = dir.size();
        const std::string partial = dir.substr(0, next);
        if (!partial.empty() && partial != "/" && partial != "." &&
            ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return Status::invalidArgument(
                "persist dir: cannot create '" + partial +
                "': " + std::strerror(errno));
        pos = next + 1;
    }
    return Status::okStatus();
}

/** Fault-salt tags keep the cache snapshot's and the checkpoint's
 *  snap.* corruption streams decorrelated. */
constexpr uint64_t kSnapSaltCache = 1;
constexpr uint64_t kSnapSaltCheckpoint = 2;

std::string
noiseSignature(const NoiseParams &noise)
{
    // Round-trippable float encoding: std::to_string's fixed six decimals
    // would collide distinct sub-1e-6 rates into one cache key.
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%.17g,pd%.17g,pc%.17g,df:", noise.p,
                  noise.pDefect, noise.pCorrelated2q);
    return buf + coordSetSignature(noise.defectiveSites);
}

const char *
backendTag(MatchingBackend b)
{
    switch (b) {
      case MatchingBackend::Dense:
        return "dense";
      case MatchingBackend::SparseBlossom:
        return "sblossom";
      default:
        return "sparse";
    }
}

/** Canonical identity of one decode-ready segment (see the cache doc). */
std::string
segmentCacheKey(const std::string &prevSig, const std::string &curSig,
                const std::set<Coord> &removedUntrusted,
                const std::vector<Coord> &prevTracked,
                const std::vector<Coord> &curTracked,
                const SegmentSpec &spec, const NoiseParams &decoderNoise,
                const ScenarioConfig &cfg)
{
    std::string key = "cur:" + curSig + "\nprev:" + prevSig;
    key += "\nuntrusted:" + coordSetSignature(removedUntrusted);
    key += "\ntrack:" +
           coordSetSignature({prevTracked.begin(), prevTracked.end()}) +
           ">" + coordSetSignature({curTracked.begin(), curTracked.end()});
    key += "\nr" + std::to_string(spec.rounds);
    key += " s" + std::to_string(spec.startRound & 1);
    key += spec.first ? " F" : "";
    key += spec.last ? " L" : "";
    key += (spec.basis == PauliType::Z) ? " bZ" : " bX";
    key += "\nnoise:" + noiseSignature(decoderNoise);
    key += "\ndec:";
    key += backendTag(cfg.matching);
    return key;
}

/**
 * Identity of a whole stitched timeline: the decode-relevant scenario
 * config plus every epoch's structural signature, defect sets and
 * placement. Everything the stitched circuit and its decode segments
 * depend on is a pure function of this key, which is what makes
 * timeline cache hits bit-identical to rebuilds.
 */
std::string
timelineCacheKey(const ScenarioPlan &plan, const ScenarioConfig &cfg)
{
    std::string key = "tl:";
    key += (cfg.basis == PauliType::Z) ? "bZ" : "bX";
    if (cfg.decoderKnowsDefects)
        key += " dk";
    key += " dec:";
    key += backendTag(cfg.matching);
    key += "\nnoise:" + noiseSignature(cfg.noise);
    for (const Epoch &ep : plan.epochs) {
        key += "\n@" + std::to_string(ep.startRound) + "+" +
               std::to_string(ep.rounds);
        key += " act:" + coordSetSignature(ep.activeSites);
        key += " res:" + coordSetSignature(ep.residualDefects);
        key += "\n" + ep.structSig;
    }
    return key;
}

/** Deterministic all-loss timeline (dead patch or broken continuity). */
TimelineStats
deadTimeline(const ScenarioConfig &cfg, size_t events)
{
    TimelineStats tl;
    tl.events = events;
    tl.dead = true;
    tl.shots = cfg.maxShotsPerTimeline;
    tl.failures = cfg.maxShotsPerTimeline;
    return tl;
}

/** One batch's syndromes, sampled ahead of its decode. */
struct SampledBatch
{
    size_t shots = 0;                    ///< 0: not sampled yet
    std::vector<SparseSyndromes> epochs; ///< ids relative to detBegin
    BitVec obs;
    std::vector<BitVec> probes;
};

/** Each epoch's detector range [begin, end) in the stitched circuit. */
using DetRanges = std::vector<std::pair<size_t, size_t>>;

/**
 * Sample `shots` shots of `circuit` at `seed` into `out`: epoch by epoch
 * the fired detectors of its range, published to `progress` (if any)
 * once out, then the observable and every probe. Reuses `sim` when it
 * already holds `shots` shots of `circuit`.
 */
void
sampleBatch(std::unique_ptr<FrameSimulator> &sim, const Circuit &circuit,
            const DetRanges &ranges, SampledBatch &out, size_t shots,
            uint64_t seed, JobProgress *progress)
{
    if (!sim || sim->shots() != shots)
        sim = std::make_unique<FrameSimulator>(circuit, shots);
    sim->reset(seed);
    out.epochs.resize(ranges.size());
    for (size_t e = 0; e < ranges.size(); ++e) {
        sim->runUntil(ranges[e].second);
        sim->sparseFiredDetectors(out.epochs[e], ranges[e].first,
                                  ranges[e].second);
        if (progress)
            progress->publish(static_cast<uint32_t>(e + 1));
    }
    sim->run(); // the rest: final readout, observable, closing probe
    out.obs = sim->observableBits(0);
    out.probes.resize(sim->numProbes());
    for (size_t p = 0; p < out.probes.size(); ++p)
        out.probes[p] = sim->probeBits(p);
    out.shots = shots;
}

/** A batch buildStitchedTimeline may sample while its DEMs build. */
struct FirstBatch
{
    SampledBatch *out; ///< keeps shots 0 when nothing could hide it
    size_t shots;
    uint64_t seed;
};

} // namespace

/**
 * Stitch one plan's concatenated sampling circuit and resolve its
 * decode-ready segments (through the segment cache when enabled). Pure
 * function of (plan, decode-relevant config): the timeline cache hands
 * out memoized results keyed on exactly those.
 *
 * Two passes. The first classifies every seam, stitches the sampling
 * circuit and derives the segment keys, serially as the seams chain.
 * The standalone-segment DEMs the cache does not hold (every one when
 * uncached) are then built at once on the pool's workers. The second
 * pass resolves the epochs in order on this thread, as a serial build
 * would: cache lookups, decoder construction (the Dense backend's
 * all-pairs build is itself a pool job, which must not nest in one) and
 * the detector-count check, taking a prefetched DEM where there is one.
 * A DEM build that threw surfaces at its own epoch, after the earlier
 * epochs resolved. A dead seam ends the first pass; the epochs before it
 * still resolve through the cache before the timeline is declared dead.
 *
 * `inject`/`ledger` (both optional) wire in the fault harness: an
 * epoch-build eviction storm empties the cache right before the chosen
 * epochs' segments resolve, while the build is mid-flight — entries the
 * earlier epochs pinned stay usable through their shared_ptrs, the
 * stormed segments rebuild, and the result is bit-identical either way.
 *
 * `first` (optional) asks for the caller's first batch. When the whole
 * timeline stitched, some DEM is prefetched and the pool has a second
 * worker, one more task of the prefetch job samples it from the stitched
 * circuit, at index 1 so the calling thread takes the first DEM.
 *
 * Each segment this inserts costs its DEM seconds, timed on whichever
 * thread built it, plus its decoder construction; `stitchSeconds`
 * receives the first pass's seconds, the timeline entry's own cost. The
 * first batch's sampling is neither.
 */
CachedTimeline
buildStitchedTimeline(const ScenarioPlan &plan, const ScenarioConfig &cfg,
                      DeformedCodeCache &cache, ThreadPool &pool,
                      const FaultInjector *inject, DegradationLedger *ledger,
                      const FirstBatch *first, double &stitchSeconds)
{
    using Clock = std::chrono::steady_clock;
    const auto secondsSince = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    /** One epoch as the first pass leaves it for the second. */
    struct EpochBuild
    {
        SeamPlan seam;
        SegmentSpec spec; ///< of the standalone decoder-view segment
        NoiseParams decNoise;
        size_t detBegin = 0, detEnd = 0;
        std::string key; ///< segment cache key; empty when uncached
        /** A prefetched DEM (or its build's exception), until this
         *  epoch's build takes it. */
        bool prefetched = false;
        DetectorErrorModel dem;
        std::exception_ptr error;
        double demSeconds = 0.0; ///< the prefetched DEM's build
    };
    CachedTimeline out;
    const size_t n_epochs = plan.epochs.size();
    const uint8_t tag = (cfg.basis == PauliType::Z) ? 1 : 0;
    std::vector<EpochBuild> builds(n_epochs);
    const auto prevPatch = [&](size_t e) {
        return e ? &plan.epochs[e - 1].deformed.patch : nullptr;
    };

    // --- Pass 1: seam plans, circuit stitching, segment keys -------------
    const auto stitch_t0 = Clock::now();
    std::map<Coord, uint32_t> qubit_id;
    SeamState carry;
    std::vector<Coord> tracked; ///< representative carried across seams
    size_t stitched = n_epochs; ///< epochs the second pass resolves
    for (size_t e = 0; e < n_epochs; ++e) {
        const Epoch &ep = plan.epochs[e];
        EpochBuild &eb = builds[e];
        SegmentSpec spec;
        spec.basis = cfg.basis;
        spec.rounds = static_cast<int>(ep.rounds);
        spec.startRound = ep.startRound;
        spec.first = (e == 0);
        spec.last = (e + 1 == n_epochs);
        spec.epochProbes = true; ///< opening/closing oracle probes

        const std::vector<Coord> prev_tracked = tracked;
        eb.seam = computeSeamPlan(prevPatch(e), ep.deformed.patch, cfg.basis,
                                  ep.activeSites, ep.startRound,
                                  e ? &prev_tracked : nullptr);
        if (!eb.seam.obsCarryValid) {
            // No continuation of the tracked logical exists in the new
            // code: the burst effectively destroyed the stored qubit.
            stitched = e;
            break;
        }
        tracked = eb.seam.trackedLogical;

        // Sampling view: residual defects inside the code, plus active
        // defects on qubits being measured out at the seam (their readouts
        // are junk, which is exactly why the seam plan distrusts them).
        NoiseParams samp_noise = cfg.noise;
        samp_noise.defectiveSites = ep.residualDefects;
        std::set<Coord> removed_untrusted;
        for (const Coord &q : eb.seam.removed)
            if (ep.activeSites.count(q)) {
                samp_noise.defectiveSites.insert(q);
                removed_untrusted.insert(q);
            }

        SegmentResult res = appendSegment(
            out.circuit, qubit_id, ep.deformed.patch, spec, samp_noise,
            eb.seam, e ? &carry : nullptr, false);
        carry = std::move(res.carry);
        eb.detBegin = res.detBegin;
        eb.detEnd = res.detEnd;
        // Decoder view: defect-unaware unless configured otherwise.
        eb.decNoise = cfg.noise;
        eb.decNoise.defectiveSites = cfg.decoderKnowsDefects
                                         ? ep.residualDefects
                                         : std::set<Coord>{};
        if (cfg.useCache)
            eb.key = segmentCacheKey(
                e ? plan.epochs[e - 1].structSig : std::string("-"),
                ep.structSig, removed_untrusted, prev_tracked,
                eb.seam.trackedLogical, spec, eb.decNoise, cfg);
        eb.spec = spec;
        eb.spec.epochProbes = false;
    }
    stitchSeconds = secondsSince(stitch_t0);

    // --- Prefetch: the DEMs of the segments the cache lacks --------------
    // Each distinct missing key once, at its first epoch (a later epoch
    // with that key hits the entry the first one inserts). Workers only
    // read the plan and write their own epoch's slot.
    const auto segmentDem = [&](size_t e) {
        const EpochBuild &eb = builds[e];
        return buildDem(buildStandaloneSegment(plan.epochs[e].deformed.patch,
                                               eb.spec, eb.decNoise,
                                               eb.seam, prevPatch(e)),
                        cfg.basis);
    };
    std::vector<size_t> prefetch;
    std::set<std::string> queued;
    for (size_t e = 0; e < stitched; ++e)
        if (!cfg.useCache || (!cache.peekSegment(builds[e].key) &&
                              queued.insert(builds[e].key).second))
            prefetch.push_back(e);
    // The first batch samples beside the DEMs only when a DEM build and a
    // second worker can hide it; its simulator dies with its task, as the
    // circuit it reads moves into the cache entry afterwards.
    const bool sample_first = first && stitched == n_epochs &&
                              !prefetch.empty() && pool.size() > 1;
    DetRanges ranges;
    if (sample_first)
        for (const EpochBuild &eb : builds)
            ranges.emplace_back(eb.detBegin, eb.detEnd);
    const size_t n_tasks = prefetch.size() + (sample_first ? 1 : 0);
    pool.parallelFor(n_tasks, [&](size_t t, size_t) {
        if (sample_first && t == 1) {
            std::unique_ptr<FrameSimulator> sim;
            sampleBatch(sim, out.circuit, ranges, *first->out, first->shots,
                        first->seed, nullptr);
            return;
        }
        const size_t e = prefetch[sample_first && t > 1 ? t - 1 : t];
        EpochBuild &eb = builds[e];
        const auto t1 = Clock::now();
        try {
            eb.dem = segmentDem(e);
        } catch (...) {
            eb.error = std::current_exception();
        }
        eb.demSeconds = secondsSince(t1);
        eb.prefetched = true;
    });

    // --- Pass 2: resolve the epochs in order -----------------------------
    out.epochs.reserve(stitched);
    for (size_t e = 0; e < n_epochs; ++e) {
        if (inject && inject->stormAtEpochBuild(0, e)) {
            cache.evictAll();
            if (ledger)
                ++ledger->cacheStorms;
        }
        if (e == stitched)
            break;
        const Epoch &ep = plan.epochs[e];
        EpochBuild &eb = builds[e];
        CachedTimelineEpoch ce;
        if (cfg.useCache) {
            ce.segKey = std::move(eb.key);
            ce.seg = cache.get(ce.segKey);
        }
        if (!ce.seg) {
            const auto t1 = Clock::now();
            CachedSegment cs;
            if (eb.prefetched) {
                eb.prefetched = false;
                if (eb.error)
                    std::rethrow_exception(eb.error);
                cs.dem = std::move(eb.dem);
            } else {
                cs.dem = segmentDem(e);
            }
            cs.mwpm = std::make_unique<MwpmDecoder>(cs.dem, tag, &pool,
                                                    cfg.matching);
            cs.uf = std::make_unique<UnionFindDecoder>(cs.dem, tag);
            const double cost = eb.demSeconds + secondsSince(t1);
            ce.seg = cfg.useCache
                         ? cache.insert(ce.segKey, std::move(cs), cost)
                         : std::make_shared<const CachedSegment>(
                               std::move(cs));
        }
        if (ce.seg->dem.numDetectors != eb.detEnd - eb.detBegin)
            // A structurally inconsistent epoch plan (or a malformed
            // cached DEM) surfaces as a value at the checked boundary
            // instead of killing a long-running service.
            throw StatusError(Status::internal(
                "stitched timeline: standalone segment of epoch " +
                std::to_string(e) + " has " +
                std::to_string(ce.seg->dem.numDetectors) +
                " detectors but the concatenated circuit reserved " +
                std::to_string(eb.detEnd - eb.detBegin)));
        ce.startRound = ep.startRound;
        ce.rounds = ep.rounds;
        ce.distX = ep.deformed.distX;
        ce.distZ = ep.deformed.distZ;
        ce.activeDefects = ep.activeSites.size();
        ce.detBegin = eb.detBegin;
        ce.detEnd = eb.detEnd;
        out.epochs.push_back(std::move(ce));
    }
    if (stitched < n_epochs) { // dead seam
        out.alive = false;
        out.circuit = Circuit{};
        out.epochs.clear();
    }
    return out;
}

TimelineStats
runPlannedTimeline(const ScenarioPlan &plan, const ScenarioConfig &cfg,
                   DeformedCodeCache &cache, uint64_t batchSeedBase,
                   uint64_t failuresSoFar)
{
    // A deformation window that destroyed the logical qubit makes every
    // shot of the timeline a logical loss (deterministic, so the result
    // stays invariant under threading and caching).
    if (!plan.alive)
        return deadTimeline(cfg, plan.numEvents);
    TimelineStats tl;
    tl.events = plan.numEvents;
    SURF_ASSERT(!plan.epochs.empty(), "planned timeline has no epochs");
    ThreadPool pool(cfg.threads);

    // --- Fault harness + deadline (both default-off) ---------------------
    // Injection decisions are pure hashes of (plan seed, site, salt,
    // indices); the salt is this timeline's batch-seed base, so decisions
    // are unique per timeline yet identical at any thread count. Stall
    // plans switch the deadline to its virtual clock, making every stage
    // choice (and recorded latency) deterministic too.
    const FaultInjector inject(cfg.faults);
    const uint64_t salt = batchSeedBase;
    const uint64_t deadline_ns =
        cfg.decodeDeadlineNs
            ? cfg.decodeDeadlineNs
            : (cfg.faults.hasDecoderStalls() ? kDefaultStallDeadlineNs : 0);
    const bool ladder_on = deadline_ns != 0 &&
                           cfg.matching != MatchingBackend::Dense &&
                           cfg.decoder != DecoderKind::UnionFind;

    // --- Resolve the stitched timeline: one lookup covers the seam
    // classification, circuit stitching and every per-epoch decode
    // segment. Warm sweeps and quiet (event-free) timelines skip
    // straight to sampling. A cold build may sample batch 0 into
    // batches[0] while its DEMs build, when batch 0 will run. -------------
    SampledBatch batches[2];
    const FaultInjector *bi = inject.enabled() ? &inject : nullptr;
    const FirstBatch first{&batches[0],
                           static_cast<size_t>(std::min<uint64_t>(
                               cfg.batchShots, cfg.maxShotsPerTimeline)),
                           batchSeedBase};
    const std::string tl_key =
        cfg.useCache ? timelineCacheKey(plan, cfg) : std::string();
    std::shared_ptr<const CachedTimeline> tlc =
        cfg.useCache ? cache.getTimeline(tl_key) : nullptr;
    if (!tlc) {
        double stitch_s = 0.0;
        CachedTimeline built = buildStitchedTimeline(
            plan, cfg, cache, pool, bi, &tl.ledger,
            failuresSoFar < cfg.targetFailures ? &first : nullptr, stitch_s);
        tlc = cfg.useCache
                  ? cache.insertTimeline(tl_key, std::move(built), stitch_s)
                  : std::make_shared<const CachedTimeline>(std::move(built));
    }
    if (!tlc->alive) {
        // Keep what the build tallied (its cache storms) before the
        // seam that killed the timeline.
        TimelineStats dead = deadTimeline(cfg, plan.numEvents);
        dead.ledger = std::move(tl.ledger);
        return dead;
    }
    const Circuit &ckt = tlc->circuit;
    const size_t n_epochs = tlc->epochs.size();
    tl.epochs.resize(n_epochs);
    DetRanges ranges;
    for (size_t e = 0; e < n_epochs; ++e) {
        const CachedTimelineEpoch &ce = tlc->epochs[e];
        ranges.emplace_back(ce.detBegin, ce.detEnd);
        EpochStats &st = tl.epochs[e];
        st.startRound = ce.startRound;
        st.rounds = ce.rounds;
        st.distX = ce.distX;
        st.distZ = ce.distZ;
        st.activeDefects = ce.activeDefects;
        st.numDetectors = ce.detEnd - ce.detBegin;
        st.decomposedHyperedges = ce.seg->dem.decomposedComponents;
        st.undetectableObsProb = ce.seg->dem.undetectableObsProb;
    }

    // --- Sampling streamed into the sharded per-epoch decode -------------
    // One pool job per batch. Its task 0 samples: it advances the frame
    // simulator epoch by epoch and publishes each epoch's syndromes, and
    // the (epoch, shard) decode tasks after it start as soon as their
    // epoch is out. When another batch follows, task 0 then samples it
    // into the spare buffer while this one decodes. Every batch draws its
    // own seed in batch order and shots decode independently, so the
    // result is bit-identical for any thread count; a batch sampled ahead
    // and then cut by early stop leaves no trace.
    size_t cur = 0; ///< batches[cur] is the batch being decoded
    std::unique_ptr<FrameSimulator> sim;
    JobProgress sampled; ///< epochs of batches[cur] ready to decode
    // Sample one batch; the simulator is freed after the timeline's last.
    const auto sample = [&](SampledBatch &out, size_t shots, uint64_t seed,
                            bool publish, bool last) {
        sampleBatch(sim, ckt, ranges, out, shots, seed,
                    publish ? &sampled : nullptr);
        if (last)
            sim.reset();
    };

    std::vector<MwpmScratch> mwpm_scratch(pool.size());
    std::vector<UfScratch> uf_scratch(pool.size());
    std::vector<std::vector<uint32_t>> local_ids(pool.size());
    std::vector<DecodeDeadline> worker_deadline(pool.size());
    std::vector<DegradationLedger> worker_ledger(pool.size());
    if (ladder_on)
        for (auto &dl : worker_deadline)
            dl.configure(deadline_ns, inject.virtualClockNeeded());
    std::vector<uint8_t> predicted_at; ///< [epoch * batch + shot]

    // MWPM decode of one epoch's fired list, under the fallback ladder
    // when a deadline is armed: blossom → rows inside the decoder,
    // union-find floor here when both stages overran. Every ladder trip
    // lands in the worker's ledger (merged in fixed worker order after
    // the sweep).
    const auto mwpmDecode = [&](const CachedTimelineEpoch &ce,
                                const uint32_t *ids, size_t n_ids,
                                uint64_t shot, size_t e,
                                size_t worker) -> bool {
        MwpmScratch &msc = mwpm_scratch[worker];
        if (!ladder_on)
            return ce.seg->mwpm->decode(ids, n_ids, msc);
        DecodeDeadline &dl = worker_deadline[worker];
        DegradationLedger &led = worker_ledger[worker];
        msc.deadline = &dl;
        msc.stallNs = {};
        if (inject.enabled()) {
            msc.stallNs[kStageBlossom] =
                inject.stallNs(salt, shot, e, kStageBlossom);
            msc.stallNs[kStageRows] = inject.stallNs(salt, shot, e, kStageRows);
        }
        bool predicted = ce.seg->mwpm->decode(ids, n_ids, msc);
        msc.deadline = nullptr;
        for (uint8_t st = 0; st < kNumDecodeStages; ++st)
            if ((msc.ladder.attempted >> st) & 1 && msc.stallNs[st])
                ++led.injectedStalls;
        if (msc.timedOut) {
            // Both MWPM stages overran: the union-find floor always
            // completes, so the shot degrades but never blocks.
            dl.beginStage(0);
            predicted = ce.seg->uf->decode(ids, n_ids, uf_scratch[worker]);
            msc.ladder.note(kStageUnionFind, dl.stageElapsedNs(), false);
            msc.ladder.answer = kStageUnionFind;
        }
        if (msc.ladder.attempted)
            led.record(msc.ladder);
        return predicted;
    };
    // One (epoch, shot) decode; fault bursts land on a private copy.
    const auto decodeShot = [&](const CachedTimelineEpoch &ce,
                                const SparseSyndromes &syn, size_t s,
                                uint64_t shot, size_t e,
                                size_t worker) -> bool {
        const uint32_t *ids = syn.data(s);
        size_t n_ids = syn.count(s);
        if (inject.enabled()) {
            auto &local = local_ids[worker];
            local.assign(ids, ids + n_ids);
            const size_t added = inject.injectBurst(
                salt, shot, e, ce.detEnd - ce.detBegin, local);
            if (added) {
                ++worker_ledger[worker].injectedBursts;
                worker_ledger[worker].injectedBurstDetectors += added;
            }
            ids = local.data();
            n_ids = local.size();
        }
        switch (cfg.decoder) {
          case DecoderKind::Mwpm:
            return mwpmDecode(ce, ids, n_ids, shot, e, worker);
          case DecoderKind::UnionFind:
            return ce.seg->uf->decode(ids, n_ids, uf_scratch[worker]);
          case DecoderKind::Auto:
          default:
            return n_ids <= cfg.mwpmDefectCap
                       ? mwpmDecode(ce, ids, n_ids, shot, e, worker)
                       : ce.seg->uf->decode(ids, n_ids, uf_scratch[worker]);
        }
    };

    uint64_t batch_index = 0;
    while (tl.shots < cfg.maxShotsPerTimeline &&
           failuresSoFar + tl.failures < cfg.targetFailures) {
        if (inject.enabled() && inject.stormAtBatch(salt, batch_index)) {
            // Mid-timeline eviction storm: this timeline keeps decoding
            // through its pinned shared_ptr segments; later lookups
            // rebuild. Results cannot change, only cost.
            cache.evictAll();
            ++tl.ledger.cacheStorms;
        }
        const uint64_t batch_seed = batchSeedBase + batch_index;
        ++batch_index;
        const uint64_t shots_before = tl.shots;
        const size_t batch = static_cast<size_t>(std::min<uint64_t>(
            cfg.batchShots, cfg.maxShotsPerTimeline - tl.shots));
        const uint64_t shots_after = shots_before + batch;
        const size_t next_batch = static_cast<size_t>(std::min<uint64_t>(
            cfg.batchShots, cfg.maxShotsPerTimeline - shots_after));
        SampledBatch &now = batches[cur];
        SampledBatch &ahead = batches[cur ^ 1];
        SURF_ASSERT(!now.shots || now.shots == batch,
                    "batch sampled ahead with the wrong size");

        // Task 0 samples whenever there is something to overlap with: a
        // later epoch of this batch or the next batch. A one-epoch batch
        // with no batch after it, and every batch of a one-worker pool,
        // is sampled here before its job (no handoff to another worker).
        const bool presampled = now.shots != 0;
        const bool sampler = pool.size() > 1 &&
                             ((!presampled && n_epochs > 1) || next_batch != 0);
        if (!presampled && !sampler)
            sample(now, batch, batch_seed, false, next_batch == 0);
        const bool stream = sampler && !presampled;
        sampled.reset(stream ? 0 : static_cast<uint32_t>(n_epochs));

        // Small shards keep a rare slow shot (an MWPM decode building
        // cold rows) from leaving its worker as the batch's tail.
        const size_t n_shards = std::min(batch, pool.size() * 32);
        predicted_at.resize(n_epochs * batch);
        pool.parallelFor(
            (sampler ? 1 : 0) + n_epochs * n_shards,
            [&](size_t task, size_t worker) {
                if (sampler && task == 0) {
                    try {
                        if (stream)
                            sample(now, batch, batch_seed, true,
                                   next_batch == 0);
                        if (next_batch)
                            sample(ahead, next_batch, batch_seed + 1, false,
                                   shots_after + next_batch ==
                                       cfg.maxShotsPerTimeline);
                    } catch (...) {
                        sampled.fail();
                        throw;
                    }
                    return;
                }
                const size_t job = task - (sampler ? 1 : 0);
                const size_t e = job / n_shards, shard = job % n_shards;
                if (!sampled.waitFor(static_cast<uint32_t>(e + 1)))
                    return; // the sampler threw; parallelFor rethrows it
                const CachedTimelineEpoch &ce = tlc->epochs[e];
                const SparseSyndromes &syn = now.epochs[e];
                const size_t begin = batch * shard / n_shards;
                const size_t end = batch * (shard + 1) / n_shards;
                for (size_t s = begin; s < end; ++s)
                    predicted_at[e * batch + s] = decodeShot(
                        ce, syn, s, shots_before + s, e, worker);
            });

        // Tally in shot order. Oracle truth of epoch e: frame accumulated
        // on its own tracked representative between the opening probe
        // (index 2e-1; zero for the first epoch) and the closing probe
        // (index 2e) — the same accounting its decoder uses. Seam frame
        // updates and readout noise live in the observable, not the
        // probes, so per-epoch truths are diagnostics; the failure check
        // always uses the true observable.
        for (size_t s = 0; s < batch; ++s) {
            bool total = false;
            for (size_t e = 0; e < n_epochs; ++e) {
                const bool predicted = predicted_at[e * batch + s];
                const bool open_frame =
                    e ? now.probes[2 * e - 1].get(s) : false;
                const bool close_frame = now.probes[2 * e].get(s);
                tl.epochs[e].mismatches +=
                    predicted != (open_frame ^ close_frame);
                total ^= predicted;
            }
            tl.failures += total != now.obs.get(s);
        }
        for (size_t e = 0; e < n_epochs; ++e)
            tl.epochs[e].shots += batch;
        tl.shots = shots_after;
        now.shots = 0;
        cur ^= 1;
    }
    // Fixed worker order keeps the merged ledger deterministic whenever
    // the per-shot traces are (virtual clock / no real deadline).
    for (const auto &wl : worker_ledger)
        tl.ledger.merge(wl);
    return tl;
}

Status
validateScenarioConfig(const ScenarioConfig &cfg)
{
    auto bad = [](const std::string &msg) {
        return Status::invalidArgument("scenario config: " + msg);
    };
    auto prob_ok = [](double p) {
        return std::isfinite(p) && p >= 0.0 && p <= 1.0;
    };
    if (cfg.timeline.d < 2 || cfg.timeline.d > 512)
        return bad("code distance d=" + std::to_string(cfg.timeline.d) +
                   " out of range [2, 512]");
    if (cfg.timeline.deltaD < 0)
        return bad("deltaD must be >= 0");
    switch (cfg.timeline.strategy) {
      case Strategy::LatticeSurgery:
      case Strategy::Ascs:
      case Strategy::Q3de:
      case Strategy::Q3deRevised:
      case Strategy::SurfDeformer:
        break;
      default:
        return bad("unknown Strategy value " +
                   std::to_string(
                       static_cast<int>(cfg.timeline.strategy)));
    }
    if (!prob_ok(cfg.fabDefects.qubitRate))
        return bad("fabDefects.qubitRate must be a probability in [0, 1]");
    if (!prob_ok(cfg.fabDefects.couplerRate))
        return bad("fabDefects.couplerRate must be a probability in "
                   "[0, 1]");
    if (cfg.timeline.horizonRounds < 1)
        return bad("horizonRounds must be >= 1 (zero-round scenarios "
                   "have no syndrome data to decode)");
    if (cfg.timeline.windowRounds < 1)
        return bad("windowRounds must be >= 1");
    if (cfg.numTimelines < 1)
        return bad("numTimelines must be >= 1");
    if (cfg.maxShotsPerTimeline < 1)
        return bad("maxShotsPerTimeline must be >= 1");
    if (cfg.batchShots < 1)
        return bad("batchShots must be >= 1");
    if (cfg.targetFailures < 1)
        return bad("targetFailures must be >= 1 (the run would stop "
                   "before its first shot)");
    if (!(std::isfinite(cfg.eventRateScale) && cfg.eventRateScale >= 0.0))
        return bad("eventRateScale must be finite and >= 0");
    if (!prob_ok(cfg.noise.p))
        return bad("noise.p must be a probability in [0, 1]");
    if (!prob_ok(cfg.noise.pDefect))
        return bad("noise.pDefect must be a probability in [0, 1]");
    if (!prob_ok(cfg.noise.pCorrelated2q))
        return bad("noise.pCorrelated2q must be a probability in [0, 1]");
    if (!(std::isfinite(cfg.defectModel.eventRatePerQubitSec) &&
          cfg.defectModel.eventRatePerQubitSec >= 0.0))
        return bad("defectModel.eventRatePerQubitSec must be finite and "
                   ">= 0");
    if (!(std::isfinite(cfg.defectModel.durationSec) &&
          cfg.defectModel.durationSec >= 0.0))
        return bad("defectModel.durationSec must be finite and >= 0");
    if (!(std::isfinite(cfg.defectModel.cycleTimeSec) &&
          cfg.defectModel.cycleTimeSec > 0.0))
        return bad("defectModel.cycleTimeSec must be finite and > 0");
    switch (cfg.decoder) {
      case DecoderKind::Mwpm:
      case DecoderKind::UnionFind:
      case DecoderKind::Auto:
        break;
      default:
        return bad("unknown DecoderKind value " +
                   std::to_string(static_cast<int>(cfg.decoder)));
    }
    switch (cfg.matching) {
      case MatchingBackend::Dense:
      case MatchingBackend::Sparse:
      case MatchingBackend::SparseBlossom:
        break;
      default:
        return bad("unknown MatchingBackend value " +
                   std::to_string(static_cast<int>(cfg.matching)));
    }
    if (cfg.basis != PauliType::X && cfg.basis != PauliType::Z)
        return bad("basis must be Pauli X or Z");
    return validateFaultPlan(cfg.faults);
}

Status
validateDefectStream(const std::vector<DefectEvent> &events,
                     const ScenarioConfig &cfg)
{
    // Any site a deformation could ever reach lives well inside this
    // box (patch coordinates are ~[0, 2d] plus the enlargement slack);
    // a "teleported" corrupt center lands far outside it.
    const int bound = 4 * (cfg.timeline.d + cfg.timeline.deltaD) + 16;
    auto inBox = [bound](Coord c) {
        return c.x >= -bound && c.x <= bound && c.y >= -bound &&
               c.y <= bound;
    };
    for (size_t i = 0; i < events.size(); ++i) {
        const DefectEvent &ev = events[i];
        const std::string tag = "defect stream event " + std::to_string(i);
        if (ev.endCycle <= ev.startCycle)
            return Status::dataLoss(
                tag + ": empty or inverted cycle interval [" +
                std::to_string(ev.startCycle) + ", " +
                std::to_string(ev.endCycle) + ")");
        if (ev.sites.empty())
            return Status::dataLoss(tag + ": no affected sites");
        if (!inBox(ev.center))
            return Status::dataLoss(
                tag + ": center (" + std::to_string(ev.center.x) + ", " +
                std::to_string(ev.center.y) + ") is off the lattice "
                "(|coord| bound " + std::to_string(bound) + ")");
        for (const Coord &q : ev.sites)
            if (!inBox(q))
                return Status::dataLoss(
                    tag + ": site (" + std::to_string(q.x) + ", " +
                    std::to_string(q.y) + ") is off the lattice");
    }
    return Status::okStatus();
}

StatusOr<ScenarioResult>
runScenarioExperimentChecked(const ScenarioConfig &userCfg)
{
    ScenarioConfig cfg = userCfg;
    if (!cfg.faults.enabled()) {
        // The environment plan fills an empty config plan (explicit
        // config plans win), so any existing entry point can be fault
        // tested without code changes.
        StatusOr<FaultPlan> env = faultPlanFromEnv();
        if (!env.ok())
            return env.status();
        cfg.faults = *env;
    }
    if (cfg.persistDir.empty()) {
        const char *env = std::getenv("SURF_PERSIST_DIR");
        if (env && *env)
            cfg.persistDir = env;
    }
    if (Status s = validateScenarioConfig(cfg); !s.ok())
        return s;

    try {
        ScenarioResult out;
        out.horizonRounds = cfg.timeline.horizonRounds;
        DeformedCodeCache local_cache;
        DeformedCodeCache &cache = cfg.cache ? *cfg.cache : local_cache;
        const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
        const uint64_t evictions0 = cache.evictions();

        const FaultInjector inject(cfg.faults);
        const FaultInjector *snapInject = inject.enabled() ? &inject : nullptr;

        // --- Warm-start persistence: restore the cache snapshot and any
        // compatible run checkpoint before the first timeline. Every
        // failure shape — missing file, torn tail, flipped bit, version
        // skew, semantic mismatch — degrades to a cold start with a
        // ledger recovery count; restored state can never change results
        // (cache entries are pure functions of their keys; checkpoint
        // stats replicate completed timelines exactly).
        const bool persist_on = !cfg.persistDir.empty();
        std::string ckpt_path;
        uint64_t config_sig = 0;
        if (persist_on) {
            if (Status s = ensurePersistDir(cfg.persistDir); !s.ok())
                return s;
            const std::string snap_path = cfg.persistDir + "/cache.snap";
            config_sig = scenarioConfigSignature(cfg);
            char sig_hex[24];
            std::snprintf(sig_hex, sizeof sig_hex, "%016llx",
                          static_cast<unsigned long long>(config_sig));
            ckpt_path = cfg.persistDir + "/run-" + sig_hex + ".ckpt";

            const auto t0 = std::chrono::steady_clock::now();
            if (cfg.useCache && snapshotFileExists(snap_path)) {
                StatusOr<SnapshotRestoreStats> restored =
                    loadCacheSnapshot(cache, snap_path);
                if (restored.ok()) {
                    out.persistRestoredSegments = restored->segments;
                    out.persistRestoredTimelines = restored->timelines;
                    out.persistRestoredRows = restored->rows;
                    out.persistRejectedRecords = restored->rejectedRecords;
                    out.persistSnapshotBytes = restored->fileBytes;
                    out.ledger.snapRestoredEntries +=
                        restored->segments + restored->timelines;
                    out.ledger.snapRejectedRecords +=
                        restored->rejectedRecords;
                    if (restored->truncated) {
                        // The torn record itself (CRC-valid prefix kept).
                        ++out.persistRejectedRecords;
                        ++out.ledger.snapRejectedRecords;
                    }
                } else {
                    ++out.persistRecoveries;
                    ++out.ledger.snapRecoveries;
                }
            }
            if (snapshotFileExists(ckpt_path)) {
                StatusOr<RunCheckpoint> ckpt = loadRunCheckpoint(ckpt_path);
                if (ckpt.ok() && ckpt->configSignature == config_sig) {
                    for (TimelineStats &tl : ckpt->completed) {
                        out.shots += tl.shots;
                        out.failures += tl.failures;
                        out.totalEpochs += tl.epochs.size();
                        out.deadTimelines += tl.dead ? 1 : 0;
                        out.ledger.merge(tl.ledger);
                        out.timelines.push_back(std::move(tl));
                    }
                    out.resumedTimelines = out.timelines.size();
                } else if (!ckpt.ok()) {
                    ++out.persistRecoveries;
                    ++out.ledger.snapRecoveries;
                }
                // ok() but mismatched signature: a stale checkpoint from
                // a different physics config — ignored, not a recovery.
            }
            out.persistRestoreSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }

        StrategyMemo memo;
        const CodePatch base = squarePatch(cfg.timeline.d);
        DefectModelParams model = cfg.defectModel;
        model.eventRatePerQubitSec *= cfg.eventRateScale;

        // --- Fabrication defects: sample the run's base chip once and
        // adapt it once. When the fault plan also injects per-timeline
        // fab defects, every timeline re-samples on top of the base chip
        // and re-adapts (still pure functions of seeds and salts). A
        // disabled model with no fab fault plan leaves `chip` empty and
        // this whole layer is bit-identical to a config without it.
        const bool fab_inject = cfg.faults.fabQubitProb > 0.0 ||
                                cfg.faults.fabCouplerProb > 0.0;
        FabDefectSample chip;
        if (cfg.fabDefects.enabled()) {
            StatusOr<FabDefectSample> sampled =
                sampleFabDefectsChecked(base, cfg.fabDefects);
            if (!sampled.ok())
                return sampled.status();
            chip = std::move(sampled.value());
        }
        out.fabDefectiveQubits = chip.qubits.size();
        out.fabDefectiveCouplers = chip.couplers.size();
        std::optional<FabAdaptation> chip_adapt;
        if (!chip.empty()) {
            StatusOr<FabAdaptation> adapted = adaptFabDefectsChecked(
                cfg.timeline.strategy, cfg.timeline.d, cfg.timeline.deltaD,
                chip);
            if (!adapted.ok())
                return adapted.status();
            chip_adapt = std::move(adapted.value());
            out.fabDisabledData = chip_adapt->disabledData;
            out.fabSuperClusters = chip_adapt->superClusters;
            out.fabDistX = chip_adapt->outcome.distX;
            out.fabDistZ = chip_adapt->outcome.distZ;
            out.fabChipAlive = chip_adapt->outcome.alive;
        }

        // Resume at the first unfinished timeline. Per-timeline seeds
        // derive from t alone (not from any predecessor), so skipping
        // completed timelines reproduces the uninterrupted run exactly.
        for (int t = static_cast<int>(out.timelines.size());
             t < cfg.numTimelines; ++t) {
            if (out.failures >= cfg.targetFailures)
                break;
            const uint64_t timeline_salt =
                cfg.seed + static_cast<uint64_t>(t) * kTimelineSeedStride;
            std::vector<DefectEvent> events;
            if (cfg.eventRateScale > 0.0) {
                DefectSampler sampler(model,
                                      mixSeed(cfg.seed, 0xdefec7 + t));
                events =
                    sampler.sampleEvents(base, cfg.timeline.horizonRounds);
            }
            if (inject.enabled())
                inject.mutateStream(timeline_salt, events);
            // Validates externally-supplied malformations too: the
            // sampler's own streams always pass.
            if (Status s = validateDefectStream(events, cfg); !s.ok())
                return s;

            // This timeline's chip: the run's base chip plus any
            // fault-plan-injected fabrication defects. Re-adapt only when
            // injection can change the sample; otherwise reuse the
            // once-adapted base chip.
            const FabAdaptation *adapt =
                chip_adapt ? &*chip_adapt : nullptr;
            std::optional<FabAdaptation> tl_adapt;
            if (fab_inject) {
                FabDefectSample tl_sample = chip;
                inject.injectFabDefects(timeline_salt, base, tl_sample);
                if (!tl_sample.empty()) {
                    StatusOr<FabAdaptation> adapted = adaptFabDefectsChecked(
                        cfg.timeline.strategy, cfg.timeline.d,
                        cfg.timeline.deltaD, tl_sample);
                    if (!adapted.ok())
                        return adapted.status();
                    tl_adapt = std::move(adapted.value());
                    adapt = &*tl_adapt;
                }
            }

            TimelineStats tl;
            if (adapt && !adapt->outcome.alive) {
                // Dead chip: the yield contract. The adapted distance
                // collapsed, so every shot is a deterministic logical
                // loss — tallied, never an abort; the sweep continues on
                // the next timeline's chip.
                tl = deadTimeline(cfg, events.size());
                tl.ledger.fabDeadPatches = 1;
            } else {
                EpochPlannerConfig tcfg = cfg.timeline;
                if (adapt)
                    tcfg.permanentSites.insert(adapt->disabledSites.begin(),
                                               adapt->disabledSites.end());
                const ScenarioPlan plan = planEpochs(tcfg, events, &memo);
                tl = runPlannedTimeline(plan, cfg, cache, timeline_salt,
                                        out.failures);
                if (adapt) {
                    tl.ledger.fabAdaptedPatches += 1;
                    tl.ledger.fabDistanceLoss += adapt->distanceLoss;
                }
            }
            out.shots += tl.shots;
            out.failures += tl.failures;
            out.totalEpochs += tl.epochs.size();
            out.deadTimelines += tl.dead ? 1 : 0;
            out.ledger.merge(tl.ledger);
            out.timelines.push_back(std::move(tl));
            if (persist_on) {
                // Durable progress: the checkpoint is rewritten (atomic
                // rename) after every timeline, so a kill at any moment
                // loses at most the in-flight timeline. A failed write
                // degrades durability, never the run.
                if (Status s = saveRunCheckpoint(ckpt_path, config_sig,
                                                 out.timelines, snapInject,
                                                 kSnapSaltCheckpoint);
                    !s.ok())
                    warn("scenario checkpoint: " + s.str());
            }
            const uint32_t kill = inject.killAfterTimelines();
            if (kill && out.timelines.size() == kill)
                // Simulated crash (snap.kill): cumulative semantics — a
                // resumed run starts past `kill` completed timelines and
                // never re-triggers, like a real crash that was fixed.
                return Status::aborted(
                    "fault injection: simulated crash after " +
                    std::to_string(kill) + " completed timelines" +
                    (persist_on ? " (checkpoint '" + ckpt_path +
                                      "' is resumable)"
                                : std::string()));
        }
        if (persist_on) {
            if (cfg.useCache) {
                StatusOr<SnapshotSaveStats> saved = saveCacheSnapshot(
                    cache, cfg.persistDir + "/cache.snap", snapInject,
                    kSnapSaltCache);
                if (saved.ok())
                    out.persistSnapshotBytes = saved->fileBytes;
                else
                    warn("scenario cache snapshot: " +
                         saved.status().str());
            }
            ::unlink(ckpt_path.c_str()); // run complete; nothing to resume
        }
        out.cacheHits = cache.hits() - hits0;
        out.cacheMisses = cache.misses() - misses0;
        out.cacheEvictions = cache.evictions() - evictions0;

        const auto est = estimateBinomial(out.failures, out.shots);
        out.pShot = est.p;
        out.se = est.stderr;
        out.pRound = perRoundRate(
            out.pShot, static_cast<size_t>(cfg.timeline.horizonRounds));
        return out;
    } catch (const StatusError &e) {
        // Deep-layer failures (epoch planner, cache builders, decode
        // workers via the pool's first-exception rethrow) surface here
        // as values.
        return e.status();
    }
}

} // namespace surf
