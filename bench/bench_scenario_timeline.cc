/**
 * @file
 * Scenario-engine throughput bench on the cosmic-ray workload: many
 * sampled burst timelines, strategy-reactive epoch planning, stitched
 * simulation and per-epoch decoding — once with the DeformedCodeCache
 * disabled (every epoch rebuilds its DEM + decoder graphs) and once with
 * it enabled (recurring deformed shapes are lookups). Reports epochs/sec
 * for both modes, the cache hit rate, and the end-to-end logical error,
 * into BENCH_scenario.json.
 *
 * A second, robustness pass reruns the identical workload under a
 * deadline + fault plan (--deadline_ns=N, --fault=PLAN; see
 * faultinject/fault_plan.hh for the plan syntax) and reports the staged
 * fallback ladder's degradation ledger — downgrade counts, per-stage
 * latency quantiles, injected-fault tallies — and the accuracy cost of
 * degrading (p_shot delta vs the clean pass), into BENCH_robustness.json.
 *
 * A third, persistence pass runs the identical workload against a
 * snapshot directory (--persist_dir=DIR, default a fresh temp dir):
 * cold-persist vs warm-restart epochs/sec, restore wall time, snapshot
 * size, and a corrupted-snapshot recovery check, into BENCH_persist.json
 * — with a non-zero exit when warm results diverge or nothing restores.
 * The cached passes gate too: a cold or warm pass whose shots or
 * failures differ from the uncached pass also exits non-zero.
 *
 * Flags: --scale=S (Monte-Carlo budget), --d=N, --timelines=N,
 * --cache_mb=M (bound the shared cache to M megabytes; 0 = unbounded),
 * --deadline_ns=N (per-stage soft decode budget for the robustness pass),
 * --fault=PLAN (fault plan for the robustness pass),
 * --persist_dir=DIR (snapshot directory for the persistence pass),
 * --json=DIR
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hh"
#include "scenario/scenario_experiment.hh"

using namespace surf;
using namespace surf::benchutil;

namespace {

ScenarioConfig
workload(int d, int timelines)
{
    ScenarioConfig cfg;
    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = d;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 160;
    cfg.timeline.windowRounds = 20;
    // Quantized epoch lengths: quiet stretches of different timelines
    // become cache-equal 20-round segments.
    cfg.timeline.maxEpochRounds = 20;
    // Scaled cosmic-ray model: bursts persist ~2 windows and strike often
    // enough that most timelines deform at least once.
    cfg.defectModel.durationSec = 40e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 20000.0;
    cfg.numTimelines = timelines;
    cfg.noise.p = 2e-3;
    cfg.maxShotsPerTimeline = 16;
    cfg.batchShots = 16;
    cfg.seed = 20240731;
    return cfg;
}

struct Timed
{
    ScenarioResult result;
    double seconds = 0.0;
};

Timed
run(const ScenarioConfig &cfg)
{
    Timed out;
    const auto t0 = std::chrono::steady_clock::now();
    out.result = runScenarioExperimentChecked(cfg).value();
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const double s = scale(argc, argv);
    const int d = static_cast<int>(flagValue(argc, argv, "d", 7));
    const int timelines = std::max(
        2, static_cast<int>(flagValue(argc, argv, "timelines", 12) * s));
    JsonReport report(argc, argv, "scenario");

    header("Scenario engine: cosmic-ray timelines, cached vs uncached");
    std::printf("d=%d, %d timelines x %lu shots, horizon %lu rounds\n\n", d,
                timelines,
                static_cast<unsigned long>(
                    workload(d, timelines).maxShotsPerTimeline),
                static_cast<unsigned long>(
                    workload(d, timelines).timeline.horizonRounds));

    ScenarioConfig cfg = workload(d, timelines);
    cfg.useCache = false;
    const Timed uncached = run(cfg);
    const double uncached_eps = uncached.result.totalEpochs /
                                std::max(1e-9, uncached.seconds);
    std::printf("uncached:    %5lu epochs in %6.2f s  -> %7.1f epochs/s\n",
                static_cast<unsigned long>(uncached.result.totalEpochs),
                uncached.seconds, uncached_eps);

    // The cache is long-lived by design (ScenarioConfig::cache): sweeps
    // share it across strategies, distances and repetitions. Measure the
    // first (cold) pass and a second pass against the populated cache —
    // the steady state of any real sweep.
    DeformedCodeCache shared_cache;
    const auto cache_mb = static_cast<size_t>(
        flagValue(argc, argv, "cache_mb", 0));
    if (cache_mb)
        shared_cache.setBudget(cache_mb << 20);
    cfg.useCache = true;
    cfg.cache = &shared_cache;
    const Timed cold = run(cfg);
    const uint64_t cold_lookups = cold.result.cacheHits +
                                  cold.result.cacheMisses;
    const double hit_rate =
        cold_lookups
            ? static_cast<double>(cold.result.cacheHits) / cold_lookups
            : 0.0;
    std::printf("cold cache:  %5lu epochs in %6.2f s  -> %7.1f epochs/s  "
                "(hit rate %.0f%%, %lu/%lu)\n",
                static_cast<unsigned long>(cold.result.totalEpochs),
                cold.seconds,
                cold.result.totalEpochs / std::max(1e-9, cold.seconds),
                100.0 * hit_rate,
                static_cast<unsigned long>(cold.result.cacheHits),
                static_cast<unsigned long>(cold_lookups));
    const Timed cached = run(cfg);
    const double cached_eps =
        cached.result.totalEpochs / std::max(1e-9, cached.seconds);
    std::printf("warm cache:  %5lu epochs in %6.2f s  -> %7.1f epochs/s  "
                "(hit rate %.0f%%)\n",
                static_cast<unsigned long>(cached.result.totalEpochs),
                cached.seconds, cached_eps,
                100.0 * cached.result.cacheHits /
                    std::max<uint64_t>(1, cached.result.cacheHits +
                                              cached.result.cacheMisses));
    std::printf("\ncache: %zu entries, %.1f MiB resident, %lu hits / "
                "%lu misses / %lu evictions, %.2f s building\n",
                shared_cache.size(),
                static_cast<double>(shared_cache.bytesUsed()) / (1 << 20),
                static_cast<unsigned long>(shared_cache.hits()),
                static_cast<unsigned long>(shared_cache.misses()),
                static_cast<unsigned long>(shared_cache.evictions()),
                shared_cache.buildSeconds());
    std::printf("stitched timelines: %lu hits / %lu misses (a warm pass "
                "skips seam classification and circuit stitching on "
                "every hit)\n",
                static_cast<unsigned long>(shared_cache.timelineHits()),
                static_cast<unsigned long>(shared_cache.timelineMisses()));
    // Entries are pure functions of their keys: caching and eviction must
    // reproduce the uncached results exactly, cold and warm.
    const auto sameAsUncached = [&](const ScenarioResult &r) {
        return r.failures == uncached.result.failures &&
               r.shots == uncached.result.shots;
    };
    const bool cache_identical =
        sameAsUncached(cold.result) && sameAsUncached(cached.result);
    std::printf("speedup %.1fx; identical results: %s (%lu failures / "
                "%lu shots, p_round %.3e)\n",
                cached_eps / std::max(1e-9, uncached_eps),
                cache_identical ? "yes" : "NO (BUG)",
                static_cast<unsigned long>(cached.result.failures),
                static_cast<unsigned long>(cached.result.shots),
                cached.result.pRound);

    report.metric("epochs_per_sec_uncached", uncached_eps);
    report.metric("epochs_per_sec_cached", cached_eps);
    report.metric("epochs_per_sec_cold_cache",
                  cold.result.totalEpochs / std::max(1e-9, cold.seconds));
    report.metric("cache_speedup", cached_eps / std::max(1e-9, uncached_eps));
    report.metric("cache_hit_rate", hit_rate);
    report.metric("cache_hits", static_cast<double>(shared_cache.hits()));
    report.metric("cache_misses",
                  static_cast<double>(shared_cache.misses()));
    report.metric("cache_evictions",
                  static_cast<double>(shared_cache.evictions()));
    report.metric("timeline_hits",
                  static_cast<double>(shared_cache.timelineHits()));
    report.metric("timeline_misses",
                  static_cast<double>(shared_cache.timelineMisses()));
    report.metric("cache_entries", static_cast<double>(shared_cache.size()));
    report.metric("cache_resident_mib",
                  static_cast<double>(shared_cache.bytesUsed()) / (1 << 20));
    report.metric("total_epochs", static_cast<double>(
                                      cached.result.totalEpochs));
    report.metric("dead_timelines", static_cast<double>(
                                        cached.result.deadTimelines));
    report.metric("p_round", cached.result.pRound);
    report.metric("results_identical", cache_identical ? 1.0 : 0.0);

    // Robustness pass: the same workload under a soft decode deadline and
    // a deterministic fault plan. Stalls force trips down the fallback
    // ladder (blossom -> rows -> union-find), storms hammer the cache,
    // bursts adversarially thicken syndromes; the run must still complete
    // every shot, and the ledger prices the degradation.
    header("Robustness: deadline-aware decoding under injected faults");
    JsonReport robustness(argc, argv, "robustness");
    const char *fault_spec = flagString(
        argc, argv, "fault",
        "seed=1;stall.p=0.2;burst.p=0.05;burst.size=16;storm.batches=1");
    const auto deadline_ns = static_cast<uint64_t>(
        flagValue(argc, argv, "deadline_ns", 0));
    const StatusOr<FaultPlan> plan = parseFaultPlan(fault_spec);
    if (!plan.ok()) {
        std::fprintf(stderr, "--fault: %s\n", plan.status().str().c_str());
        return 1;
    }

    ScenarioConfig degraded_cfg = workload(d, timelines);
    degraded_cfg.faults = *plan;
    degraded_cfg.decodeDeadlineNs = deadline_ns;
    const Timed degraded = run(degraded_cfg);
    const DegradationLedger &led = degraded.result.ledger;
    std::printf("fault plan: %s\n", degraded_cfg.faults.summary().c_str());
    std::printf("%s", led.summary().c_str());
    const double degraded_frac =
        led.ladderDecodes ? static_cast<double>(led.degradedDecodes) /
                                static_cast<double>(led.ladderDecodes)
                          : 0.0;
    const double p_clean = uncached.result.pShot;
    const double p_degraded = degraded.result.pShot;
    std::printf("completed %lu/%lu shots; p_shot %.3e clean -> %.3e "
                "degraded (delta %+.3e)\n",
                static_cast<unsigned long>(degraded.result.shots),
                static_cast<unsigned long>(uncached.result.shots),
                p_clean, p_degraded, p_degraded - p_clean);

    robustness.metric("shots", static_cast<double>(degraded.result.shots));
    robustness.metric("ladder_decodes",
                      static_cast<double>(led.ladderDecodes));
    robustness.metric("degraded_decodes",
                      static_cast<double>(led.degradedDecodes));
    robustness.metric("degraded_frac", degraded_frac);
    for (uint8_t s = 0; s < kNumDecodeStages; ++s) {
        const std::string stage =
            decodeStageName(static_cast<DecodeStage>(s));
        robustness.metric("attempts_" + stage,
                          static_cast<double>(led.stageAttempts[s]));
        robustness.metric("timeouts_" + stage,
                          static_cast<double>(led.stageTimeouts[s]));
        robustness.metric("answers_" + stage,
                          static_cast<double>(led.stageCompleted[s]));
        robustness.metric("p99_ns_" + stage,
                          static_cast<double>(
                              led.stageLatency[s].quantileUpperBoundNs(
                                  0.99)));
    }
    robustness.metric("injected_stalls",
                      static_cast<double>(led.injectedStalls));
    robustness.metric("injected_bursts",
                      static_cast<double>(led.injectedBursts));
    robustness.metric("injected_burst_detectors",
                      static_cast<double>(led.injectedBurstDetectors));
    robustness.metric("cache_storms", static_cast<double>(led.cacheStorms));
    robustness.metric("p_shot_clean", p_clean);
    robustness.metric("p_shot_degraded", p_degraded);
    robustness.metric("p_shot_delta", p_degraded - p_clean);
    robustness.metric("epochs_per_sec_degraded",
                      degraded.result.totalEpochs /
                          std::max(1e-9, degraded.seconds));
    robustness.metric("all_shots_completed",
                      degraded.result.shots == uncached.result.shots ? 1.0
                                                                     : 0.0);

    // Persistence pass: the same workload with a snapshot directory. The
    // first run builds cold and writes cache.snap on completion; the
    // second starts from the snapshot (fresh in-memory cache each time,
    // so the speedup is pure restore, not residency). A third run writes
    // a deliberately corrupted snapshot and the recovery run after it
    // must cold-start cleanly. Gates (non-zero exit): warm results must
    // be bit-identical and the warm pass must actually restore entries.
    header("Warm-start persistence: cold-persist vs warm-restart");
    JsonReport persist(argc, argv, "persist");
    std::string pdir = flagString(argc, argv, "persist_dir", "");
    if (pdir.empty()) {
        char tmpl[] = "/tmp/surf_bench_persist_XXXXXX";
        const char *made = ::mkdtemp(tmpl);
        if (!made) {
            std::fprintf(stderr, "mkdtemp failed\n");
            return 1;
        }
        pdir = made;
    }

    ScenarioConfig persist_cfg = workload(d, timelines);
    persist_cfg.persistDir = pdir; // fresh local cache per run
    const Timed cold_persist = run(persist_cfg);
    const double cold_persist_eps =
        cold_persist.result.totalEpochs /
        std::max(1e-9, cold_persist.seconds);
    std::printf("cold+persist: %5lu epochs in %6.2f s -> %7.1f epochs/s  "
                "(snapshot %.1f KiB)\n",
                static_cast<unsigned long>(cold_persist.result.totalEpochs),
                cold_persist.seconds, cold_persist_eps,
                cold_persist.result.persistSnapshotBytes / 1024.0);

    const Timed warm_restart = run(persist_cfg);
    const double warm_restart_eps =
        warm_restart.result.totalEpochs /
        std::max(1e-9, warm_restart.seconds);
    const ScenarioResult &wr = warm_restart.result;
    std::printf("warm-restart: %5lu epochs in %6.2f s -> %7.1f epochs/s  "
                "(restored %lu segments + %lu timelines + %lu rows in "
                "%.1f ms)\n",
                static_cast<unsigned long>(wr.totalEpochs),
                warm_restart.seconds, warm_restart_eps,
                static_cast<unsigned long>(wr.persistRestoredSegments),
                static_cast<unsigned long>(wr.persistRestoredTimelines),
                static_cast<unsigned long>(wr.persistRestoredRows),
                1e3 * wr.persistRestoreSeconds);

    // Corruption pass: flip bits in the snapshot as it is written, then
    // verify the next run survives on a cold rebuild.
    ScenarioConfig corrupt_cfg = persist_cfg;
    const StatusOr<FaultPlan> corrupt_plan =
        parseFaultPlan("seed=9;snap.bitflip.p=2e-4");
    if (!corrupt_plan.ok()) {
        std::fprintf(stderr, "%s\n", corrupt_plan.status().str().c_str());
        return 1;
    }
    corrupt_cfg.faults = *corrupt_plan;
    const Timed corrupt_write = run(corrupt_cfg);
    const Timed recovery = run(persist_cfg);
    std::printf("corrupt-recovery: %lu records rejected, %lu cold "
                "recoveries; results identical: %s\n",
                static_cast<unsigned long>(
                    recovery.result.persistRejectedRecords),
                static_cast<unsigned long>(recovery.result.persistRecoveries),
                recovery.result.failures == uncached.result.failures
                    ? "yes"
                    : "NO (BUG)");

    const bool warm_identical =
        wr.failures == uncached.result.failures &&
        wr.shots == uncached.result.shots &&
        cold_persist.result.failures == uncached.result.failures &&
        recovery.result.failures == uncached.result.failures;
    const bool warm_restored = wr.persistRestoredSegments > 0;
    std::printf("warm-restart speedup %.1fx vs cold+persist; restore "
                "%.1f ms; identical results: %s\n",
                warm_restart_eps / std::max(1e-9, cold_persist_eps),
                1e3 * wr.persistRestoreSeconds,
                warm_identical ? "yes" : "NO (BUG)");

    persist.metric("epochs_per_sec_cold_persist", cold_persist_eps);
    persist.metric("epochs_per_sec_warm_restart", warm_restart_eps);
    persist.metric("warm_restart_speedup",
                   warm_restart_eps / std::max(1e-9, cold_persist_eps));
    persist.metric("restore_ms", 1e3 * wr.persistRestoreSeconds);
    persist.metric("snapshot_bytes",
                   static_cast<double>(
                       cold_persist.result.persistSnapshotBytes));
    persist.metric("restored_segments",
                   static_cast<double>(wr.persistRestoredSegments));
    persist.metric("restored_timelines",
                   static_cast<double>(wr.persistRestoredTimelines));
    persist.metric("restored_rows",
                   static_cast<double>(wr.persistRestoredRows));
    persist.metric("rejected_records_clean",
                   static_cast<double>(wr.persistRejectedRecords));
    persist.metric("corrupt_rejected_records",
                   static_cast<double>(
                       recovery.result.persistRejectedRecords));
    persist.metric("corrupt_recoveries",
                   static_cast<double>(recovery.result.persistRecoveries));
    persist.metric("results_identical", warm_identical ? 1.0 : 0.0);
    persist.metric("warm_restored_nonzero", warm_restored ? 1.0 : 0.0);
    (void)corrupt_write;

    if (!cache_identical) {
        std::fprintf(stderr, "cache gate failed: a cached pass diverged "
                             "from the uncached pass\n");
        return 1;
    }
    if (!warm_identical || !warm_restored) {
        std::fprintf(stderr, "persistence gate failed: identical=%d "
                             "restored=%d\n",
                     warm_identical, warm_restored);
        return 1;
    }
    return 0;
}
