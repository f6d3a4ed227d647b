/**
 * @file
 * Dynamic-scenario Monte-Carlo engine: memory experiments across live
 * deformations. A scenario samples a burst-defect timeline, plans epochs
 * (maximal runs of rounds with a constant deformed patch — see
 * epoch_plan.hh), stitches one syndrome-circuit segment per epoch into a
 * single concatenated circuit (data-qubit error frames carry across
 * seams; seam detectors reference the previous epoch's final inferences),
 * samples it with the batched frame simulator, and decodes per epoch with
 * DeformedCodeCache-memoized decoder graphs on the threaded pipeline.
 *
 * Guarantees:
 *  - A defect-free scenario plans exactly one epoch and reproduces
 *    runMemoryExperiment bit-for-bit at the same seed and shot schedule,
 *    for any window size.
 *  - Results are bit-identical for any thread count and with the cache
 *    enabled or disabled (entries are pure functions of their keys).
 *  - Per-epoch decoding is windowed decoding: errors straddling a seam
 *    are matched within their epoch (the standard approximation); the
 *    end-to-end failure check compares the XOR of per-epoch predictions
 *    against the true final observable.
 *
 * Per-epoch logical truth comes from FrameProbe oracle instrumentation:
 * the simulator records the logical frame parity at every seam, so the
 * engine can attribute logical flips to the epoch that caused them.
 */

#ifndef SURF_SCENARIO_SCENARIO_EXPERIMENT_HH
#define SURF_SCENARIO_SCENARIO_EXPERIMENT_HH

#include "decode/memory_experiment.hh"
#include "defects/fab_defects.hh"
#include "faultinject/fault_plan.hh"
#include "scenario/deformed_code_cache.hh"
#include "scenario/epoch_plan.hh"
#include "util/deadline.hh"
#include "util/status.hh"

namespace surf {

/** Scenario Monte-Carlo configuration. */
struct ScenarioConfig
{
    EpochPlannerConfig timeline; ///< strategy, d, horizon, window, ...
    DefectModelParams defectModel;
    /**
     * Fabrication defects: permanently broken qubits/couplers sampled
     * once per run (deterministically from fabDefects.seed) and adapted
     * by the scenario's strategy into a bandage/super-stabilizer patch
     * *before* any dynamic cosmic-ray deformation. The broken sites are
     * permanent: every deformation window re-plans against them plus
     * whatever burst is active (timeline.permanentSites). A chip whose
     * adapted distance collapses is a yield loss — its timelines run as
     * deterministic all-failure timelines (dead=true), tallied in the
     * ledger's fab counters, and the run continues. A disabled model
     * (both rates 0) is bit-identical to a config without this field.
     * The fault plan's fab.q.p / fab.c.p add further per-timeline broken
     * hardware on top of this chip sample.
     */
    FabDefectModel fabDefects;
    /** Scale factor on the defect event rate (0 disables events; the
     *  cosmic-ray benches crank this up so short horizons see strikes). */
    double eventRateScale = 1.0;
    int numTimelines = 1;

    NoiseParams noise; ///< defectiveSites is per-epoch (from the planner);
                       ///< any sites set here are ignored
    PauliType basis = PauliType::Z;
    DecoderKind decoder = DecoderKind::Auto;
    size_t mwpmDefectCap = 120; ///< Auto: per-epoch defect cap for MWPM
    /** Matching backend of the per-epoch MWPM decoders (part of the
     *  decode-segment cache identity). The default Sparse backend
     *  dispatches burst shots to the matrix-free sparse blossom past
     *  the decoder's defect threshold; Dense/SparseBlossom pin one
     *  path for every shot. Memoized rows count against the cache's
     *  byte budget (DeformedCodeCache::setBudget), which charges each
     *  decoder's row growth. */
    MatchingBackend matching = defaultMatchingBackend();
    uint64_t maxShotsPerTimeline = 4096;
    uint64_t targetFailures = UINT64_MAX; ///< stop early once reached
    size_t batchShots = 4096;
    /** Worker threads of each timeline's pool: they decode, and build
     *  a cold timeline's missing segment DEMs in parallel; results are
     *  thread-count invariant. 0 = hardware threads. */
    size_t threads = 0;
    bool decoderKnowsDefects = false;
    uint64_t seed = 0x5eedULL;

    bool useCache = true; ///< disable to rebuild decoders per epoch (bench)
    /** Optional external cache; bound it with its setBudget(). Eviction
     *  is cost-weighted LRU on the seconds each entry's build measured
     *  (segment DEM plus decoders, timeline stitching) and can never
     *  change results — entries are pure functions of their keys. */
    DeformedCodeCache *cache = nullptr;

    /**
     * Per-stage soft decode budget in nanoseconds; 0 (the default)
     * disables deadlines entirely and keeps every result bit-identical
     * to earlier builds. When set, MWPM shots run the staged fallback
     * ladder (sparse blossom → memoized rows → union-find; see
     * util/deadline.hh) and every downgrade lands in the run's
     * DegradationLedger. With a real clock the degradation pattern is
     * wall-time dependent (best-effort); with a stall-injecting fault
     * plan the clock turns virtual and replays become deterministic.
     */
    uint64_t decodeDeadlineNs = 0;
    /** Deterministic fault schedule (default: everything off). The
     *  SURF_FAULT_PLAN environment variable fills this when the config
     *  leaves it empty. A plan with decoder stalls and no explicit
     *  decodeDeadlineNs arms a default budget below the stall, so stall
     *  plans force the ladder out of the box. */
    FaultPlan faults;

    /**
     * Warm-start persistence directory (empty = off; the
     * SURF_PERSIST_DIR environment variable fills an empty value). When
     * set, the run (a) restores the deformed-code cache from
     * `<dir>/cache.snap` and rewrites it on successful completion, and
     * (b) checkpoints completed timelines to `<dir>/run-<sig>.ckpt`
     * after each one, resuming from the checkpoint when a compatible
     * one exists — a killed run finishes bit-identical to an
     * uninterrupted one. Corrupt or stale files always degrade to a
     * cold start (counted in the run ledger), never to a wrong result.
     */
    std::string persistDir;
};

/** Per-epoch statistics of one timeline. */
struct EpochStats
{
    uint64_t startRound = 0;
    uint64_t rounds = 0;
    size_t distX = 0, distZ = 0;
    size_t activeDefects = 0; ///< active defective sites at epoch start
    size_t numDetectors = 0;
    size_t decomposedHyperedges = 0;
    double undetectableObsProb = 0.0;
    uint64_t shots = 0;
    /** Shots where this epoch's decode disagreed with the oracle logical
     *  frame flip accrued during the epoch. */
    uint64_t mismatches = 0;
    double
    pEpoch() const
    {
        return shots ? static_cast<double>(mismatches) / shots : 0.0;
    }
};

/** One simulated timeline. */
struct TimelineStats
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    size_t events = 0;
    bool dead = false; ///< a deformation window destroyed the logical qubit
    std::vector<EpochStats> epochs;
    /** Fallback-ladder and fault accounting (empty without a deadline or
     *  fault plan). */
    DegradationLedger ledger;
};

/** Aggregate scenario result. */
struct ScenarioResult
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    double pShot = 0.0;
    double pRound = 0.0; ///< per-round rate over the horizon
    double se = 0.0;
    uint64_t horizonRounds = 0;
    uint64_t totalEpochs = 0;
    uint64_t deadTimelines = 0;
    uint64_t cacheHits = 0;      ///< this run's lookups (even with an
    uint64_t cacheMisses = 0;    ///< external shared cache)
    uint64_t cacheEvictions = 0; ///< evictions during this run
    std::vector<TimelineStats> timelines;
    /** Run-wide degradation ledger (timeline ledgers merged in order). */
    DegradationLedger ledger;

    // Warm-start persistence accounting (all zero without persistDir).
    uint64_t persistRestoredSegments = 0;
    uint64_t persistRestoredTimelines = 0;
    uint64_t persistRestoredRows = 0;
    uint64_t persistRejectedRecords = 0; ///< snapshot records refused
    uint64_t persistRecoveries = 0;      ///< whole-file cold fallbacks
    uint64_t resumedTimelines = 0;       ///< timelines from a checkpoint
    double persistRestoreSeconds = 0.0;  ///< wall time spent restoring
    /** cache.snap size: bytes read at restore, then bytes written at a
     *  successful save (whichever happened last). */
    uint64_t persistSnapshotBytes = 0;

    // Fabrication-defect accounting (all zero when cfg.fabDefects is
    // disabled and the fault plan injects no fab defects). The chip-level
    // fields describe the run's base chip sample (cfg.fabDefects alone);
    // per-timeline injected defects only show in the ledger counters.
    uint64_t fabDefectiveQubits = 0;   ///< base chip: broken qubits
    uint64_t fabDefectiveCouplers = 0; ///< base chip: broken couplers
    uint64_t fabDisabledData = 0;      ///< data qubits the adapter disabled
    uint64_t fabSuperClusters = 0;     ///< super-stabilizer clusters formed
    size_t fabDistX = 0, fabDistZ = 0; ///< adapted base-chip distances
    bool fabChipAlive = true;          ///< base chip survived adaptation
};

/**
 * Validate a scenario configuration: finite probabilities in range,
 * positive shot/round/window counts, a sane code distance, known enum
 * values and a well-formed fault plan. Each malformed field comes back
 * as INVALID_ARGUMENT, before any circuit is built.
 */
Status validateScenarioConfig(const ScenarioConfig &cfg);

/**
 * Validate a sampled (or externally supplied / fault-mutated) defect
 * stream against a scenario's lattice: every event needs a non-empty
 * site set, an increasing cycle interval, and coordinates within the
 * reachable deformation footprint. Rejects exactly the malformed shapes
 * FaultInjector::mutateStream produces.
 */
Status validateDefectStream(const std::vector<DefectEvent> &events,
                            const ScenarioConfig &cfg);

/**
 * Run the scenario sweep with structured error propagation: malformed
 * configs, fault plans and defect streams come back as Status errors
 * (never abort/exit), including errors thrown by decode workers (the
 * thread pool rethrows the first task exception). The SURF_FAULT_PLAN
 * environment plan is merged in when cfg.faults is empty.
 */
StatusOr<ScenarioResult> runScenarioExperimentChecked(const ScenarioConfig &cfg);

/**
 * Run one explicitly-planned timeline (the engine behind
 * runScenarioExperimentChecked; runMemoryExperiment is the one-epoch
 * case).
 * @param batchSeedBase first per-batch sampling seed (incremented batch
 *        by batch, exactly like the memory pipeline)
 * @param failuresSoFar early-stop tally carried across timelines
 */
TimelineStats runPlannedTimeline(const ScenarioPlan &plan,
                                 const ScenarioConfig &cfg,
                                 DeformedCodeCache &cache,
                                 uint64_t batchSeedBase,
                                 uint64_t failuresSoFar);

} // namespace surf

#endif // SURF_SCENARIO_SCENARIO_EXPERIMENT_HH
