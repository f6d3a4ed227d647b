#include "endtoend/retry_risk.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "defects/defect_sampler.hh"
#include "lattice/rotated.hh"
#include "scenario/scenario_experiment.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace surf {

namespace {

/**
 * Analytic excess logical risk of one burst event under a strategy: the
 * degraded-distance error rate integrated over the exposure window (see
 * the per-strategy discussion in estimateRetryRisk). Shared between the
 * Table-II estimator and the scenario-engine cross check so both sides of
 * the comparison use the identical model.
 */
double
perEventExcessRisk(Strategy strategy, int d, double loss,
                   double duration_rounds, int region_diameter,
                   const LogicalErrorModel &em)
{
    double d_eff;
    double exposure_rounds = duration_rounds;
    switch (strategy) {
      case Strategy::SurfDeformer:
        // Removal + enlargement restores the distance within one cycle;
        // the residual measured loss applies only during the detection
        // latency (~2 rounds of syndrome statistics), after which the
        // only deficit is the measured post-restoration loss (usually 0).
        d_eff = d - (region_diameter + loss);
        exposure_rounds = 2.0;
        break;
      case Strategy::Ascs:
        d_eff = d - loss;
        break;
      default:
        d_eff = (strategy == Strategy::LatticeSurgery)
                    ? d - loss
                    : 2.0 * d - loss; // Q3DE doubles the patch
        break;
    }
    double per_event = em.perRound(d_eff) * exposure_rounds;
    if (strategy == Strategy::SurfDeformer) {
        // After restoration the code is back at distance >= d for the
        // rest of the event window: already covered by the base risk,
        // plus the small residual loss if enlargement was capped.
        per_event += em.perRound(d - loss) *
                     (duration_rounds - exposure_rounds) *
                     (loss > 0.0 ? 1.0 : 0.0);
    }
    return per_event;
}

} // namespace

double
measuredDistanceLoss(Strategy s, int d_cal, int delta_d, int samples,
                     uint64_t seed, int region_diameter)
{
    using Key = std::tuple<int, int, int, int, uint64_t, int>;
    static std::map<Key, double> cache;
    const Key key{static_cast<int>(s), d_cal, delta_d, samples, seed,
                  region_diameter};
    if (auto it = cache.find(key); it != cache.end())
        return it->second;

    // Lattice Surgery / Q3DE leave the saturated region inside the code:
    // the decoder gets no usable information there AND the defective
    // qubits keep injecting errors that spread through syndrome
    // measurement. Model the loss as the measured ASC-S removal loss plus
    // a spreading penalty of one region diameter (consistent with the
    // fig. 11a untreated-versus-removed gap at simulable sizes).
    if (s == Strategy::LatticeSurgery || s == Strategy::Q3de ||
        s == Strategy::Q3deRevised) {
        const double loss =
            measuredDistanceLoss(Strategy::Ascs, d_cal, delta_d, samples,
                                 seed, region_diameter) +
            region_diameter;
        cache[key] = loss;
        return loss;
    }

    // Sample the defect centers serially (one RNG stream), then evaluate
    // the deformation strategy for each region across the worker pool.
    // Per-sample losses are reduced in index order, so the estimate is
    // identical for any worker count.
    Rng rng(seed);
    const CodePatch ref = squarePatch(d_cal);
    std::vector<Coord> centers;
    centers.reserve(static_cast<size_t>(samples));
    for (int i = 0; i < samples; ++i)
        centers.push_back(
            {ref.xMin() + static_cast<int>(rng.below(
                              static_cast<uint64_t>(2 * d_cal - 1))),
             ref.yMin() + static_cast<int>(rng.below(
                              static_cast<uint64_t>(2 * d_cal - 1)))});
    std::vector<double> losses(centers.size(), 0.0);
    // One process-lifetime pool: the cache above makes calls rare, but a
    // cache miss should not pay thread spawn/join on top of the sampling.
    static ThreadPool pool;
    pool.parallelFor(centers.size(), [&](size_t i, size_t) {
        const auto sites =
            DefectSampler::regionSites(centers[i], region_diameter);
        const auto out =
            applyStrategyChecked(s, d_cal, delta_d, sites).value();
        // A destroyed patch counts the full distance as lost.
        losses[i] = out.alive ? static_cast<double>(d_cal) -
                                    static_cast<double>(out.minDist())
                              : static_cast<double>(d_cal);
    });
    double total = 0.0;
    for (double l : losses)
        total += l;
    const double loss = samples > 0 ? total / samples : 0.0;
    cache[key] = loss;
    return loss;
}

RetryRiskResult
estimateRetryRisk(const BenchmarkProgram &program, const RetryRiskConfig &cfg)
{
    RetryRiskResult out;
    LayoutGenerator gen(cfg.defectModel);

    // Tiles: program qubits plus magic-state factory tiles when T gates
    // are present (a tenth of the footprint, at least one).
    int tiles = program.numQubits;
    if (program.numT > 0)
        tiles += std::max(1, program.numQubits / 10);
    const auto plan =
        gen.planChecked(tiles, cfg.d, schemeOf(cfg.strategy), cfg.alphaBlock)
            .value();
    out.physicalQubits = plan.physicalQubits;
    out.deltaD = plan.deltaD;

    // Runtime model: one lattice-surgery step = d QEC rounds.
    const double cx_parallel = std::max(1.0, tiles / cfg.cxDivisor);
    const double t_parallel = std::max(1.0, tiles / cfg.tDivisor);
    const double steps =
        std::ceil(static_cast<double>(program.numCx) / cx_parallel) +
        std::ceil(static_cast<double>(program.numT) / t_parallel);
    const double rounds = steps * cfg.d;
    out.runtimeCycles = rounds;

    // Baseline space-time logical risk (no defects).
    const double base_risk =
        static_cast<double>(tiles) * rounds * cfg.errorModel.perRound(cfg.d);

    // Dynamic defects: expected events over the run across the machine.
    const double runtime_sec = rounds * cfg.defectModel.cycleTimeSec;
    const double event_rate_per_sec =
        cfg.defectModel.eventRatePerQubitSec *
        static_cast<double>(out.physicalQubits);
    out.expectedEvents = event_rate_per_sec * runtime_sec;
    const double duration_rounds =
        static_cast<double>(cfg.defectModel.durationCycles());

    // Per-event excess risk: p_L at the degraded distance for the event
    // duration, minus the baseline already counted for that window.
    const double loss = measuredDistanceLoss(
        cfg.strategy, cfg.lossCalibrationD, plan.deltaD, cfg.lossSamples,
        cfg.seed, cfg.defectModel.regionDiameter);
    out.meanDistanceLoss = loss;

    const double per_event =
        perEventExcessRisk(cfg.strategy, cfg.d, loss, duration_rounds,
                           cfg.defectModel.regionDiameter, cfg.errorModel);
    const double excess_risk = out.expectedEvents * per_event;

    // Q3DE's fixed layout: an enlarged patch blocks its channels for the
    // whole event duration. When blocked tiles saturate the fabric the
    // program stalls indefinitely (paper: OverRuntime).
    if (cfg.strategy == Strategy::Q3de) {
        const double concurrent_events =
            event_rate_per_sec * cfg.defectModel.durationSec;
        if (concurrent_events >
            cfg.overRuntimeFraction * static_cast<double>(tiles)) {
            out.overRuntime = true;
        }
    }

    out.retryRisk = 1.0 - std::exp(-(base_risk + excess_risk));

    if (cfg.measuredCrossCheck) {
        ScenarioCrossCheckConfig cc;
        cc.strategy = cfg.strategy;
        cc.d = cfg.lossCalibrationD;
        cc.deltaD = plan.deltaD;
        cc.defectModel = cfg.defectModel;
        cc.errorModel = cfg.errorModel;
        cc.lossSamples = cfg.lossSamples;
        cc.seed = cfg.seed;
        const ScenarioCrossCheck check = crossCheckRetryRisk(cc);
        out.crossCheckMeasuredPRound = check.measuredPRound;
        out.crossCheckAnalyticPRound = check.analyticPRound;
    }
    return out;
}

ScenarioCrossCheck
crossCheckRetryRisk(const ScenarioCrossCheckConfig &cfg)
{
    ScenarioCrossCheck out;

    // --- Measured side: full strategy-reactive timelines. ----------------
    ScenarioConfig sc;
    sc.timeline.strategy = cfg.strategy;
    sc.timeline.d = cfg.d;
    sc.timeline.deltaD = cfg.deltaD;
    sc.timeline.horizonRounds = cfg.horizonRounds;
    sc.timeline.windowRounds = cfg.windowRounds;
    sc.defectModel = cfg.defectModel;
    sc.eventRateScale = cfg.eventRateScale;
    sc.numTimelines = cfg.numTimelines;
    sc.noise.p = cfg.noiseP;
    sc.maxShotsPerTimeline = cfg.shotsPerTimeline;
    sc.seed = cfg.seed;
    sc.threads = cfg.threads;
    const ScenarioResult res = runScenarioExperimentChecked(sc).value();
    out.shots = res.shots;
    out.failures = res.failures;
    out.measuredPShot = res.pShot;
    out.measuredPRound = res.pRound;
    out.totalEpochs = res.totalEpochs;
    const uint64_t lookups = res.cacheHits + res.cacheMisses;
    out.cacheHitRate =
        lookups ? static_cast<double>(res.cacheHits) / lookups : 0.0;

    // --- Analytic side: the same workload through the distance-loss
    // model (base space-time risk + expected-event excess). --------------
    const double loss = measuredDistanceLoss(
        cfg.strategy, cfg.d, cfg.deltaD, cfg.lossSamples, cfg.seed,
        cfg.defectModel.regionDiameter);
    const CodePatch patch = squarePatch(cfg.d);
    const double events_per_round =
        cfg.defectModel.eventRatePerQubitCycle() * cfg.eventRateScale *
        static_cast<double>(patch.numPhysicalQubits());
    out.expectedEvents =
        events_per_round * static_cast<double>(cfg.horizonRounds);
    const double base_risk = static_cast<double>(cfg.horizonRounds) *
                             cfg.errorModel.perRound(cfg.d);
    // An event's exposure cannot extend past the simulated horizon; scale
    // defectModel.durationSec down (as the scenario bench does) when the
    // persistence matters to the strategy under test.
    const double duration_rounds =
        std::min(static_cast<double>(cfg.defectModel.durationCycles()),
                 static_cast<double>(cfg.horizonRounds));
    const double per_event =
        perEventExcessRisk(cfg.strategy, cfg.d, loss, duration_rounds,
                           cfg.defectModel.regionDiameter, cfg.errorModel);
    out.analyticPShot =
        1.0 - std::exp(-(base_risk + out.expectedEvents * per_event));
    out.analyticPRound =
        1.0 - std::pow(1.0 - out.analyticPShot,
                       1.0 / static_cast<double>(cfg.horizonRounds));
    return out;
}

} // namespace surf
