/**
 * @file
 * End-to-end retry-risk estimator (paper Table II, fig. 12, fig. 13a).
 *
 * The estimator combines:
 *  - the layout generator's physical-qubit accounting per strategy scheme;
 *  - a lattice-surgery runtime model (CX routing parallelism and magic
 *    state consumption; documented heuristics, absolute runtimes are
 *    model-based);
 *  - the dynamic-defect model (Poisson burst events);
 *  - per-strategy distance-loss distributions *measured by running this
 *    repository's own deformation machinery* on sampled burst regions;
 *  - the calibrated exponential logical-error model.
 *
 * retry_risk = 1 - exp(-(baseline spacetime risk + defect excess risk)),
 * and Q3DE's fixed layout additionally stalls when the expected number of
 * concurrently-blocked tiles saturates the routing fabric (OverRuntime,
 * the paper's Table-II failure mode).
 *
 * These estimators return plain numbers, not StatusOr: an invalid
 * configuration (unknown strategy, code distance out of range, an
 * unsatisfiable alphaBlock, a rejected scenario config) surfaces as a
 * StatusError exception carrying the Status of the checked entry point
 * that refused it. They never end the process.
 */

#ifndef SURF_ENDTOEND_RETRY_RISK_HH
#define SURF_ENDTOEND_RETRY_RISK_HH

#include "baselines/strategies.hh"
#include "core/layout_gen.hh"
#include "endtoend/logical_error_model.hh"
#include "endtoend/programs.hh"

namespace surf {

/** Estimator configuration. */
struct RetryRiskConfig
{
    Strategy strategy = Strategy::SurfDeformer;
    int d = 21;
    double alphaBlock = 0.01;
    DefectModelParams defectModel;
    LogicalErrorModel errorModel;
    /** Samples for measuring the strategy's distance-loss distribution. */
    int lossSamples = 24;
    /** Calibration distance for the loss distribution measurement. */
    int lossCalibrationD = 13;
    uint64_t seed = 20240516;
    /** Routing parallelism: concurrent CX ops ~ tiles / cxDivisor. */
    double cxDivisor = 4.0;
    /** Concurrent T consumption ~ tiles / tDivisor. */
    double tDivisor = 2.0;
    /** Q3DE stalls out when blocked tiles exceed this fraction. */
    double overRuntimeFraction = 0.05;
    /** Run the scenario-engine cross check at the calibration distance and
     *  report measured vs analytic dynamic-defect risk (expensive). */
    bool measuredCrossCheck = false;
};

/** Estimator output (one Table-II cell). */
struct RetryRiskResult
{
    double retryRisk = 0.0;
    size_t physicalQubits = 0;
    bool overRuntime = false;
    double runtimeCycles = 0.0;
    double expectedEvents = 0.0;
    int deltaD = 0;
    double meanDistanceLoss = 0.0; ///< measured residual loss per event
    /** Filled when cfg.measuredCrossCheck is set: simulated vs analytic
     *  per-round logical error under dynamic defects at the calibration
     *  distance (agreement validates the extrapolated model). */
    double crossCheckMeasuredPRound = 0.0;
    double crossCheckAnalyticPRound = 0.0;
};

/** Configuration of the scenario-engine cross check. */
struct ScenarioCrossCheckConfig
{
    Strategy strategy = Strategy::SurfDeformer;
    int d = 5;
    int deltaD = 2;
    DefectModelParams defectModel;
    LogicalErrorModel errorModel;
    /** Event-rate multiplier so short horizons see enough strikes. The
     *  analytic prediction scales identically, so agreement is preserved. */
    double eventRateScale = 2000.0;
    /** Samples for the analytic side's distance-loss measurement; forward
     *  RetryRiskConfig::lossSamples so both sides share one model. */
    int lossSamples = 24;
    uint64_t horizonRounds = 120;
    uint64_t windowRounds = 20;
    int numTimelines = 8;
    uint64_t shotsPerTimeline = 512;
    double noiseP = 2e-3;
    uint64_t seed = 20240731;
    size_t threads = 0;
};

/** Measured-vs-analytic comparison of dynamic-defect logical risk. */
struct ScenarioCrossCheck
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    double measuredPShot = 0.0;
    double measuredPRound = 0.0;
    double analyticPShot = 0.0; ///< model: base + expected-event excess
    double analyticPRound = 0.0;
    double expectedEvents = 0.0; ///< per timeline (analytic)
    uint64_t totalEpochs = 0;    ///< deformation activity actually seen
    double cacheHitRate = 0.0;
};

/**
 * Cross-check the analytic retry-risk excess model against the scenario
 * engine: simulate full strategy-reactive timelines at a simulable
 * distance and compare the measured logical error rate with the
 * distance-loss-based analytic prediction for the identical workload.
 */
ScenarioCrossCheck crossCheckRetryRisk(const ScenarioCrossCheckConfig &cfg);

/** Estimate the retry risk of one program under one strategy. */
RetryRiskResult estimateRetryRisk(const BenchmarkProgram &program,
                                  const RetryRiskConfig &cfg);

/**
 * Mean residual distance loss per burst event for a strategy, measured by
 * applying the strategy's actual deformation machinery to sampled burst
 * regions on a calibration patch. Results are cached per
 * (strategy, calibration d, delta_d, samples, seed).
 */
double measuredDistanceLoss(Strategy s, int d_cal, int delta_d, int samples,
                            uint64_t seed, int region_diameter);

} // namespace surf

#endif // SURF_ENDTOEND_RETRY_RISK_HH
