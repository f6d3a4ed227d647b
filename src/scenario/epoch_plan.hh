/**
 * @file
 * Epoch planning: turn a sampled DefectEvent stream into the sequence of
 * epochs a scenario timeline executes. At every round-window boundary the
 * chosen mitigation strategy is applied to the then-active defect set
 * (the runtime loop of paper fig. 5); consecutive windows whose deformed
 * patch and residual defects are identical merge into one epoch — an
 * epoch is a *maximal* run of rounds with a constant DeformedPatch. A
 * defect-free timeline therefore plans exactly one epoch regardless of
 * the window size, which is what makes the zero-defect scenario
 * bit-identical to the plain memory experiment.
 */

#ifndef SURF_SCENARIO_EPOCH_PLAN_HH
#define SURF_SCENARIO_EPOCH_PLAN_HH

#include <map>
#include <string>
#include <vector>

#include "baselines/strategies.hh"
#include "defects/defect_sampler.hh"

namespace surf {

/** Timeline-shape parameters of a scenario. */
struct EpochPlannerConfig
{
    Strategy strategy = Strategy::SurfDeformer;
    int d = 9;
    int deltaD = 4;             ///< Surf-Deformer enlargement cap
    uint64_t horizonRounds = 600;
    uint64_t windowRounds = 50; ///< deformation re-plan cadence (1 round
                                ///< of syndrome extraction = 1 QEC cycle)
    /** Split epochs longer than this (0 = unbounded). Bounding epoch
     *  length bounds decoder-graph size and raises cache reuse across
     *  timelines with differently-timed quiet stretches. */
    uint64_t maxEpochRounds = 0;
    /** Testing knob: keep an epoch boundary at every window edge even
     *  when the patch did not change (no merging). */
    bool forceEpochBoundaries = false;
    /** Permanently defective sites (fabrication defects, already adapted
     *  once at run start): unioned into every window's active set, so
     *  dynamic cosmic-ray deformations stack on top of the broken-chip
     *  baseline instead of resurrecting dead hardware. Empty on a
     *  pristine chip — and then planning is bit-identical to a config
     *  without this field. */
    std::set<Coord> permanentSites;
};

/** One planned epoch: a constant deformed patch over a round range. */
struct Epoch
{
    uint64_t startRound = 0;
    uint64_t rounds = 0;
    DeformedPatch deformed;          ///< patch + structural distances
    std::set<Coord> residualDefects; ///< defective sites left in the code
    std::set<Coord> activeSites;     ///< all active defects at epoch start
                                     ///< (seam-trust information)
    std::string structSig;           ///< canonical patch structure
};

/** A full planned timeline. */
struct ScenarioPlan
{
    std::vector<Epoch> epochs;
    bool alive = true;   ///< false if any window killed the logical qubit
    size_t numEvents = 0;
};

/** A memoized strategy outcome with the patchSignature of its patch. */
struct PlannedOutcome
{
    StrategyOutcome outcome;
    std::string signature;
};

/** Memo of strategy outcomes keyed by the planner's strategy, d and
 *  deltaD followed by the serialized active-defect set (deformation
 *  responses are pure functions of those, and quiet or recurring defect
 *  patterns dominate a timeline sweep). Each entry's signature is built
 *  once, however many windows reuse it. One memo may be shared across
 *  planner configs. */
using StrategyMemo = std::map<std::string, PlannedOutcome>;

/** Plan the epochs of one timeline. */
ScenarioPlan planEpochs(const EpochPlannerConfig &cfg,
                        const std::vector<DefectEvent> &events,
                        StrategyMemo *memo = nullptr);

} // namespace surf

#endif // SURF_SCENARIO_EPOCH_PLAN_HH
