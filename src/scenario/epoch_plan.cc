#include "scenario/epoch_plan.hh"

#include "scenario/patch_signature.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace surf {

ScenarioPlan
planEpochs(const EpochPlannerConfig &cfg,
           const std::vector<DefectEvent> &events, StrategyMemo *memo)
{
    // Malformed timeline shapes are user errors, not invariants: throw a
    // StatusError so checked entry points hand back a diagnosable value
    // instead of aborting the process.
    if (cfg.horizonRounds < 1)
        throw StatusError(Status::invalidArgument(
            "epoch planner: empty scenario horizon (horizonRounds must "
            "be >= 1)"));
    if (cfg.windowRounds < 1)
        throw StatusError(Status::invalidArgument(
            "epoch planner: window must cover at least a round "
            "(windowRounds must be >= 1)"));
    ScenarioPlan plan;
    plan.numEvents = events.size();

    StrategyMemo local;
    StrategyMemo &outcomes = memo ? *memo : local;
    // The outcome depends on the planner config as well as the defect set.
    const std::string config_key = std::string(strategyName(cfg.strategy)) +
                                   " d=" + std::to_string(cfg.d) +
                                   " dd=" + std::to_string(cfg.deltaD) + " ";

    ActiveDefectSweep sweep(events);
    std::set<Coord> merged; // scratch: permanent ∪ window-active
    for (uint64_t t = 0; t < cfg.horizonRounds; t += cfg.windowRounds) {
        const uint64_t rounds =
            std::min<uint64_t>(cfg.windowRounds, cfg.horizonRounds - t);
        const std::set<Coord> &dynamic = sweep.activeAt(t);
        const std::set<Coord> *active = &dynamic;
        if (!cfg.permanentSites.empty()) {
            merged = cfg.permanentSites;
            merged.insert(dynamic.begin(), dynamic.end());
            active = &merged;
        }

        const std::string active_key = config_key + coordSetSignature(*active);
        auto it = outcomes.find(active_key);
        if (it == outcomes.end()) {
            StatusOr<StrategyOutcome> out = applyStrategyChecked(
                cfg.strategy, cfg.d, cfg.deltaD, *active);
            if (!out.ok())
                throw StatusError(out.status());
            std::string sig = patchSignature(out.value().patch);
            it = outcomes
                     .emplace(active_key,
                              PlannedOutcome{std::move(out.value()),
                                             std::move(sig)})
                     .first;
        }
        const StrategyOutcome &outcome = it->second.outcome;
        const std::string &sig = it->second.signature;
        plan.alive = plan.alive && outcome.alive;

        // The merge identity covers structure *and* the sampling-noise
        // view: equal shapes with different residual defects must not
        // merge (their syndrome circuits differ).
        Epoch *back = plan.epochs.empty() ? nullptr : &plan.epochs.back();
        const bool mergeable =
            back && !cfg.forceEpochBoundaries && back->structSig == sig &&
            back->residualDefects == outcome.residualDefects &&
            (cfg.maxEpochRounds == 0 ||
             back->rounds + rounds <= cfg.maxEpochRounds);
        if (mergeable) {
            back->rounds += rounds;
            continue;
        }
        Epoch e;
        e.startRound = t;
        e.rounds = rounds;
        e.deformed.patch = outcome.patch;
        e.deformed.distX = outcome.distX;
        e.deformed.distZ = outcome.distZ;
        e.deformed.alive = outcome.alive;
        e.residualDefects = outcome.residualDefects;
        e.activeSites = *active;
        e.structSig = sig;
        plan.epochs.push_back(std::move(e));
    }

    // Apply the epoch-length cap by splitting over-long epochs in place
    // (same patch on both sides; the seam is a pure continuation).
    if (cfg.maxEpochRounds > 0) {
        std::vector<Epoch> split;
        for (Epoch &e : plan.epochs) {
            while (e.rounds > cfg.maxEpochRounds) {
                Epoch head = e;
                head.rounds = cfg.maxEpochRounds;
                split.push_back(head);
                e.startRound += cfg.maxEpochRounds;
                e.rounds -= cfg.maxEpochRounds;
            }
            split.push_back(std::move(e));
        }
        plan.epochs = std::move(split);
    }
    return plan;
}

} // namespace surf
