/**
 * @file
 * Resumable scenario runs: after every completed timeline the engine
 * atomically rewrites a checkpoint file holding the run's config
 * signature and the full TimelineStats of every finished timeline. A
 * killed run (crash, deadline, the fault harness's snap.kill site)
 * restarts, loads the checkpoint, replays the completed tally into its
 * aggregate state and continues at the first unfinished timeline —
 * finishing bit-identical to an uninterrupted run at any thread count,
 * because per-timeline seeds are derived independently and per-timeline
 * results are already thread-count invariant.
 *
 * The config signature hashes every field that influences results
 * (strategy, distances, horizons, noise, seeds, decoder and fault plan)
 * and deliberately excludes the result-invariant knobs (thread count,
 * cache budgets, persist directory, snap.* fault clauses):
 * a resume may change those freely, while a checkpoint written under a
 * different physics config is ignored as stale.
 */

#ifndef SURF_PERSIST_CHECKPOINT_HH
#define SURF_PERSIST_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario_experiment.hh"
#include "util/status.hh"

namespace surf {

/** Resumable state of a partially completed scenario run. */
struct RunCheckpoint
{
    uint64_t configSignature = 0;
    std::vector<TimelineStats> completed; ///< finished timelines, in order
};

/** Hash of the result-relevant ScenarioConfig fields (see file doc). */
uint64_t scenarioConfigSignature(const ScenarioConfig &cfg);

/** Atomically (re)write the checkpoint after a completed timeline. */
Status saveRunCheckpoint(const std::string &path, uint64_t configSignature,
                         const std::vector<TimelineStats> &completed,
                         const FaultInjector *inject = nullptr,
                         uint64_t faultSalt = 0);

/**
 * Load a checkpoint. Missing/corrupt files and header damage come back
 * as a non-OK Status (cold start + recovery counter at the caller). A
 * torn tail yields the valid prefix of completed timelines — exactly
 * the state of an earlier crash, still safe to resume from. The caller
 * compares configSignature against its own config and ignores stale
 * checkpoints.
 */
StatusOr<RunCheckpoint> loadRunCheckpoint(const std::string &path);

} // namespace surf

#endif // SURF_PERSIST_CHECKPOINT_HH
