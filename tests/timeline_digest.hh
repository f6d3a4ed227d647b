/**
 * @file
 * FNV-64 digests of what a timeline reports (shots, failures, per-epoch
 * mismatches and every ledger counter): the golden pipeline and scenario
 * tests pin their recorded runs with these.
 */

#ifndef SURF_TESTS_TIMELINE_DIGEST_HH
#define SURF_TESTS_TIMELINE_DIGEST_HH

#include "fnv64.hh"
#include "scenario/scenario_experiment.hh"

namespace surf::testref {

inline void
addLedger(Fnv64 &f, const DegradationLedger &l)
{
    f.add(l.ladderDecodes);
    f.add(l.degradedDecodes);
    for (size_t s = 0; s < kNumDecodeStages; ++s) {
        f.add(l.stageAttempts[s]);
        f.add(l.stageTimeouts[s]);
        f.add(l.stageCompleted[s]);
        const LatencyHistogram &h = l.stageLatency[s];
        for (uint64_t b : h.buckets)
            f.add(b);
        f.add(h.samples);
        f.add(h.totalNs);
        f.add(h.maxNs);
    }
    f.add(l.injectedStalls);
    f.add(l.injectedBursts);
    f.add(l.injectedBurstDetectors);
    f.add(l.cacheStorms);
    f.add(l.snapRestoredEntries);
    f.add(l.snapRejectedRecords);
    f.add(l.snapRecoveries);
    f.add(l.fabDeadPatches);
    f.add(l.fabAdaptedPatches);
    f.add(l.fabDistanceLoss);
}

inline void
addTimeline(Fnv64 &f, const TimelineStats &tl)
{
    f.add(tl.shots);
    f.add(tl.failures);
    f.add(tl.events);
    f.add(tl.dead);
    f.add(tl.epochs.size());
    for (const EpochStats &e : tl.epochs) {
        f.add(e.shots);
        f.add(e.mismatches);
    }
    addLedger(f, tl.ledger);
}

} // namespace surf::testref

#endif // SURF_TESTS_TIMELINE_DIGEST_HH
