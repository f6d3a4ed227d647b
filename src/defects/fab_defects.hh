/**
 * @file
 * Permanent fabrication defects and the bandage-like adaptation layer
 * (BandAuto-style Device semantics; see also Siegel et al.'s adaptive
 * surface code). A FabDefectModel names per-qubit and per-coupler defect
 * rates plus a chip seed; sampling is a pure per-site hash of
 * (seed, site), so the same model always yields the same broken chip —
 * order-independent, thread-count-invariant, replayable.
 *
 * Adaptation converts a defective chip into an adapted CodePatch through
 * the existing deformation machinery: defective qubits (and the data
 * endpoint of every defective coupler — the interaction is unusable, so
 * the data qubit leaves the measured code) are disabled, neighbouring
 * checks merge into super-stabilizer clusters, and the logicals plus the
 * structural min distance are recomputed. A chip whose adapted distance
 * collapses to zero is *dead*: callers (the scenario engine) must tally
 * it as a yield failure and continue, never abort — the same graceful
 * degradation contract the decode ladder follows.
 */

#ifndef SURF_DEFECTS_FAB_DEFECTS_HH
#define SURF_DEFECTS_FAB_DEFECTS_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "baselines/strategies.hh"
#include "lattice/patch.hh"
#include "util/status.hh"

namespace surf {

/** Fabrication-defect rates over a chip (all zero = pristine chip). */
struct FabDefectModel
{
    double qubitRate = 0.0;   ///< per physical qubit (data + ancilla)
    double couplerRate = 0.0; ///< per ancilla-data coupler
    uint64_t seed = 0;        ///< chip identity: same seed, same chip

    bool
    enabled() const
    {
        return qubitRate > 0.0 || couplerRate > 0.0;
    }
};

/** One sampled broken chip over a patch footprint. */
struct FabDefectSample
{
    std::set<Coord> qubits; ///< defective data or ancilla sites
    std::set<std::pair<Coord, Coord>> couplers; ///< (ancilla, data) pairs

    bool
    empty() const
    {
        return qubits.empty() && couplers.empty();
    }
};

/** Every physical qubit of a patch: data sites plus check ancillas,
 *  sorted and deduplicated — the per-qubit defect candidates. */
std::vector<Coord> fabQubitCandidates(const CodePatch &patch);

/** Every (ancilla, data) coupler of a patch: one per ancilla-measured
 *  check support qubit, sorted and deduplicated. */
std::vector<std::pair<Coord, Coord>>
fabCouplerCandidates(const CodePatch &patch);

/**
 * Add seeded per-site defect draws to a sample in place. Decisions are
 * pure hashes of (seed, salt, site) — no RNG state — so they are
 * identical at any thread count and for any enumeration order. The
 * `salt` decorrelates independent draws under one seed (the fault
 * injector passes its per-timeline salt; plain chip sampling passes 0).
 */
void sampleFabInto(FabDefectSample &out, const CodePatch &patch,
                   double qubitRate, double couplerRate, uint64_t seed,
                   uint64_t salt);

/** Sample a chip from a model. Rejects non-finite or out-of-[0,1] rates
 *  as INVALID_ARGUMENT. */
StatusOr<FabDefectSample> sampleFabDefectsChecked(const CodePatch &patch,
                                                  const FabDefectModel &model);

/**
 * The lattice sites a sample disables: the defective qubits plus the
 * data endpoint of every defective coupler (a check that cannot touch
 * one of its data qubits cannot measure it; disabling the data qubit is
 * the bandage reduction that keeps the remaining checks measurable).
 */
std::set<Coord> fabEffectiveSites(const FabDefectSample &sample);

/** A chip adapted around its fabrication defects. */
struct FabAdaptation
{
    /** The adapted patch, its distances, residual defects and liveness
     *  (alive == false: the chip is dead — distance collapsed). */
    StrategyOutcome outcome;
    std::set<Coord> disabledSites; ///< effective sites fed to the adapter
    size_t disabledData = 0;  ///< pristine data qubits no longer in the code
    size_t superClusters = 0; ///< merged super-stabilizer clusters
    /** Structural distance lost to the defects: d - min(distX, distZ)
     *  when alive, d when dead. */
    size_t distanceLoss = 0;
};

/**
 * Adapt a pristine distance-d patch around a sampled chip, using the
 * strategy's removal/enlargement machinery (Surf-Deformer: balanced
 * removal + growth capped by deltaD; the super-stabilizer clusters come
 * out of the patch's gauge-kernel recomputation). Rejects unknown
 * strategies and out-of-range d / deltaD as INVALID_ARGUMENT. A dead
 * chip is a *valid* result (outcome.alive == false), not an error.
 */
StatusOr<FabAdaptation> adaptFabDefectsChecked(Strategy s, int d, int deltaD,
                                               const FabDefectSample &sample);

} // namespace surf

#endif // SURF_DEFECTS_FAB_DEFECTS_HH
