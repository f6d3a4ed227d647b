/**
 * @file
 * Dynamic and static defect sampling (paper Sec. VII-A). Dynamic defects
 * follow the cosmic-ray model of McEwen et al.: per-qubit Poisson events,
 * each saturating a compact region of ~24 qubits for ~25,000 QEC cycles.
 * Static defects model fabrication faults for the yield study (fig. 13b).
 */

#ifndef SURF_DEFECTS_DEFECT_SAMPLER_HH
#define SURF_DEFECTS_DEFECT_SAMPLER_HH

#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "core/layout_gen.hh"
#include "lattice/patch.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace surf {

/** One multi-bit burst event. */
struct DefectEvent
{
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;     ///< exclusive
    Coord center;
    std::set<Coord> sites;     ///< affected lattice sites (data + checks)
};

/**
 * Sorted interval sweep over a fixed event list for monotone queries.
 *
 * Queries must come with non-decreasing cycles (the natural order of a
 * timeline scan); each event is then admitted and retired exactly once,
 * so a full sweep over Q query points and E events costs
 * O(E log E + Q + total event sites) instead of the O(Q * E) of a
 * per-query linear scan.
 */
class ActiveDefectSweep
{
  public:
    explicit ActiveDefectSweep(const std::vector<DefectEvent> &events);

    /** Active defective sites at `cycle` (>= the previous query's cycle). */
    const std::set<Coord> &activeAt(uint64_t cycle);

    /** Restart the sweep from cycle 0. */
    void rewind();

  private:
    const std::vector<DefectEvent> *events_;
    std::vector<size_t> by_start_, by_end_; ///< event indices, sorted
    size_t start_cursor_ = 0, end_cursor_ = 0;
    uint64_t last_cycle_ = 0;
    bool started_ = false;
    std::map<Coord, int> refcount_; ///< overlapping events per site
    std::set<Coord> active_;
};

/** Samples defect events and static faults. */
class DefectSampler
{
  public:
    DefectSampler(DefectModelParams params, uint64_t seed)
        : params_(params), rng_(seed)
    {
    }

    const DefectModelParams &params() const { return params_; }

    /**
     * All lattice sites within Chebyshev distance `diameter` of the
     * center: approximately 2 * (diameter+1)^2 / 2 qubits, matching the
     * paper's 24-qubit affected region for diameter 4.
     */
    static std::set<Coord> regionSites(Coord center, int diameter);

    /**
     * Sample burst events striking a rectangular patch footprint over a
     * time window. The per-cycle event rate is (#physical qubits) x
     * (per-qubit rate); each event picks a uniform center in the
     * footprint and persists for the model duration.
     */
    std::vector<DefectEvent> sampleEvents(const CodePatch &patch,
                                          uint64_t cycles);

    /** Active defective sites at a given cycle (one-shot interval sweep;
     *  use ActiveDefectSweep directly when scanning a whole timeline). */
    static std::set<Coord> activeSites(const std::vector<DefectEvent> &events,
                                       uint64_t cycle);

    /**
     * Uniformly sample k distinct static faulty sites on a patch (data
     * or syndrome qubits). Rejects k < 0 and k larger than the patch's
     * physical qubit count as INVALID_ARGUMENT instead of aborting — k
     * is user input in the yield sweeps.
     */
    StatusOr<std::set<Coord>> sampleStaticFaultsChecked(const CodePatch &patch,
                                                        int k);

    Rng &rng() { return rng_; }

  private:
    DefectModelParams params_;
    Rng rng_;
};

} // namespace surf

#endif // SURF_DEFECTS_DEFECT_SAMPLER_HH
