/**
 * @file
 * The defect-mitigation strategies compared throughout the paper's
 * evaluation, under one interface:
 *
 *  - LatticeSurgery: no mitigation at all (defects stay, distance rots);
 *  - Ascs: the Adaptive Surface Code (removal-only, uniform DataQ_RM
 *    treatment of syndrome defects, minimal-disable boundary policy);
 *  - Q3de: fixed 2x enlargement on a fixed d-interspace layout, no
 *    removal (defects persist inside the enlarged code);
 *  - Q3deRevised: Q3DE with 2d interspace so channels never block;
 *  - SurfDeformer: adaptive removal + adaptive enlargement capped by the
 *    layout's Delta_d.
 */

#ifndef SURF_BASELINES_STRATEGIES_HH
#define SURF_BASELINES_STRATEGIES_HH

#include <set>
#include <string>

#include "core/deformation_unit.hh"
#include "core/layout_gen.hh"
#include "util/status.hh"

namespace surf {

/** Strategy identifiers used across the benchmark harnesses. */
enum class Strategy : uint8_t
{
    LatticeSurgery,
    Ascs,
    Q3de,
    Q3deRevised,
    SurfDeformer,
};

const char *strategyName(Strategy s);

/** Layout inter-space scheme of a strategy. */
InterspaceScheme schemeOf(Strategy s);

/** Outcome of applying a strategy to one defect configuration. */
struct StrategyOutcome
{
    /** Resulting code distances (what protects the logical qubit). */
    size_t distX = 0;
    size_t distZ = 0;
    size_t minDist() const { return distX < distZ ? distX : distZ; }
    /** Residual defective sites left inside the code (Q3DE / LS). */
    std::set<Coord> residualDefects;
    /** Layers grown (0 for removal-only strategies). */
    int grownLayers = 0;
    /** The deformed patch (for simulation-backed experiments). */
    CodePatch patch;
    bool alive = false;
};

/**
 * Apply a strategy to a distance-d patch with the given defective sites,
 * with structured error propagation: an unknown strategy value, a code
 * distance outside [2, 512] or a negative delta_d come back as
 * INVALID_ARGUMENT instead of aborting the process.
 *
 * @param delta_d the Surf-Deformer enlargement cap (ignored by others)
 */
StatusOr<StrategyOutcome> applyStrategyChecked(Strategy s, int d, int delta_d,
                                               const std::set<Coord> &defects);

} // namespace surf

#endif // SURF_BASELINES_STRATEGIES_HH
