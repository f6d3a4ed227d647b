/**
 * @file
 * The compile-time Qubit Layout Generator (paper Sec. VI). Given the
 * program profile and the dynamic-defect error model it chooses the code
 * distance d and the extra inter-space Delta_d such that the probability
 * of a communication channel being blocked by code enlargement stays
 * below alpha_block (paper Eq. 1), and accounts the total physical qubits
 * of the resulting layout.
 */

#ifndef SURF_CORE_LAYOUT_GEN_HH
#define SURF_CORE_LAYOUT_GEN_HH

#include <cstddef>
#include <cstdint>

#include "util/status.hh"

namespace surf {

/**
 * Dynamic defect model parameters, following the paper's Sec. VII-A
 * numbers derived from the cosmic-ray experiments of McEwen et al.:
 * one event per 26 qubits per 10 s, 24 affected qubits per event, a
 * defective region of diameter ~4 data qubits, lasting 25 ms
 * (~25,000 QEC cycles at 1 us per cycle).
 */
struct DefectModelParams
{
    double eventRatePerQubitSec = 0.1 / 26.0; ///< rho (Poisson rate)
    double durationSec = 25e-3;               ///< T
    int regionQubits = 24;                    ///< affected qubits per event
    int regionDiameter = 4;                   ///< D (max defect size)
    double cycleTimeSec = 1e-6;               ///< QEC cycle wall time

    /** Expected defect events on a distance-d patch during one
     *  persistence window: lambda = 2 d^2 rho T. */
    double lambdaForPatch(int d) const;

    /** Event rate per QEC cycle for a single physical qubit. */
    double
    eventRatePerQubitCycle() const
    {
        return eventRatePerQubitSec * cycleTimeSec;
    }

    /** Defect persistence in QEC cycles. */
    uint64_t
    durationCycles() const
    {
        return static_cast<uint64_t>(durationSec / cycleTimeSec);
    }
};

/** Inter-space scheme of a layout (who occupies the channel). */
enum class InterspaceScheme : uint8_t
{
    LatticeSurgery,  ///< plain d inter-space, no defect headroom
    Q3de,            ///< d inter-space, 2x enlargement blocks channels
    Q3deRevised,     ///< 2d inter-space so 2x enlargement never blocks
    SurfDeformer,    ///< d + Delta_d inter-space (paper fig. 10a)
};

/** Output of the layout generator. */
struct LayoutPlan
{
    int numLogical = 0;     ///< logical qubits incl. ancilla/factory tiles
    int d = 0;              ///< code distance
    int deltaD = 0;         ///< extra inter-space (0 for non-SD schemes)
    InterspaceScheme scheme = InterspaceScheme::SurfDeformer;
    double pBlock = 0.0;    ///< achieved channel-block probability

    int gridCols = 0;
    int gridRows = 0;
    size_t physicalQubits = 0;
};

/** The compile-time layout generator. */
class LayoutGenerator
{
  public:
    explicit LayoutGenerator(DefectModelParams model) : model_(model) {}

    const DefectModelParams &model() const { return model_; }

    /**
     * Probability that mitigating the defects of one persistence window
     * overflows the extra inter-space delta_d (paper Eq. 1):
     * p_block = 1 - sum_{k <= floor(delta_d / D)} Poisson(lambda, k).
     */
    double blockProbability(int d, int delta_d) const;

    /**
     * Smallest Delta_d with blockProbability <= alpha_block. When no
     * Delta_d below 64 defect regions satisfies the target (the defect
     * rate swamps the patch), returns INVALID_ARGUMENT rather than
     * aborting — alpha_block is user input.
     */
    StatusOr<int> chooseDeltaDChecked(int d, double alpha_block = 0.01) const;

    /**
     * Assemble the full layout plan: logical tiles on a near-square grid
     * with the scheme's inter-space, physical qubits = 2 per lattice site
     * over the enclosed area (data + measurement qubits). Rejects
     * num_logical < 1, d < 3, alpha_block outside (0, 1] and an
     * unsatisfiable Delta_d search as INVALID_ARGUMENT.
     */
    StatusOr<LayoutPlan> planChecked(int num_logical, int d,
                                     InterspaceScheme scheme,
                                     double alpha_block = 0.01) const;

    /** Inter-space width in data-qubit units for a scheme. */
    static int interspace(int d, int delta_d, InterspaceScheme scheme);

  private:
    DefectModelParams model_;
};

} // namespace surf

#endif // SURF_CORE_LAYOUT_GEN_HH
