/**
 * @file
 * Algebraic subsystem stabilizer code in the generator representation of
 * the paper's Appendix A: stabilizer generators s_i, logical pairs
 * (Xbar_i, Zbar_i) and gauge pairs. Provides the Theorem-1 validity check,
 * the Definition-4 measurement-set validity check, and exact CSS distance
 * oracles used to verify the geometric layer.
 */

#ifndef SURF_TESTS_SUBSYSTEM_CODE_HH
#define SURF_TESTS_SUBSYSTEM_CODE_HH

#include <string>
#include <vector>

#include "lattice/patch.hh" // ValidationResult
#include "pauli/bitmatrix.hh"
#include "pauli/pauli_string.hh"

namespace surf {

/**
 * An [[n, k, l]] subsystem stabilizer code: n physical qubits, k logical
 * qubits, l gauge qubits (paper Appendix A generator representation).
 */
class SubsystemCode
{
  public:
    explicit SubsystemCode(size_t n) : n_(n) {}

    size_t numQubits() const { return n_; }
    size_t numStabilizers() const { return stabilizers_.size(); }
    size_t numLogical() const { return logicalX_.size(); }
    size_t numGauge() const { return gaugeX_.size(); }

    void addStabilizer(const PauliString &s);
    void addLogicalPair(const PauliString &x, const PauliString &z);
    void addGaugePair(const PauliString &x, const PauliString &z);

    const std::vector<PauliString> &stabilizers() const { return stabilizers_; }
    const PauliString &logicalX(size_t i) const { return logicalX_[i]; }
    const PauliString &logicalZ(size_t i) const { return logicalZ_[i]; }
    const std::vector<PauliString> &gaugeXs() const { return gaugeX_; }
    const std::vector<PauliString> &gaugeZs() const { return gaugeZ_; }

    /** Symplectic (x|z) row of length 2n for GF(2) algebra. */
    static BitVec symplecticRow(const PauliString &p);

    /**
     * Theorem 1 check: independence of all generators, anti-commutation
     * within each logical/gauge pair, commutation everywhere else, and the
     * counting identity #stab + #logical + #gauge == n.
     */
    ValidationResult validate() const;

    /**
     * Definition 4 check for a measurement schedule Meas = Stab u Gauge:
     * (1) measured stabilizers lie in <s_i>,
     * (2) measured gauges lie in <s_i, gauge ops> but not in <s_i>,
     * (3) every stabilizer generator is recoverable from <Meas>.
     */
    ValidationResult validateMeasurementSet(
        const std::vector<PauliString> &stab_meas,
        const std::vector<PauliString> &gauge_meas) const;

    /** True if `p` is in the group generated by the stabilizers (phases ignored). */
    bool inStabilizerGroup(const PauliString &p) const;

    /** True if `p` is in the gauge group <stabilizers, gauge ops>. */
    bool inGaugeGroup(const PauliString &p) const;

    /** True if `p` commutes with every stabilizer generator. */
    bool inCentralizerOfStabilizers(const PauliString &p) const;

    /**
     * Exact dressed distance of CSS type t for logical qubit `which`:
     * minimum weight of (logical_t) * (any element of the gauge group's
     * type-t subgroup). Only valid for CSS codes whose generators are all
     * pure-type, which holds for every code in this repository.
     */
    size_t distanceExactCss(PauliType t, size_t which = 0) const;

  private:
    size_t n_;
    std::vector<PauliString> stabilizers_;
    std::vector<PauliString> logicalX_, logicalZ_;
    std::vector<PauliString> gaugeX_, gaugeZ_;
};

} // namespace surf

#endif // SURF_TESTS_SUBSYSTEM_CODE_HH
