/**
 * @file
 * CHP-style stabilizer tableau simulator (Aaronson-Gottesman). Used as the
 * correctness oracle for the circuit layer: it executes circuits with real
 * (random) measurement outcomes, which lets tests verify that every
 * detector of a noiseless syndrome circuit is deterministic and that the
 * logical observable is preserved through gauge-measurement deformations
 * (paper Appendix A).
 */

#ifndef SURF_TESTS_TABLEAU_HH
#define SURF_TESTS_TABLEAU_HH

#include <cstdint>
#include <vector>

#include "pauli/bitvec.hh"
#include "sim/circuit.hh"
#include "util/rng.hh"

namespace surf {

/** Stabilizer state on n qubits with destabilizer bookkeeping. */
class TableauSimulator
{
  public:
    explicit TableauSimulator(uint32_t n, uint64_t seed = 1);

    uint32_t numQubits() const { return n_; }

    void h(uint32_t q);
    void cx(uint32_t c, uint32_t t);
    void x(uint32_t q);
    void z(uint32_t q);

    /** Z-basis measurement; collapses and returns the outcome. */
    bool measureZ(uint32_t q);
    /** X-basis measurement (H-conjugated Z measurement). */
    bool measureX(uint32_t q);
    /** Reset to |0> (measure, flip if 1). */
    void resetZ(uint32_t q);
    /** Reset to |+>. */
    void resetX(uint32_t q);

    /** True when a Z (resp. X) measurement of q would be deterministic. */
    bool isDeterministicZ(uint32_t q) const;
    bool isDeterministicX(uint32_t q) const;

    /**
     * Expectation of a Pauli product: +1 / -1 when the operator is a
     * (signed) stabilizer of the state, 0 when the outcome is random.
     */
    int expectation(const PauliString &p) const;

    /**
     * Execute a full circuit (noise channels are sampled with the given
     * probability; pass sample_noise = false for noiseless runs).
     * Returns the measurement record.
     */
    struct RunResult
    {
        std::vector<bool> measurements;
        std::vector<bool> detectors;
        std::vector<bool> observables;
    };
    static RunResult runCircuit(const Circuit &circuit, uint64_t seed,
                                bool sample_noise = false);

  private:
    // Rows 0..n-1 destabilizers, n..2n-1 stabilizers; row 2n scratch.
    uint32_t n_;
    std::vector<BitVec> x_, z_;
    BitVec r_; // phase bits per row
    Rng rng_;

    void rowCopy(uint32_t dst, uint32_t src);
    void rowMult(uint32_t dst, uint32_t src); // dst *= src with phase
    int rowPhaseExponent(uint32_t dst, uint32_t src) const;
    bool measureZInternal(uint32_t q, bool force_random_to, bool use_force);
};

} // namespace surf

#endif // SURF_TESTS_TABLEAU_HH
