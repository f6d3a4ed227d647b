/**
 * @file
 * Stabilizer circuit intermediate representation: the subset of Stim's
 * language needed for surface-code memory experiments. Instructions act on
 * integer qubit ids; DETECTOR instructions reference absolute measurement
 * indices and carry a CSS basis tag so the decoder can split the error
 * model into the two matching graphs.
 */

#ifndef SURF_SIM_CIRCUIT_HH
#define SURF_SIM_CIRCUIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_string.hh"

namespace surf {

/** Circuit operation kinds. */
enum class Op : uint8_t
{
    ResetZ,       ///< reset qubits to |0>
    ResetX,       ///< reset qubits to |+>
    MeasureZ,     ///< Z-basis measurement (records one bit per target)
    MeasureX,     ///< X-basis measurement
    H,            ///< Hadamard
    CX,           ///< controlled-X; targets are (control, target) pairs
    XError,       ///< independent X flip with probability arg
    ZError,       ///< independent Z flip with probability arg
    Depolarize1,  ///< single-qubit depolarizing channel
    Depolarize2,  ///< two-qubit depolarizing channel on (a, b) pairs
    Detector,     ///< parity of referenced measurements (targets = indices)
    ObservableInclude, ///< logical observable parity contribution
    Tick,         ///< layer separator (timing annotation only)
    FrameProbe,   ///< oracle: record the current error-frame parity over the
                  ///< target qubits (scenario engine epoch instrumentation;
                  ///< no physical analog, ignored by the DEM builder)
};

/** One circuit instruction. */
struct Instruction
{
    Op op;
    std::vector<uint32_t> targets;
    double arg = 0.0;   ///< noise probability for error channels
    uint32_t aux = 0;   ///< Detector: basis tag (0 = X check, 1 = Z check);
                        ///< ObservableInclude: observable index;
                        ///< FrameProbe: (index << 2) | (obs-cancel << 1)
                        ///< | basis-is-Z
};

/** Growable instruction list with measurement/detector bookkeeping. */
class Circuit
{
  public:
    const std::vector<Instruction> &instructions() const { return instrs_; }
    uint32_t numQubits() const { return num_qubits_; }
    size_t numMeasurements() const { return num_measurements_; }
    size_t numDetectors() const { return num_detectors_; }
    size_t numObservables() const { return num_observables_; }
    size_t numProbes() const { return num_probes_; }

    /** Append a gate/reset/measure/noise instruction. Returns the index of
     *  the first measurement recorded (for M ops), else 0. */
    size_t append(Op op, std::vector<uint32_t> targets, double arg = 0.0);

    /** Append a detector over absolute measurement indices.
     *  @param basis_tag the CSS type of the originating check */
    void appendDetector(std::vector<uint32_t> measurement_indices,
                        PauliType basis_tag);

    /** Append observable contributions (absolute measurement indices). */
    void appendObservable(uint32_t observable_index,
                          std::vector<uint32_t> measurement_indices);

    /**
     * Append an oracle frame probe: the simulator records the parity of the
     * error frames that would flip a `basis`-type measurement of the target
     * qubits. Consumes no randomness and leaves the state untouched, so
     * inserting probes never perturbs sampling.
     * @param observable_cancel mark the probe as an observable contribution
     *        for the DEM builder: error frames present at the probe cancel
     *        out of the observable attribution (used by standalone decoder
     *        segments so their one-round overlap replica contributes
     *        syndrome mechanisms but no logical responsibility)
     * @return the probe index
     */
    uint32_t appendFrameProbe(std::vector<uint32_t> qubits, PauliType basis,
                              bool observable_cancel = false);

    /**
     * Replay one instruction verbatim, recomputing the qubit /
     * measurement / detector / observable / probe bookkeeping — the
     * snapshot-restore path (persist/). Unlike the append* builders this
     * never aborts: structural inconsistencies (a detector referencing a
     * future measurement, an odd pairwise-target list, an out-of-range
     * noise probability) return false, and the paranoid loader rejects
     * the whole record instead of trusting it.
     * @return false when the instruction is inconsistent with the
     *         circuit built so far (the circuit is left unchanged)
     */
    bool appendRaw(Instruction ins);

    /** Reserve room for `n` instructions (the restore path knows the
     *  count up front). */
    void reserve(size_t n) { instrs_.reserve(n); }

    /** Total count of noise-channel instructions. */
    size_t countNoiseInstructions() const;

    /** Human-readable dump (debugging). */
    std::string str() const;

  private:
    std::vector<Instruction> instrs_;
    uint32_t num_qubits_ = 0;
    size_t num_measurements_ = 0;
    size_t num_detectors_ = 0;
    size_t num_observables_ = 0;
    size_t num_probes_ = 0;
};

/** True for noise-channel operations. */
inline bool
isNoiseOp(Op op)
{
    return op == Op::XError || op == Op::ZError || op == Op::Depolarize1 ||
           op == Op::Depolarize2;
}

} // namespace surf

#endif // SURF_SIM_CIRCUIT_HH
