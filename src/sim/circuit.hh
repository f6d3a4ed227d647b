/**
 * @file
 * Stabilizer circuit intermediate representation: the subset of Stim's
 * language needed for surface-code memory experiments. Instructions act on
 * integer qubit ids; DETECTOR instructions reference absolute measurement
 * indices and carry a CSS basis tag so the decoder can split the error
 * model into the two matching graphs.
 *
 * Layout (Stim's): one array of fixed-size instruction records
 * {op, arg, aux, first target, target count} plus one flat uint32_t
 * target array; consumers see an instruction's targets as a span. Every
 * consumer applies a multi-target instruction target by target (pairs
 * for CX / DEPOLARIZE2) in order, so `OP a; OP b` and `OP a b` mean the
 * same thing. `append` therefore coalesces a reset, gate, measurement or
 * noise channel into the previous instruction when op and arg match;
 * detectors, observables, probes and ticks are never coalesced. Builders
 * emit whole layers this way (see sim/segment.cc). `appendRaw` (snapshot
 * replay) never coalesces, so a restored circuit re-saves verbatim.
 */

#ifndef SURF_SIM_CIRCUIT_HH
#define SURF_SIM_CIRCUIT_HH

#include <cstdint>
#include <initializer_list>
#include <span>
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

/**
 * One circuit instruction as consumers see it: a view whose `targets`
 * span points into the owning circuit's flat target array. Valid until
 * the circuit is next modified.
 */
struct Instruction
{
    Op op;
    std::span<const uint32_t> targets;
    double arg = 0.0;   ///< noise probability for error channels
    uint32_t aux = 0;   ///< Detector: basis tag (0 = X check, 1 = Z check);
                        ///< ObservableInclude: observable index;
                        ///< FrameProbe: (index << 2) | (obs-cancel << 1)
                        ///< | basis-is-Z
};

/** Growable instruction list with measurement/detector bookkeeping. */
class Circuit
{
    /** Stored form of one instruction: its targets are the slice
     *  [first, first + count) of the flat target array. */
    struct Record
    {
        Op op;
        uint32_t aux;
        double arg;
        uint32_t first;
        uint32_t count;
    };

  public:
    /** Random-access view of the instructions (yields Instruction by
     *  value, so `for (const auto &ins : c.instructions())` works). */
    class Instructions
    {
      public:
        class iterator
        {
          public:
            Instruction operator*() const { return c_->instruction(i_); }
            iterator &operator++() { ++i_; return *this; }
            bool operator==(const iterator &o) const { return i_ == o.i_; }

          private:
            friend class Instructions;
            iterator(const Circuit *c, size_t i) : c_(c), i_(i) {}
            const Circuit *c_;
            size_t i_;
        };

        size_t size() const { return c_->records_.size(); }
        Instruction operator[](size_t i) const { return c_->instruction(i); }
        iterator begin() const { return {c_, 0}; }
        iterator end() const { return {c_, size()}; }

      private:
        friend class Circuit;
        explicit Instructions(const Circuit *c) : c_(c) {}
        const Circuit *c_;
    };

    Instructions instructions() const { return Instructions(this); }
    uint32_t numQubits() const { return num_qubits_; }
    size_t numMeasurements() const { return num_measurements_; }
    size_t numDetectors() const { return num_detectors_; }
    size_t numObservables() const { return num_observables_; }
    size_t numProbes() const { return num_probes_; }

    /**
     * Append a gate/reset/measure/noise instruction, coalescing it into
     * the previous instruction when that has the same op and arg.
     * @return the index of the first measurement recorded (for M ops),
     *         else 0
     */
    size_t append(Op op, std::span<const uint32_t> targets, double arg = 0.0);
    size_t
    append(Op op, std::initializer_list<uint32_t> targets, double arg = 0.0)
    {
        return append(op, std::span(targets.begin(), targets.size()), arg);
    }

    /** Append a detector over absolute measurement indices.
     *  @param basis_tag the CSS type of the originating check */
    void appendDetector(std::span<const uint32_t> measurement_indices,
                        PauliType basis_tag);
    void
    appendDetector(std::initializer_list<uint32_t> measurement_indices,
                   PauliType basis_tag)
    {
        appendDetector(std::span(measurement_indices.begin(),
                                 measurement_indices.size()),
                       basis_tag);
    }

    /** Append observable contributions (absolute measurement indices). */
    void appendObservable(uint32_t observable_index,
                          std::span<const uint32_t> measurement_indices);

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
    uint32_t appendFrameProbe(std::span<const uint32_t> qubits,
                              PauliType basis, bool observable_cancel = false);

    /**
     * Replay one instruction verbatim (never coalesced), recomputing the
     * qubit / measurement / detector / observable / probe bookkeeping —
     * the snapshot-restore path (persist/). Its `count` targets are the
     * little-endian u32s at `target_bytes` (any alignment), copied once
     * into the target array. Unlike the append* builders this never
     * aborts: structural inconsistencies (a detector referencing a
     * future measurement, an odd pairwise-target list, an out-of-range
     * noise probability) return false, and the paranoid loader rejects
     * the whole record instead of trusting it.
     * @return false when the instruction is inconsistent with the
     *         circuit built so far (the circuit is left unchanged)
     */
    bool appendRaw(Op op, double arg, uint32_t aux, const char *target_bytes,
                   size_t count);

    /** Reserve room for `n` instructions holding `targets` targets in
     *  all (the restore path counts both up front). */
    void
    reserve(size_t n, size_t targets)
    {
        records_.reserve(n);
        targets_.reserve(targets);
    }

    /** Total number of independent noise sites: one per target of a
     *  single-qubit channel, one per pair of a DEPOLARIZE2. */
    size_t countNoiseSites() const;

    /** Heap bytes held (instruction and target arrays, by capacity). */
    size_t memoryBytes() const;

    /** Human-readable dump (debugging). */
    std::string str() const;

  private:
    Instruction
    instruction(size_t i) const
    {
        const Record &r = records_[i];
        return {r.op, {targets_.data() + r.first, r.count}, r.arg, r.aux};
    }
    void push(Op op, std::span<const uint32_t> targets, double arg,
              uint32_t aux);
    /** appendRaw's checks and bookkeeping for `ins`; false (nothing
     *  counted) when it is inconsistent. */
    bool accountRaw(const Instruction &ins);

    std::vector<Record> records_;
    std::vector<uint32_t> targets_;
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
