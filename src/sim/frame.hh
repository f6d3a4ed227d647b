/**
 * @file
 * Batched Pauli-frame Monte-Carlo sampler. Propagates X/Z error frames
 * through the circuit for many shots at once (bit-packed, one bit per
 * shot), producing exact samples of detector values and observable flips
 * for stabilizer circuits — the same construction as Stim's detector
 * sampler: detectors are reference-frame differences, so frame propagation
 * alone determines them.
 */

#ifndef SURF_SIM_FRAME_HH
#define SURF_SIM_FRAME_HH

#include <cstdint>
#include <vector>

#include "pauli/bitvec.hh"
#include "sim/circuit.hh"
#include "util/rng.hh"

namespace surf {

/**
 * Per-shot sparse syndromes for one sampled batch, in CSR layout: the
 * fired detector ids of shot s are flat[offsets[s] .. offsets[s+1])
 * in ascending order. Reused across batches to stay allocation-free.
 */
struct SparseSyndromes
{
    std::vector<uint32_t> flat;    ///< fired detector ids, shot-major
    std::vector<uint32_t> offsets; ///< per-shot slices; size shots + 1

    size_t shots() const { return offsets.empty() ? 0 : offsets.size() - 1; }
    const uint32_t *data(size_t shot) const
    {
        return flat.data() + offsets[shot];
    }
    size_t count(size_t shot) const
    {
        return offsets[shot + 1] - offsets[shot];
    }
    /** One shot's ids as a vector (convenience for tests/compat). */
    std::vector<uint32_t> shotVector(size_t shot) const
    {
        return {data(shot), data(shot) + count(shot)};
    }

  private:
    friend class FrameSimulator;
    std::vector<uint32_t> cursor_; ///< fill scratch (pass 2 of transpose)
};

/**
 * One batch of frame-simulated shots. Reusable: construct once per
 * circuit/batch-size, then `reset(seed)` + `run()` re-samples into the
 * same tables without reallocating.
 *
 * Streaming: the two-argument constructor defers sampling, and
 * `runUntil(n)` advances the instruction cursor only until n detectors
 * exist, so a consumer can take detectors [begin, end) with the ranged
 * `sparseFiredDetectors(out, begin, end)` while the rest of the circuit
 * is still unsampled. Instructions run in the same order and draw the
 * same random numbers however the run is split, so every sample equals
 * the one-call `run()`. `reset(seed)` rewinds the cursor from any point.
 *
 * Layout: with words = ceil(shots / 64), the X frame plane of every
 * qubit, the Z frame plane of every qubit, every measurement record and
 * every detector are `words`-word rows of four contiguous uint64_t
 * tables (bit s of a row is shot s), all sized once at construction from
 * the circuit's counts. Observables and probes stay BitVecs.
 *
 * Noise: each noise target draws one uniform u and skips
 * floor(log u / log(1-p)) shots to its first event, exactly as
 * Rng::geometricSkip. The setup (log1p(-p) and (1-p)^shots) is paid once
 * per instruction, and the common "no event in this batch" outcome is
 * decided without a log: u < (1-p)^shots * (1 - 1e-9) implies a skip of
 * at least `shots`. Inside that guard band, and after every event, the
 * exact formula runs, so draws and flips equal the per-target
 * geometricSkip sequence bit for bit.
 *
 * The referenced circuit must outlive the simulator.
 */
class FrameSimulator
{
  public:
    /**
     * Simulate `shots` samples of the circuit's detectors/observables.
     * @param seed deterministic RNG seed for the noise processes
     */
    FrameSimulator(const Circuit &circuit, size_t shots, uint64_t seed);

    /**
     * Size the tables for `shots` samples without sampling: follow with
     * `reset(seed)` and `run()` or `runUntil()`.
     */
    FrameSimulator(const Circuit &circuit, size_t shots);

    /**
     * Rewind to a freshly-seeded state at the start of the circuit,
     * keeping every buffer allocation. Follow with `run()` or
     * `runUntil()` to sample the next batch.
     */
    void reset(uint64_t seed);

    /** Propagate the rest of the circuit, filling detector/observable
     *  samples. */
    void run();

    /**
     * Propagate until at least `detectors` detectors are sampled (or the
     * circuit ends); detector bits below that count are final.
     */
    void runUntil(size_t detectors);

    size_t shots() const { return shots_; }
    /** Detectors sampled so far (all of them after `run()`). */
    size_t numDetectors() const { return num_detectors_; }

    /** Detector bits across shots (bit s = detector fired in shot s). */
    BitVec detectorBits(size_t det) const;
    /** Observable flip bits across shots. */
    const BitVec &observableBits(size_t obs) const
    {
        return observables_[obs];
    }
    /** Oracle frame-probe parity bits across shots (scenario engine). */
    const BitVec &probeBits(size_t probe) const { return probes_[probe]; }
    size_t numProbes() const { return probes_.size(); }

    /** Indices of detectors that fired in one shot (O(numDetectors)). */
    std::vector<uint32_t> firedDetectors(size_t shot) const;

    /**
     * Transpose the sampled detectors' bits into per-shot sparse
     * syndrome lists. Scans 64-shot words and skips zero words, so the
     * cost is O(detectors * words + fired) instead of the per-shot
     * firedDetectors() total of O(detectors * shots). `out` buffers are
     * reused across calls.
     */
    void sparseFiredDetectors(SparseSyndromes &out) const;
    SparseSyndromes sparseFiredDetectors() const;
    /**
     * The same transpose over detectors [begin, end) only, with ids
     * relative to `begin`; `end` must not exceed numDetectors().
     */
    void sparseFiredDetectors(SparseSyndromes &out, size_t begin,
                              size_t end) const;

  private:
    /** Per-instruction noise setup (see the class comment). */
    struct NoiseSetup
    {
        double p = -1.0;     ///< the p set up (-1: none yet)
        double log1m = 0.0;  ///< log1p(-p)
        double quiet = 0.0;  ///< u below this: no event in the batch
    };
    void setupNoise(double p);
    /** Shots to skip to one target's first event (`first`; a result
     *  >= shots means none) or to its next one. */
    uint64_t drawSkip(bool first);
    /** Call `event(s)` for every shot s in which one target fires. */
    template <typename Fn> void forEachEvent(Fn &&event);

    uint64_t *row(std::vector<uint64_t> &table, size_t r)
    {
        return table.data() + r * words_;
    }
    const uint64_t *row(const std::vector<uint64_t> &table, size_t r) const
    {
        return table.data() + r * words_;
    }

    const Circuit *circuit_;
    size_t shots_;
    size_t words_;
    Rng rng_;
    NoiseSetup noise_;
    std::vector<uint64_t> xf_, zf_;   // frame planes, one row per qubit
    std::vector<uint64_t> records_;   // one row per measurement
    std::vector<uint64_t> detectors_; // one row per detector
    std::vector<BitVec> observables_;
    std::vector<BitVec> probes_;
    size_t pc_ = 0;            ///< next instruction to propagate
    size_t num_records_ = 0;   ///< measurements recorded so far
    size_t num_detectors_ = 0; ///< detectors sampled so far
};

} // namespace surf

#endif // SURF_SIM_FRAME_HH
