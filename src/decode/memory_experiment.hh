/**
 * @file
 * End-to-end memory experiment harness: builds the syndrome circuit for a
 * patch, extracts the detector error model, Monte-Carlo samples detector
 * data with the frame simulator, decodes each shot, and estimates the
 * logical error rate (per shot and per round). This is the engine behind
 * the paper's figures 11(a), 13(a), 14(a) and 14(b).
 */

#ifndef SURF_DECODE_MEMORY_EXPERIMENT_HH
#define SURF_DECODE_MEMORY_EXPERIMENT_HH

#include "lattice/patch.hh"
#include "sim/syndrome_circuit.hh"

namespace surf {

/** Which decoder runs the shots. */
enum class DecoderKind : uint8_t
{
    Mwpm,      ///< exact minimum-weight perfect matching
    UnionFind, ///< union-find cluster decoder
    Auto,      ///< MWPM unless the shot's defect count exceeds the cap
};

/** Monte-Carlo configuration. */
struct MemoryExperimentConfig
{
    MemorySpec spec;
    NoiseParams noise;
    uint64_t maxShots = 200000;
    uint64_t targetFailures = 100; ///< stop early once reached
    uint64_t seed = 0x5eedULL;
    DecoderKind decoder = DecoderKind::Auto;
    size_t mwpmDefectCap = 120; ///< Auto: defect count above which UF runs
    size_t batchShots = 4096;
    /** Decode worker threads per batch; 0 = hardware concurrency. The
     *  result is bit-identical for any thread count: one task samples
     *  each batch from its own seed in batch order (the next batch
     *  ahead, while this one decodes) and every shot decodes
     *  independently, so the failure count is invariant under
     *  sharding. */
    size_t threads = 0;
    /** When false (paper-faithful default), the decoding graph is built
     *  from the defect-free error rates: an untreated defective code is
     *  decoded without knowledge of the elevated rates. Set true to give
     *  the decoder oracle knowledge of the defect locations (ablation). */
    bool decoderKnowsDefects = false;
};

/** Estimated logical performance. */
struct MemoryExperimentResult
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    double pShot = 0.0;   ///< logical error probability per shot
    double pRound = 0.0;  ///< per-round rate (compounding-corrected)
    double se = 0.0;      ///< standard error of pShot
    size_t rounds = 0;
    size_t numDetectors = 0;
    size_t decomposedHyperedges = 0;
    double undetectableObsProb = 0.0;
};

/** Run the experiment for a (possibly deformed) patch. */
MemoryExperimentResult runMemoryExperiment(const CodePatch &patch,
                                           const MemoryExperimentConfig &cfg);

} // namespace surf

#endif // SURF_DECODE_MEMORY_EXPERIMENT_HH
