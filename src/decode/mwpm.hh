/**
 * @file
 * Minimum-weight perfect-matching decoder (the PyMatching-equivalent):
 * fired detectors are matched pairwise or to the boundary along shortest
 * paths of the decoding graph; the predicted observable flip is the XOR
 * of the observable parities along the matched paths.
 *
 * Two backends (see graph.hh): the default Sparse backend answers the
 * path queries with memoized Dijkstra searches from each
 * fired defect (O(defects x local search) per shot, O(edges) decoder
 * construction), while the Dense backend keeps the historical
 * precomputed all-pairs tables.
 *
 * The sparse backend memoizes one shortest-path row per fired defect
 * node (DecodingGraph::row): rows are built lazily by the decode
 * workers, shared lock-free, and persist with the graph — a decoder
 * living in the DeformedCodeCache reaches dense-table speed after its
 * first shots while never paying for rows no defect touches.
 *
 * Sparse exactness: each row is a full search through the dense
 * tables' kernel, and every path cell of a shot is read from the row of
 * the pair's smaller node id, so the path cache holds the dense tables'
 * values and parity witnesses. The rows path drops every pair heavier
 * than matching both ends into the boundary (never in an optimum) and
 * solves the remaining mirror instance with the adjacency-list blossom
 * of sparse_blossom.hh; with the shared tie-break (match_weights.hh)
 * its predictions and matched weight equal the dense backend's on every
 * shot.
 */

#ifndef SURF_DECODE_MWPM_HH
#define SURF_DECODE_MWPM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "decode/graph.hh"
#include "decode/sparse_blossom.hh"
#include "util/deadline.hh"

namespace surf {

/** Floor of the automatic sparse-blossom dispatch threshold: the Sparse
 *  backend hands a shot to the matrix-free matcher when its defect
 *  count reaches max(kDefaultBlossomDefects, numNodes() / 12). Both
 *  paths are exact, so the rule only picks which one runs. On
 *  contiguous burst clusters warm rows win at every measured k up to
 *  160 for d = 7..11 and the matcher only from k ~ 190 (README,
 *  "Selection"), so bursts dispatched at this floor take the slower
 *  exact path. The value is kept until the dispatch itself is
 *  revisited. The density guard only raises the threshold on large
 *  graphs (d >= 13). Override with setBlossomThreshold(). */
inline constexpr size_t kDefaultBlossomDefects = 56;

/**
 * Reusable per-thread decode workspace. The defect list, the dense
 * matching weight matrix, the blossom mate buffer, the Dijkstra search
 * state and the per-shot path cache all keep their heap buffers across
 * calls, so a steady-state decode loop performs no allocation here.
 * Epoch-stamped arrays (Dijkstra state, defect-slot map) reset in O(1).
 * Each worker thread owns one scratch; the decoder itself stays
 * immutable and shareable, and one scratch may serve decoders of
 * different sizes.
 */
struct MwpmScratch
{
    std::vector<int> defects;
    /** Dense: the 2k x 2k weight matrix; Sparse rows path: the perturbed
     *  boundary weight per defect. */
    std::vector<int64_t> weights;
    std::vector<int> mate; ///< blossom output buffer

    // Sparse backend: lazy-search state plus the per-shot path cache
    // (distance/parity per defect pair and per defect-boundary pair),
    // filled once from the graph's memoized rows so instance assembly
    // and the final blossom re-queries are table reads.
    DijkstraScratch dijkstra;
    std::vector<float> pathDist;
    std::vector<uint8_t> pathPar;

    // Matrix-free matcher arena (ball growth, candidate hash, blossom
    // solver); used by the SparseBlossom backend and by burst shots the
    // Sparse backend dispatches past the blossom threshold. The rows
    // path reuses its edge list and solver for its mirror instance.
    SparseBlossomScratch blossom;

    /** Total weight of the last decode's matching, in the shared
     *  quantization (sum of llround(w * 1024) over matched pair and
     *  boundary paths). Identical across backends on every shot up to
     *  the choice among equal-weight optima — the cross-backend
     *  equivalence gates compare it directly. */
    int64_t lastWeight = 0;

    // --- Soft-deadline ladder (see util/deadline.hh). All default-off:
    // with `deadline` null every cooperative check is one pointer test
    // and decode() is bit-identical to a deadline-free build.
    /** Non-owning per-shot budget; armed by the engine, polled at
     *  coarse work boundaries inside the sparse decode paths. */
    DecodeDeadline *deadline = nullptr;
    /** Fault-injected virtual stall charged to each ladder stage at
     *  stage entry (all zero without a fault plan). */
    std::array<uint64_t, kNumDecodeStages> stallNs{};
    /** Trace of the last ladder decode (stages tried, latencies). */
    ShotLadderTrace ladder;
    /** True when the deadline expired before MWPM produced a trusted
     *  answer: the caller must fall back to the union-find floor. */
    bool timedOut = false;
};

/** MWPM decoder for one basis tag of a detector error model. */
class MwpmDecoder
{
  public:
    /**
     * @param pool optional workers for parallel table construction
     *             (Dense backend only; Sparse builds in O(edges))
     * @param backend query backend (see defaultMatchingBackend())
     */
    MwpmDecoder(const DetectorErrorModel &dem, uint8_t tag,
                ThreadPool *pool = nullptr,
                MatchingBackend backend = defaultMatchingBackend())
        : graph_(dem, tag, pool, backend)
    {
    }

    const DecodingGraph &graph() const { return graph_; }
    MatchingBackend backend() const { return graph_.backend(); }

    /** Fired-defect count at which Sparse-backend shots go to the
     *  matrix-free sparse blossom (0 = always, SIZE_MAX = never). The
     *  default is automatic: max(kDefaultBlossomDefects, nodes / 12) —
     *  see blossomThreshold() for the resolved value. The SparseBlossom
     *  backend ignores this and always uses the matcher; Dense always
     *  uses the tables. */
    void
    setBlossomThreshold(size_t k)
    {
        blossom_threshold_ = k;
        auto_threshold_ = false;
    }
    size_t
    blossomThreshold() const
    {
        return auto_threshold_
                   ? std::max(kDefaultBlossomDefects, graph_.numNodes() / 12)
                   : blossom_threshold_;
    }

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const { return graph_.memoryBytes(); }

    /**
     * Decode one shot: `fired` points at `n_fired` fired detector ids
     * (global); detectors of other tags are ignored. Thread-safe given a
     * per-thread scratch.
     *
     * When `scratch.deadline` is armed (and the backend is not Dense),
     * the shot runs the staged fallback ladder instead: sparse blossom
     * (burst shots only) → memoized-rows MWPM, each stage under the
     * soft per-stage budget. A stage that overruns is abandoned and the
     * next stage tried; if the rows stage also overruns, the partial
     * answer is returned with `scratch.timedOut` set and the caller is
     * expected to downgrade to its union-find floor.
     * `scratch.ladder` records stages tried and per-stage latencies.
     * @return predicted observable flip
     */
    bool decode(const uint32_t *fired, size_t n_fired,
                MwpmScratch &scratch) const;

  private:
    bool decodeDense(MwpmScratch &scratch) const;
    bool decodeSparse(MwpmScratch &scratch) const;
    bool decodeSparseBlossom(MwpmScratch &scratch) const;
    /** Deadline-armed path: blossom → rows with per-stage budgets. */
    bool decodeLadder(MwpmScratch &scratch) const;

    DecodingGraph graph_;
    size_t blossom_threshold_ = 0;
    bool auto_threshold_ = true;
};

} // namespace surf

#endif // SURF_DECODE_MWPM_HH
