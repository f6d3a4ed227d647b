/**
 * @file
 * Matching graph for one CSS basis: detector nodes plus a virtual
 * boundary node with edge weights w = log((1-p)/p), stored as a CSR
 * adjacency. Two query backends answer shortest-path questions:
 *
 *  - Sparse (default): no precompute. Distances and observable parities
 *    are answered by lazy, memoized Dijkstra searches from each fired
 *    defect, using caller-owned epoch-stamped scratch state (reset is
 *    O(1), steady state allocates nothing).
 *    Graph construction is O(edges), so cold decoder builds are cheap.
 *  - Dense: the historical all-pairs shortest-path tables (flat
 *    triangular distance + observable-parity arrays). O(n^2 log n)
 *    build, O(1) queries. Kept for equivalence testing and for
 *    query-heavy workloads on small graphs.
 *
 * Both backends share one Dijkstra kernel (same pop order, relaxation
 * order, epsilon and float rounding), so every quantity the sparse
 * backend reports is bit-identical to the dense tables' entry for the
 * same (source, target) pair. The kernel's frontier is a radix queue
 * (see DijkstraScratch) that pops in ascending (distance, node id), the
 * order of a binary heap of pairs; tests/dijkstra_reference.hh keeps
 * that heap as the oracle.
 */

#ifndef SURF_DECODE_GRAPH_HH
#define SURF_DECODE_GRAPH_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/dem.hh"

namespace surf {

class ThreadPool;

/** Shortest-path query backend of a decoding graph. */
enum class MatchingBackend : uint8_t
{
    Dense, ///< precomputed all-pairs tables
    /** Memoized Dijkstra rows per fired defect + an exact
     *  adjacency-list blossom on the pruned mirror instance
     *  (see mwpm.hh); burst shots past the dispatch threshold go to
     *  the matrix-free matcher instead. */
    Sparse,
    /** Matrix-free sparse blossom (see sparse_blossom.hh): per-shot
     *  bounded ball growth on the CSR adjacency + an adjacency-list
     *  blossom solve; no rows, no k x k matrix. The graph itself stores
     *  only the CSR arrays, exactly like Sparse. */
    SparseBlossom,
};

/**
 * Default backend of new graphs and decoders: Sparse rows for small
 * shots, with the decoder dispatching burst shots to the matrix-free
 * sparse blossom. The other backends are chosen explicitly.
 */
MatchingBackend defaultMatchingBackend();

/** Quantized matrix weights tie at 1/1024 granularity; the sparse
 *  blossom's radius-bounded ball growth keeps this margin so
 *  integer-tied pairs stay inside its balls. */
inline constexpr double kWeightTieMargin = 8.0 / 1024.0;

/**
 * Caller-owned state for on-demand Dijkstra queries. Arrays are
 * epoch-stamped (a generation counter marks which entries belong to the
 * current search), so resetting between searches is O(1) and a decode
 * loop performs no allocation in steady state. One scratch per thread;
 * a scratch may be shared across graphs of different sizes (arrays only
 * ever grow).
 *
 * The frontier is a monotone radix queue keyed on the IEEE-754 bits of
 * the tentative distances (for non-negative doubles the bit patterns
 * order like the values). Bucket b > 0 holds the entries whose key
 * first differs from the last popped key at bit b-1; bucket 0 holds the
 * entries whose key equals it, in ascending node id, so the queue pops
 * in the same (distance, node) order as a binary heap of pairs. Every
 * search exhausts the queue, so the buckets are empty between searches
 * and keep their capacity.
 */
struct DijkstraScratch
{
    struct Entry
    {
        uint64_t key; ///< bits of the tentative distance
        int node;
    };
    static constexpr int kBuckets = 64; ///< the sign bit never differs

    std::array<std::vector<Entry>, kBuckets> buckets;
    std::vector<double> dist;
    std::vector<uint8_t> par;
    std::vector<uint32_t> gen;
    uint32_t cur = 0;

    /** Grow the arrays to cover `n` nodes (no-op when large enough). */
    void
    bind(size_t n)
    {
        if (dist.size() < n) {
            dist.resize(n);
            par.resize(n);
            gen.resize(n, 0);
        }
    }
};

/** Decoding graph over the detectors of one basis tag. */
class DecodingGraph
{
  public:
    /**
     * @param tag 0 = X-check detectors, 1 = Z-check detectors
     * @param pool optional worker pool for the Dense backend: the
     *             all-pairs shortest-path rows are independent, so the
     *             table build parallelises cleanly (the result is
     *             identical for any worker count)
     * @param backend query backend; Sparse skips all precompute
     */
    DecodingGraph(const DetectorErrorModel &dem, uint8_t tag,
                  ThreadPool *pool = nullptr,
                  MatchingBackend backend = defaultMatchingBackend());
    ~DecodingGraph();

    DecodingGraph(const DecodingGraph &) = delete;
    DecodingGraph &operator=(const DecodingGraph &) = delete;

    size_t numNodes() const { return global_of_.size(); }
    int boundaryNode() const { return static_cast<int>(numNodes()); }
    MatchingBackend backend() const { return backend_; }
    /** The detector tag this graph was built over (snapshot identity). */
    uint8_t tag() const { return tag_; }

    /** Read-only CSR adjacency over numNodes()+1 nodes (last = the
     *  boundary), in DEM edge order — the shared relaxation order. The
     *  matrix-free matcher walks these directly. */
    const std::vector<uint32_t> &csrOffsets() const { return csr_off_; }
    const std::vector<int> &csrTargets() const { return csr_to_; }
    const std::vector<double> &csrWeights() const { return csr_w_; }
    const std::vector<uint8_t> &csrObsFlips() const { return csr_obs_; }

    /** Local node for a global detector id (-1 when not this tag). */
    int localOf(uint32_t global_det) const;

    /** Shortest-path distance between local nodes (Dense backend only;
     *  boundaryNode() ok). */
    double
    dist(int a, int b) const
    {
        return dist_[triIndex(a, b)];
    }

    /** Observable parity along one shortest path (Dense backend only). */
    bool
    obsParity(int a, int b) const
    {
        return obs_[triIndex(a, b)] != 0;
    }

    /**
     * One memoized shortest-path row (Sparse backend): distances and
     * parities from a source node to every node of the graph (infinity
     * where unreachable). Immutable once published; shared lock-free
     * across decode workers.
     */
    struct Row
    {
        std::vector<float> dist; ///< numNodes()+1 entries, inf = absent
        std::vector<uint8_t> par;
    };

    /**
     * Memoized row for `src` (Sparse backend). Rows are built lazily by
     * whichever decode worker first needs them — the scratch supplies
     * the Dijkstra state — and then shared: a decoder that lives in the
     * DeformedCodeCache answers later shots and later epochs at
     * table-lookup speed, while a shape that is decoded once only ever
     * pays for the rows its own defects touch.
     *
     * A row is one full search through the dense tables' kernel, so its
     * entries are the dense table's src-rooted values and parity
     * witnesses. (A radius cap would not save work: the boundary node
     * is traversable, so d(src, t) <= d(src, B) + d(t, B), and no cap
     * that keeps every pair able to beat the boundary excludes any node
     * of src's component.)
     *
     * Concurrent builders may race; the first publication wins, the
     * loser frees its copy, and the values are identical either way, so
     * results never depend on the winner. A published row lives until
     * the graph is destroyed, so the reference stays valid for the
     * graph's lifetime.
     */
    const Row &row(int src, DijkstraScratch &sc) const;

    /** Rows currently published (each source at most once). */
    size_t rowsResident() const
    {
        return rows_resident_.load(std::memory_order_relaxed);
    }

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const;

    /**
     * Structural digest of the CSR adjacency (offsets, targets, weight
     * bit patterns, parity flags). Two graphs built from the same DEM
     * have equal digests; the snapshot loader compares a restored
     * entry's recorded digest against the graph it rebuilds to catch
     * semantically inconsistent snapshots (a payload that passed its
     * CRC but belongs to different code) before any row is trusted.
     */
    uint64_t csrDigest() const;

    /**
     * Visit every currently published memoized row in source order
     * (Sparse backends only; no-op for Dense). Safe against concurrent
     * publication: a row seen once stays valid for the graph's
     * lifetime. Used by the snapshot writer.
     */
    void forEachResidentRow(
        const std::function<void(int src, const Row &row)> &fn) const;

    /**
     * Publish a previously memoized row into an empty slot — the
     * snapshot-restore path. Rows are pure functions of `src`, so a
     * restored row is bit-identical to what the first
     * decode worker would have built; publishing uses the same CAS
     * as row(), so restores race safely against concurrent readers and
     * builders. Rejects (returns false)
     * out-of-range sources, size-mismatched arrays and occupied slots;
     * never aborts.
     */
    bool restoreRow(int src, Row &&row) const;

  private:
    void buildApsp(ThreadPool *pool);

    /**
     * The one Dijkstra kernel both backends run — identical pop order,
     * relaxation order, tie epsilon and float rounding, which is what
     * makes sparse rows bit-compatible with the dense tables. Nodes
     * settle in ascending (distance, node id) from the scratch's radix
     * queue; each relaxes its CSR edges in order and takes a first
     * visit or an improvement by more than 1e-12. The frontier is
     * exhausted into the scratch; with `record` non-null every settled
     * node is also written into the record row. Needs finite, positive
     * weights, which the constructor asserts.
     */
    void search(int src, DijkstraScratch &sc, Row *record) const;

    /**
     * Index into the flat upper-triangular APSP storage (diagonal
     * included): row a holds entries for targets t >= a. Symmetric
     * lookups swap so (a, b) and (b, a) share one slot — shortest-path
     * distance is symmetric, and either direction's shortest path is a
     * valid witness for the observable parity.
     */
    size_t
    triIndex(int a, int b) const
    {
        auto lo = static_cast<size_t>(a < b ? a : b);
        auto hi = static_cast<size_t>(a < b ? b : a);
        const size_t n = numNodes() + 1;
        return lo * n - lo * (lo + 1) / 2 + hi;
    }

    /** Full Dijkstra for one memoized row. */
    std::unique_ptr<Row> buildRow(int src, DijkstraScratch &sc) const;

    /** CAS `fresh` into the empty slot of `src` and return it; null
     *  (and `fresh` freed) when a row is already published there. */
    const Row *publish(int src, std::unique_ptr<const Row> fresh) const;

    MatchingBackend backend_;
    uint8_t tag_ = 0;
    std::vector<uint32_t> global_of_;
    std::vector<int> local_of_;
    // CSR adjacency over numNodes()+1 nodes (last = boundary). Neighbor
    // order matches the DEM edge order, which fixes the relaxation
    // order shared by both backends.
    std::vector<uint32_t> csr_off_;
    std::vector<int> csr_to_;
    std::vector<double> csr_w_;
    std::vector<uint8_t> csr_obs_;
    // Dense backend only:
    std::vector<float> dist_;  // flat triangular, see triIndex()
    std::vector<uint8_t> obs_; // parities, same indexing; bytes so
                               // parallel row fills don't share words
                               // across rows

    // Sparse backend only: lazily built rows, each published once by a
    // CAS on its slot and owned by the graph until destruction.
    mutable std::vector<std::atomic<const Row *>> rows_;
    mutable std::atomic<size_t> rows_resident_{0};
};

} // namespace surf

#endif // SURF_DECODE_GRAPH_HH
