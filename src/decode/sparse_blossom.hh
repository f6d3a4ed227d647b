/**
 * @file
 * Matrix-free sparse blossom matcher for burst syndromes (the
 * PyMatching-2-style backend of the MWPM decoder). Instead of building
 * one shortest-path row per fired defect, the matcher works directly on
 * the decoding graph's CSR adjacency:
 *
 *  1. Discovery: one multi-source Dijkstra grows a ball outward from
 *     every fired defect simultaneously (one shared heap, globally
 *     increasing distance; pops beyond a ball's cap are parked, so
 *     growth resumes exactly where it stopped). Ball collisions (at
 *     shared nodes and across single CSR edges) emit sparse candidate
 *     edges (weight + observable parity); the best candidate per pair
 *     is kept in a small open-addressing hash, never a k x k matrix. A
 *     pair whose distance is within the two balls' cap sum is provably
 *     discovered at its exact shortest-path value.
 *  2. Matching: an adjacency-list blossom solver (alternating-tree
 *     growth with dual variables, region merging via blossom
 *     contraction, least-slack edges per vertex and per blossom so a
 *     dual update costs O(n)) runs on the discovered defect graph. Two
 *     greedy passes warm-start it: mutual-best edges are matched
 *     outright, then each still-exposed vertex lowers its dual onto its
 *     least-slack edge and takes it when that edge leads to another
 *     exposed vertex. Boundary matching uses the mirror
 *     reduction — a second copy of the defect graph with each defect
 *     joined to its mirror at twice its boundary cost — whose minimum
 *     perfect matching restricted to the first copy is exactly an
 *     optimal pair-or-boundary assignment.
 *  3. Certification: the solve's own dual variables bound how far an
 *     undiscovered edge could still matter. Each defect whose
 *     (symmetrized, min-instance) dual exceeds its certified ball
 *     radius grows to the dual bound and the solve repeats; when every
 *     defect's dual fits inside its radius (or its ball exhausted its
 *     component), no absent pair or boundary edge can improve the
 *     matching and the result is provably optimal for the full graph.
 *     Typical bursts certify in a round or two with balls a few edges
 *     wide; a bounded-round safety net falls back to full coverage.
 *     (For k <= 2 the closed forms need exact boundary distances, so
 *     those balls simply grow until the boundary settles.)
 *
 * Total matched weight (in the shared 1/1024 quantization) is exactly
 * equal to the dense backend's blossom on the same shot, and the shared
 * tie-break perturbation (match_weights.hh) makes even the choice among
 * equal-weight optima backend-independent. Per-shot cost scales with
 * the syndrome's local neighbourhood instead of k^2/k^3, which is what
 * makes high-defect burst syndromes (cosmic-ray clusters) affordable.
 *
 * All state lives in caller-owned scratch arenas (epoch-stamped arrays,
 * pooled lists), so steady-state decoding performs no allocation.
 */

#ifndef SURF_DECODE_SPARSE_BLOSSOM_HH
#define SURF_DECODE_SPARSE_BLOSSOM_HH

#include <cstdint>
#include <vector>

#include "decode/graph.hh"

namespace surf {

/** One weighted edge of a sparse matching graph. */
struct SparseMatchEdge
{
    int a = 0;
    int b = 0;
    int64_t w = 0;
};

/**
 * Reusable arena of the sparse blossom solver: alternating-tree labels,
 * blossom structure (children / cyclic edges), least-slack edges, dual
 * variables and the scan queue. Buffers only ever grow; one arena may
 * serve graphs of any size.
 */
struct SparseMatcherScratch
{
    // Edge incidence (CSR over directed endpoints).
    std::vector<int> endpoint;   ///< endpoint[p]: vertex at endpoint p
    std::vector<int64_t> edgeW;  ///< transformed (maximization) weights
    std::vector<uint32_t> neighOff;
    std::vector<int> neigh;      ///< remote endpoint indices per vertex
    // Per-vertex / per-blossom state (2n slots: n vertices + n blossoms).
    std::vector<int8_t> label;
    std::vector<int> labelEnd;
    std::vector<int> inBlossom;
    std::vector<int> blossomParent;
    std::vector<int> blossomBase;
    std::vector<std::vector<int>> blossomChilds;
    std::vector<std::vector<int>> blossomEndps;
    /** Vertex outside the trees: least-slack edge from an S-vertex;
     *  top-level S-blossom: least-slack edge to another S-blossom. */
    std::vector<int> bestEdge;
    /** Per S-blossom: least-slack edge to each neighbouring S-blossom,
     *  valid while hasBestEdges is set. */
    std::vector<std::vector<int>> blossomBestEdges;
    std::vector<uint8_t> hasBestEdges;
    std::vector<int64_t> dual;
    /** Stage stamp that allowed each edge; an edge is allowed in the
     *  current stage iff its entry equals `stamp`. */
    std::vector<uint32_t> allowEdge;
    uint32_t stamp = 0;
    std::vector<int> unusedBlossoms;
    std::vector<int> queue;
    std::vector<int> mate; ///< remote endpoint index or -1
    /** Offset of the last min->max weight transform: dual variables
     *  relate to min-instance potentials via Y_v = (2*offset - y_v)/4,
     *  which is what the burst matcher's growth certificate reads. */
    int64_t lastOffset = 0;
    // Temporaries.
    std::vector<int> path;        ///< scanBlossom trail
    std::vector<int> leafStack;   ///< blossomLeaves traversal
    std::vector<uint32_t> fill;   ///< CSR incidence fill cursor
    std::vector<int64_t> minWeight; ///< per-vertex minimum edge weight
    std::vector<int> bestEdgeTo;  ///< addBlossom: per neighbour blossom
    std::vector<int64_t> bestSlackTo;
    std::vector<int> touched;     ///< addBlossom: neighbours seen
};

/**
 * Minimum-weight perfect matching on a sparse graph given as an edge
 * list (parallel edges allowed; the cheapest wins). Exact: total weight
 * equals the dense blossom's on the equivalent complete graph with
 * absent pairs forbidden.
 *
 * @param n vertex count
 * @param edges undirected weighted edges, weights >= 0
 * @param mate output: mate[v] partner vertex, or -1 when no perfect
 *             matching exists (mate is then all -1)
 * @param totalWeight optional: sum of matched edge weights
 * @return true iff a perfect matching exists
 */
bool sparseMinWeightPerfectMatching(int n,
                                    const std::vector<SparseMatchEdge> &edges,
                                    SparseMatcherScratch &scratch,
                                    std::vector<int> &mate,
                                    int64_t *totalWeight = nullptr);

/**
 * Emit steps of the mirror instance both Sparse-backend paths solve
 * (defects 0..k-1, mirrors k..2k-1): a defect pair enters both copies
 * at its perturbed weight `pw`, and a defect joins its own mirror at
 * twice its perturbed boundary weight `bw`. Both copies cost the
 * optimum, so the doubled total is twice the matching weight.
 */
inline void
addMirrorPair(std::vector<SparseMatchEdge> &edges, int k, int a, int b,
              int64_t pw)
{
    edges.push_back({a, b, pw});
    edges.push_back({k + a, k + b, pw});
}

inline void
addMirrorBoundary(std::vector<SparseMatchEdge> &edges, int k, int t,
                  int64_t bw)
{
    edges.push_back({t, k + t, 2 * bw});
}

/**
 * Reusable arena of the burst matcher: the multi-source Dijkstra state
 * (shared heap + per-node cover lists), the candidate-edge hash, the
 * reduced matching graph and the solver arena.
 */
struct SparseBlossomScratch
{
    // Multi-source ball growth: per node, a pooled linked list of the
    // balls covering it (defect slot, distance, parity, settled flag).
    struct Cover
    {
        int defect;
        int next;       ///< pool index or -1
        double dist;
        uint8_t par;
        uint8_t settled;
    };
    std::vector<int> coverHead;   ///< node -> pool index; epoch-stamped
    std::vector<uint32_t> coverGen;
    uint32_t coverCur = 0;
    std::vector<Cover> coverPool;
    struct HeapItem
    {
        double dist;
        int node;
        int defect;
        bool operator>(const HeapItem &o) const
        {
            if (dist != o.dist)
                return dist > o.dist;
            if (node != o.node)
                return node > o.node;
            return defect > o.defect;
        }
    };
    std::vector<HeapItem> heap;
    std::vector<HeapItem> deferred; ///< pops beyond a ball's current cap
    std::vector<double> ballCap;    ///< per defect: certified radius
    std::vector<int> ballSettled;   ///< settle count (initial sizing)
    std::vector<uint8_t> ballLive;  ///< frontier not yet exhausted

    // Per-defect boundary matching data.
    std::vector<float> bDist;
    std::vector<uint8_t> bPar;

    // Candidate defect-pair edges: open-addressing hash keyed on the
    // (lo, hi) defect-slot pair, best (weight, witness rank) kept.
    struct Cand
    {
        uint64_t key = 0; ///< 0 = empty slot
        float w = 0.0f;
        uint8_t par = 0;
        uint8_t rank = 0; ///< 0: lo ball landed on hi; 1: hi on lo;
                          ///< 2: frontier crossing
    };
    std::vector<Cand> candTable;     ///< power-of-two open addressing
    std::vector<uint32_t> candSlots; ///< used slots (reset + iteration)

    // Reduced (mirror) matching graph + solver.
    std::vector<SparseMatchEdge> edges;
    SparseMatcherScratch matcher;
    std::vector<int> mate;
};

class DecodeDeadline;

/**
 * Decode one shot with the matrix-free matcher.
 *
 * @param graph CSR decoding graph (any backend; only adjacency is used)
 * @param defects ascending local node ids of the fired defects
 * @param sc burst-matcher arena
 * @param totalWeight optional: matched weight in the shared quantization
 *        (sum of llround(w * 1024) over matched pair/boundary paths)
 * @param deadline optional soft budget (util/deadline.hh), polled at
 *        entry and between growth/certificate rounds; null = never
 * @param timedOut set when the deadline expired and the decode was
 *        abandoned (the returned prediction is then untrusted)
 * @return predicted observable flip
 */
bool sparseBlossomDecode(const DecodingGraph &graph,
                         const std::vector<int> &defects,
                         SparseBlossomScratch &sc,
                         int64_t *totalWeight = nullptr,
                         const DecodeDeadline *deadline = nullptr,
                         bool *timedOut = nullptr);

} // namespace surf

#endif // SURF_DECODE_SPARSE_BLOSSOM_HH
