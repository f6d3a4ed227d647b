/**
 * @file
 * Union-Find decoder (Delfosse-Nickerson weighted cluster growth plus
 * peeling). Less accurate than MWPM but cheap on dense syndromes; used as
 * an ablation decoder, as the fast path for very high defect densities
 * and as the deadline ladder's floor.
 *
 * Growth is event driven: only the open edges of active (odd, boundary
 * free) clusters are visited, runs of rounds in which no edge can fuse
 * are applied in one step, and the scratch is reset from touched lists.
 * A decode therefore costs roughly O(cluster boundary x fusing rounds +
 * touched nodes and edges), independent of the graph size except for an
 * O(edges / 64) bitset scan per fusing round.
 */

#ifndef SURF_DECODE_UNION_FIND_HH
#define SURF_DECODE_UNION_FIND_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/dem.hh"

namespace surf {

/**
 * Reusable per-thread workspace for the union-find decoder: cluster
 * state, growth counters, the candidate-edge bitset and the peeling
 * forest keep their heap buffers between decodes. One scratch per worker
 * thread; it may be shared across decoders of different sizes (the
 * arrays only grow, and every decode restores the slots it touched, so
 * a smaller graph reuses a clean prefix). The decoder itself is
 * immutable and shareable.
 */
struct UfScratch
{
    /** Per-node union-find state. Between decodes node v holds
     *  {v, 1, v, v, -1, 0, 0, 0, 0, 0}. */
    struct Node
    {
        int parent;  ///< union-find parent (self for a root)
        int size;    ///< cluster size (roots only)
        int next;    ///< circular list of the cluster's boundary nodes
        int minNode; ///< smallest node id in the cluster (roots only)
        int slot;    ///< index into the peeling forest, -1 if none
        uint8_t defect;   ///< this node fired (odd multiplicity)
        uint8_t parity;   ///< cluster defect parity (roots only)
        uint8_t boundary; ///< cluster holds the boundary node (roots only)
        uint8_t touched;  ///< listed in touchedNodes
        uint8_t mark;     ///< transient dedup flag

        bool operator==(const Node &) const = default;
    };

    std::vector<Node> node;
    std::vector<int> growth;       ///< per-edge growth units
    std::vector<uint8_t> closed;   ///< per edge: fused or cluster-internal
    std::vector<uint64_t> cand;    ///< candidate-edge bitset (all zero idle)
    std::vector<int> touchedNodes, touchedEdges, active, forest;
    /** Peeling buffers, rebuilt each decode (no reset needed). */
    std::vector<int> forestNodes, adjOff, order, parentEdge;
    std::vector<std::pair<int, int>> adj; ///< (edge, other end) per slot
    std::vector<uint8_t> sub;

    /** True when every slot is back in its between-decodes state. */
    bool clean() const;
};

/** Union-find decoder over one basis tag of a detector error model. */
class UnionFindDecoder
{
  public:
    UnionFindDecoder(const DetectorErrorModel &dem, uint8_t tag);

    /**
     * Decode one shot from `n_fired` global detector ids; thread-safe
     * given a per-thread scratch. Always returns: an odd cluster whose
     * component has no boundary edge stops growing once it has no open
     * edge left.
     * @return predicted observable flip
     */
    bool decode(const uint32_t *fired, size_t n_fired,
                UfScratch &scratch) const;

    /** Rough heap footprint (cache accounting). */
    size_t memoryBytes() const;

  private:
    struct Edge
    {
        int a, b;      ///< node ids; boundary = numNodes_
        int units;     ///< quantized weight (growth units)
        bool obs;
    };

    void grow(UfScratch &sc) const;
    bool peel(UfScratch &sc) const;

    int numNodes_ = 0;
    std::vector<int> local_of_;
    std::vector<Edge> edges_;
    /** CSR incidence: node v's edge ids, ascending, are
     *  incEdges_[incOffset_[v] .. incOffset_[v + 1]). */
    std::vector<int> incOffset_, incEdges_;
};

} // namespace surf

#endif // SURF_DECODE_UNION_FIND_HH
