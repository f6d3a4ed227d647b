/**
 * @file
 * Union-Find decoder (Delfosse-Nickerson weighted cluster growth plus
 * peeling). Less accurate than MWPM but cheap on dense syndromes; used as
 * an ablation decoder, as the fast path for very high defect densities
 * and as the deadline ladder's floor.
 *
 * Growth is event driven. Every open edge with an active (odd, boundary
 * free) endpoint cluster grows at a constant rate between unions, so its
 * fuse round is known in advance and sits in a bucket queue of rounds;
 * a union re-rates only the open edges of the clusters whose activity it
 * flips, found on their boundary lists, and the scratch is reset from
 * touched lists. A defect's edges to non-defect nodes carry no state
 * until a walk re-rates them, and a defect whose cluster goes inactive
 * first only records when (UfScratch::Phase); with none of its stateful
 * edges open it does not even scan its edges. Peeling strips leaves off
 * the spanning forest, each node holding its forest degree and the XOR
 * of its forest edge ids. A decode therefore costs roughly O(edges of
 * the defects + boundary edges of the flipped clusters per union +
 * queued events + a sort of each round's live events by id + forest
 * edges), with no per-round pass over the active clusters and no work
 * proportional to the graph size. At d=13, p=5e-3 (decoder basis, ~87
 * defects) a decode reads ~920 defect edges at the start, walks ~1440
 * edges in ~120 walks (~345 of them at defects that only stop, which
 * scanned ~920 before they counted their open edges), re-rates ~890,
 * queues ~620 events of which ~90 are live, and unites and peels ~78
 * forest edges.
 */

#ifndef SURF_DECODE_UNION_FIND_HH
#define SURF_DECODE_UNION_FIND_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/dem.hh"

namespace surf {

/**
 * Reusable per-thread workspace for the union-find decoder: cluster
 * state, per-edge growth, the event queue and the peeling forest keep
 * their heap buffers between decodes. One scratch per worker thread; it
 * may be shared across decoders of different sizes (the arrays only
 * grow, and every decode restores the slots it touched, so a smaller
 * graph reuses a clean prefix). The decoder itself is immutable and
 * shareable.
 */
struct UfScratch
{
    /** An edge weighs at most 129 growth units (p is clamped to
     *  >= 1e-14) and fuses within that many rounds of its last re-rating,
     *  so the fuse rounds queued at any time span fewer than 130 rounds:
     *  one bucket per round, used circularly. */
    static constexpr int kBuckets = 130;

    /** Node::phase values. An edge from a defect to a non-defect node
     *  carries no EdgeState until a walk re-rates it: it grows one unit
     *  per round from round 0 until the defect's cluster first goes
     *  inactive. */
    enum Phase : uint8_t
    {
        kUnwalked = 0, ///< never walked (a defect: active since round 0)
        kStopped = 1,  ///< an unwalked defect whose cluster went inactive
                       ///< at stoppedAt[v]
        kWalked = 2,   ///< walked: its open edges carry an EdgeState
    };

    /** Per-node union-find state. Between decodes node v holds
     *  {v, 1, v, v, 0, 0, 0, 0, 0, 0, kUnwalked}. */
    struct Node
    {
        int parent;  ///< union-find parent (self for a root)
        int size;    ///< cluster size (roots only)
        int next;    ///< circular list of the cluster's boundary nodes
        int minNode; ///< smallest node id in the cluster (roots only)
        /** Defects only: incident edges carrying an EdgeState, and those
         *  of them still open (a stopping defect with none open skips
         *  its edge scan). A detector has far fewer than 2^16 edges. */
        uint16_t ratedEdges, ratedOpen;
        uint8_t defect;   ///< this node fired (odd multiplicity); while
                          ///< peeling, the parity of its peeled subtree
        uint8_t parity;   ///< cluster defect parity (roots only)
        uint8_t boundary; ///< cluster holds the boundary node (roots only)
        uint8_t touched;  ///< listed in touchedNodes
        uint8_t phase;    ///< a Phase

        bool operator==(const Node &) const = default;
    };

    /** Per-edge growth state; all zero between decodes and for the
     *  defect edges that need none yet (see Phase). */
    struct EdgeState
    {
        int settled;  ///< last round accounted for in `growth`
        int due;      ///< round of the pending fuse event, 0 if none
        uint8_t growth;  ///< growth units up to and including `settled`
                         ///< (below the edge's weight while it is open)
        uint8_t rate;    ///< active endpoint clusters: growth per round
        uint8_t closed;  ///< fused or cluster-internal
        uint8_t touched; ///< listed in touchedEdges

        bool operator==(const EdgeState &) const = default;
    };

    std::vector<Node> node;
    /** Per node: the event (round, edge id) at which a kStopped node's
     *  cluster went inactive; {0, 0} otherwise. */
    std::vector<std::pair<int, int>> stoppedAt;
    std::vector<EdgeState> edge;
    /** Per node, while peeling: its forest edges not yet peeled and the
     *  XOR of their ids (a leaf's last edge). Peeling returns every slot
     *  to {0, 0}. */
    std::vector<std::pair<int, int>> forestLink;
    /** Fuse events: bucket r % kBuckets holds the edge ids due in round
     *  r (stale entries included; they are dropped when popped) and, as
     *  ~v, the wake-ups of unwalked defects v. */
    std::array<std::vector<int>, kBuckets> bucket;
    /** The current round's events, in ascending edge id. */
    std::vector<int> now;
    std::vector<int> touchedNodes, touchedEdges, forest;
    /** Peeling worklist: forest leaves not yet peeled. */
    std::vector<int> leaves;

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
