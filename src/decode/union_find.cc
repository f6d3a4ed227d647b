#include "decode/union_find.hh"

#include <algorithm>
#include <climits>
#include <cmath>

namespace surf {

namespace {

using Node = UfScratch::Node;

Node
cleanNode(int v)
{
    return {v, 1, v, v, -1, 0, 0, 0, 0, 0};
}

int
find(std::vector<Node> &nd, int v)
{
    while (nd[static_cast<size_t>(v)].parent != v) {
        Node &x = nd[static_cast<size_t>(v)];
        x.parent = nd[static_cast<size_t>(x.parent)].parent;
        v = x.parent;
    }
    return v;
}

bool
isActive(const Node &root)
{
    return root.parity && !root.boundary;
}

void
touchNode(UfScratch &sc, int v)
{
    Node &x = sc.node[static_cast<size_t>(v)];
    if (!x.touched) {
        x.touched = 1;
        sc.touchedNodes.push_back(v);
    }
}

/** Record edge `e` before its first modification this decode. */
void
touchEdge(UfScratch &sc, int e)
{
    const size_t i = static_cast<size_t>(e);
    if (sc.growth[i] == 0 && !sc.closed[i])
        sc.touchedEdges.push_back(e);
}

void
closeEdge(UfScratch &sc, int e)
{
    touchEdge(sc, e);
    sc.closed[static_cast<size_t>(e)] = 1;
}

void
setBit(std::vector<uint64_t> &bits, int e)
{
    bits[static_cast<size_t>(e) >> 6] |= uint64_t{1} << (e & 63);
}

/** Visit the set bits of `bits` in ascending order without clearing. */
template <class Fn>
void
forEachBit(const std::vector<uint64_t> &bits, size_t words, Fn &&fn)
{
    for (size_t w = 0; w < words; ++w)
        for (uint64_t x = bits[w]; x; x &= x - 1)
            fn(static_cast<int>(w * 64 + static_cast<size_t>(
                                             __builtin_ctzll(x))));
}

} // namespace

UnionFindDecoder::UnionFindDecoder(const DetectorErrorModel &dem, uint8_t tag)
{
    local_of_.assign(dem.numDetectors, -1);
    for (uint32_t d = 0; d < dem.numDetectors; ++d)
        if (dem.detectorTag[d] == tag)
            local_of_[d] = numNodes_++;
    const size_t n = static_cast<size_t>(numNodes_) + 1;
    incOffset_.assign(n + 1, 0);
    for (const DemEdge &e : dem.edges[tag]) {
        const int a = (e.a < 0) ? numNodes_
                                : local_of_[static_cast<size_t>(e.a)];
        const int b = (e.b < 0) ? numNodes_
                                : local_of_[static_cast<size_t>(e.b)];
        if (a == b)
            continue;
        const double p = std::clamp(e.p, 1e-14, 0.499999);
        const double w = std::log((1.0 - p) / p);
        const int units = std::max<int>(1, static_cast<int>(
                                               std::llround(4.0 * w)));
        edges_.push_back({a, b, units, e.flipsObs});
        ++incOffset_[static_cast<size_t>(a) + 1];
        ++incOffset_[static_cast<size_t>(b) + 1];
    }
    for (size_t v = 0; v < n; ++v)
        incOffset_[v + 1] += incOffset_[v];
    // Filling in edge order keeps every node's edge ids ascending.
    incEdges_.resize(2 * edges_.size());
    std::vector<int> cursor(incOffset_.begin(), incOffset_.end() - 1);
    for (size_t e = 0; e < edges_.size(); ++e) {
        incEdges_[static_cast<size_t>(
            cursor[static_cast<size_t>(edges_[e].a)]++)] = static_cast<int>(e);
        incEdges_[static_cast<size_t>(
            cursor[static_cast<size_t>(edges_[e].b)]++)] = static_cast<int>(e);
    }
}

bool
UfScratch::clean() const
{
    for (size_t v = 0; v < node.size(); ++v)
        if (!(node[v] == cleanNode(static_cast<int>(v))))
            return false;
    return std::all_of(growth.begin(), growth.end(),
                       [](int g) { return g == 0; }) &&
           std::all_of(closed.begin(), closed.end(),
                       [](uint8_t c) { return c == 0; }) &&
           std::all_of(cand.begin(), cand.end(),
                       [](uint64_t w) { return w == 0; }) &&
           touchedNodes.empty() && touchedEdges.empty() && forest.empty();
}

size_t
UnionFindDecoder::memoryBytes() const
{
    return local_of_.capacity() * sizeof(int) +
           edges_.capacity() * sizeof(Edge) +
           (incOffset_.capacity() + incEdges_.capacity()) * sizeof(int);
}

bool
UnionFindDecoder::decode(const uint32_t *fired, size_t n_fired,
                         UfScratch &sc) const
{
    // Grow the scratch (never shrink it): slots past a smaller decoder's
    // graph stay clean, so one scratch serves graphs of any size.
    const size_t n = static_cast<size_t>(numNodes_) + 1;
    for (size_t v = sc.node.size(); v < n; ++v)
        sc.node.push_back(cleanNode(static_cast<int>(v)));
    if (sc.growth.size() < edges_.size()) {
        sc.growth.resize(edges_.size(), 0);
        sc.closed.resize(edges_.size(), 0);
    }
    const size_t words = (edges_.size() + 63) / 64;
    if (sc.cand.size() < words)
        sc.cand.resize(words, 0);

    for (size_t i = 0; i < n_fired; ++i) {
        const int l = local_of_[fired[i]];
        if (l >= 0) {
            touchNode(sc, l);
            sc.node[static_cast<size_t>(l)].defect ^= 1;
        }
    }
    sc.active.clear();
    for (int v : sc.touchedNodes) {
        Node &x = sc.node[static_cast<size_t>(v)];
        if (x.defect) {
            x.parity = 1;
            sc.active.push_back(v);
        }
    }
    bool obs = false;
    if (!sc.active.empty()) {
        touchNode(sc, numNodes_);
        sc.node[static_cast<size_t>(numNodes_)].boundary = 1;
        grow(sc);
        obs = peel(sc);
    }

    for (int v : sc.touchedNodes)
        sc.node[static_cast<size_t>(v)] = cleanNode(v);
    for (int e : sc.touchedEdges) {
        sc.growth[static_cast<size_t>(e)] = 0;
        sc.closed[static_cast<size_t>(e)] = 0;
    }
    sc.touchedNodes.clear();
    sc.touchedEdges.clear();
    sc.forest.clear();
    return obs;
}

/*
 * Weighted growth, round by round: in each round every edge with an
 * active endpoint cluster grows by the number of its active endpoints, in
 * ascending edge id, and an edge that reaches its weight fuses its two
 * clusters at once (later edges of the round see the merged cluster).
 * Only the open edges of active clusters are visited: they are gathered
 * into the candidate bitset at the start of a round, and when an active
 * cluster absorbs an even one mid-round the absorbed nodes' open edges
 * past the current id join the round. Rounds in which no candidate can
 * fuse leave every cluster as it is, so a run of them is applied in one
 * step.
 */
void
UnionFindDecoder::grow(UfScratch &sc) const
{
    std::vector<Node> &nd = sc.node;
    std::vector<uint64_t> &bits = sc.cand;
    const size_t words = (edges_.size() + 63) / 64;
    const auto activeEnds = [&](int e) {
        const Edge &ed = edges_[static_cast<size_t>(e)];
        return int{isActive(nd[static_cast<size_t>(find(nd, ed.a))])} +
               int{isActive(nd[static_cast<size_t>(find(nd, ed.b))])};
    };

    // Add the open edges of root `r`'s cluster to the candidates, close
    // edges that became internal, and unlink nodes left with no open
    // edge from the cluster's boundary list (they never regain one).
    // `skip` drops to the number of whole rounds a candidate can grow
    // before it fuses.
    const auto gather = [&](int r, int &skip) {
        bool any = false;
        int prev = r, v = r;
        do {
            bool open = false;
            const size_t vi = static_cast<size_t>(v);
            for (int i = incOffset_[vi]; i < incOffset_[vi + 1]; ++i) {
                const int e = incEdges_[static_cast<size_t>(i)];
                const size_t ei = static_cast<size_t>(e);
                if (sc.closed[ei])
                    continue;
                const Edge &ed = edges_[ei];
                const int u = find(nd, ed.a + ed.b - v); // the far end
                if (u == r) {
                    closeEdge(sc, e);
                    continue;
                }
                setBit(bits, e);
                open = true;
                const int add = 1 + int{isActive(nd[static_cast<size_t>(u)])};
                skip = std::min(skip, (ed.units - sc.growth[ei] - 1) / add);
            }
            const int next = nd[vi].next;
            if (open || v == r)
                prev = v;
            else
                nd[static_cast<size_t>(prev)].next = next;
            any |= open;
            v = next;
        } while (v != r);
        return any;
    };

    // Add the open edges with id > `after` of root `x`'s cluster.
    const auto gatherAfter = [&](int x, int after) {
        int v = x;
        do {
            const size_t vi = static_cast<size_t>(v);
            for (int i = incOffset_[vi + 1]; i-- > incOffset_[vi];) {
                const int e = incEdges_[static_cast<size_t>(i)];
                if (e <= after)
                    break;
                if (!sc.closed[static_cast<size_t>(e)])
                    setBit(bits, e);
            }
            v = nd[vi].next;
        } while (v != x);
    };

    const auto unite = [&](int ra, int rb, int e) {
        Node &a = nd[static_cast<size_t>(ra)], &b = nd[static_cast<size_t>(rb)];
        // An active cluster absorbing an even one reactivates the latter.
        if ((a.parity ^ b.parity) && !(a.boundary | b.boundary))
            gatherAfter(isActive(a) ? rb : ra, e);
        touchNode(sc, ra);
        touchNode(sc, rb);
        const bool aBig = a.size >= b.size; // union by size
        Node &big = aBig ? a : b, &small = aBig ? b : a;
        small.parent = aBig ? ra : rb;
        big.size += small.size;
        big.parity ^= small.parity;
        big.boundary |= small.boundary;
        big.minNode = std::min(big.minNode, small.minNode);
        std::swap(big.next, small.next); // splice the circular lists
    };

    for (;;) {
        // Every cluster active now contains a root that was active at the
        // previous round's start: refresh that list to distinct roots.
        size_t k = 0;
        for (size_t i = 0; i < sc.active.size(); ++i) {
            const int r = find(nd, sc.active[i]);
            Node &x = nd[static_cast<size_t>(r)];
            if (x.mark || !isActive(x))
                continue;
            x.mark = 1;
            sc.active[k++] = r;
        }
        sc.active.resize(k);
        bool any = false;
        int skip = INT_MAX;
        for (int r : sc.active) {
            nd[static_cast<size_t>(r)].mark = 0;
            any |= gather(r, skip);
        }
        // No open edge on any active cluster: growth is over (an odd
        // cluster in a component without a boundary edge stops here).
        if (!any)
            return;

        // No cluster changes in the next `skip` rounds: apply them at once.
        if (skip > 0)
            forEachBit(bits, words, [&](int e) {
                touchEdge(sc, e);
                sc.growth[static_cast<size_t>(e)] += skip * activeEnds(e);
            });

        for (size_t w = 0; w < words; ++w) {
            while (bits[w]) {
                const int e = static_cast<int>(
                    w * 64 + static_cast<size_t>(__builtin_ctzll(bits[w])));
                bits[w] &= bits[w] - 1;
                const Edge &ed = edges_[static_cast<size_t>(e)];
                const int ra = find(nd, ed.a), rb = find(nd, ed.b);
                if (ra == rb) {
                    closeEdge(sc, e);
                    continue;
                }
                const int add =
                    int{isActive(nd[static_cast<size_t>(ra)])} +
                    int{isActive(nd[static_cast<size_t>(rb)])};
                if (add == 0)
                    continue;
                touchEdge(sc, e);
                int &g = sc.growth[static_cast<size_t>(e)];
                g += add;
                if (g < ed.units)
                    continue;
                sc.closed[static_cast<size_t>(e)] = 1;
                sc.forest.push_back(e);
                unite(ra, rb, e);
            }
        }
    }
}

/*
 * Peeling over the spanning forest: an edge is in the correction iff the
 * subtree hanging off it has odd defect parity. The tree holding the
 * boundary is rooted there, every other tree at its smallest node id.
 */
bool
UnionFindDecoder::peel(UfScratch &sc) const
{
    std::vector<Node> &nd = sc.node;
    const auto slot = [&](int v) {
        return static_cast<size_t>(nd[static_cast<size_t>(v)].slot);
    };
    sc.forestNodes.clear();
    for (int e : sc.forest)
        for (int v : {edges_[static_cast<size_t>(e)].a,
                      edges_[static_cast<size_t>(e)].b}) {
            Node &x = nd[static_cast<size_t>(v)];
            if (x.slot < 0) {
                x.slot = static_cast<int>(sc.forestNodes.size());
                sc.forestNodes.push_back(v);
            }
        }
    const size_t f = sc.forestNodes.size();
    if (f == 0)
        return false;

    // CSR adjacency of the forest over its node slots.
    sc.adjOff.assign(f + 1, 0);
    for (int e : sc.forest) {
        ++sc.adjOff[slot(edges_[static_cast<size_t>(e)].a) + 1];
        ++sc.adjOff[slot(edges_[static_cast<size_t>(e)].b) + 1];
    }
    for (size_t i = 0; i < f; ++i)
        sc.adjOff[i + 1] += sc.adjOff[i];
    sc.adj.resize(2 * sc.forest.size());
    sc.parentEdge.assign(sc.adjOff.begin(), sc.adjOff.end() - 1); // cursors
    for (int e : sc.forest) {
        const Edge &ed = edges_[static_cast<size_t>(e)];
        sc.adj[static_cast<size_t>(sc.parentEdge[slot(ed.a)]++)] = {e, ed.b};
        sc.adj[static_cast<size_t>(sc.parentEdge[slot(ed.b)]++)] = {e, ed.a};
    }

    // Breadth-first order from each root; parentEdge -2 = unvisited.
    sc.parentEdge.assign(f, -2);
    sc.order.clear();
    const auto bfs = [&](int root) {
        sc.parentEdge[slot(root)] = -1;
        size_t h = sc.order.size();
        sc.order.push_back(root);
        for (; h < sc.order.size(); ++h) {
            const size_t s = slot(sc.order[h]);
            for (int i = sc.adjOff[s]; i < sc.adjOff[s + 1]; ++i) {
                const auto [e, to] = sc.adj[static_cast<size_t>(i)];
                if (sc.parentEdge[slot(to)] == -2) {
                    sc.parentEdge[slot(to)] = e;
                    sc.order.push_back(to);
                }
            }
        }
    };
    if (nd[static_cast<size_t>(numNodes_)].slot >= 0)
        bfs(numNodes_);
    for (int v : sc.forestNodes)
        if (sc.parentEdge[slot(v)] == -2)
            bfs(nd[static_cast<size_t>(find(nd, v))].minNode);

    sc.sub.resize(f);
    for (size_t i = 0; i < f; ++i)
        sc.sub[i] = nd[static_cast<size_t>(sc.forestNodes[i])].defect;
    bool obs = false;
    for (size_t i = sc.order.size(); i-- > 0;) {
        const int v = sc.order[i];
        const int e = sc.parentEdge[slot(v)];
        if (e < 0 || !sc.sub[slot(v)])
            continue;
        const Edge &ed = edges_[static_cast<size_t>(e)];
        obs ^= ed.obs;
        sc.sub[slot(ed.a + ed.b - v)] ^= 1;
    }
    return obs;
}

} // namespace surf
