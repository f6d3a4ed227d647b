#include "decode/sparse_blossom.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "decode/match_weights.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace surf {

namespace {

constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr double kInfD = std::numeric_limits<double>::infinity();

int64_t
quantize(float w)
{
    // Quantize the float-valued distance exactly like the matrix paths
    // do (their per-shot caches store float rows), so the total matched
    // weight is comparable bit-for-bit across backends.
    return quantizeMatchWeight(static_cast<double>(w));
}

/**
 * The sparse blossom solver: maximum-weight general matching on an
 * adjacency-list graph, primal-dual with alternating trees, blossom
 * contraction and expansion. The architecture follows the classic
 * multiple-tree formulation (Galil's survey; the well-known reference
 * implementation is van Rantwijk's): vertices 0..n-1, contracted
 * blossoms n..2n-1, labels S/T per top-level blossom, one shared scan
 * queue, and least-slack edge tracking for the dual updates (nothing is
 * ever stored per vertex pair):
 *
 *  - scanning an S-vertex records, for every vertex outside the trees,
 *    its least-slack edge from an S-vertex, and for every top-level
 *    S-blossom its least-slack edge to a different S-blossom; a new
 *    blossom merges its children's per-neighbour lists. A dual update
 *    reads those O(n) entries instead of scanning every edge.
 *  - allow flags hold the stage stamp that allowed the edge, so a new
 *    stage resets them by bumping the stamp.
 *
 * Weights are pre-transformed by the caller so that maximization solves
 * the minimum-weight perfect-matching instance. Called with integer
 * (internally doubled) weights, all duals and slacks stay integral.
 */
class SparseMatcher
{
  public:
    SparseMatcher(int n, SparseMatcherScratch &sc) : n_(n), sc_(sc)
    {
        const auto n2 = 2 * static_cast<size_t>(n);
        sc_.label.assign(n2, 0);
        sc_.labelEnd.assign(n2, -1);
        sc_.inBlossom.resize(static_cast<size_t>(n));
        sc_.blossomParent.assign(n2, -1);
        sc_.blossomBase.resize(n2);
        if (sc_.blossomChilds.size() < n2) {
            sc_.blossomChilds.resize(n2);
            sc_.blossomEndps.resize(n2);
            sc_.blossomBestEdges.resize(n2);
        }
        sc_.hasBestEdges.resize(n2); // both reset per stage
        sc_.bestEdge.resize(n2);
        sc_.bestEdgeTo.assign(n2, -1);
        sc_.bestSlackTo.resize(n2);
        sc_.dual.assign(n2, 0);
        sc_.unusedBlossoms.clear();
        for (int b = 2 * n - 1; b >= n; --b)
            sc_.unusedBlossoms.push_back(b);
        sc_.queue.clear();
        sc_.mate.assign(static_cast<size_t>(n), -1);
        for (int v = 0; v < n; ++v) {
            sc_.inBlossom[static_cast<size_t>(v)] = v;
            sc_.blossomBase[static_cast<size_t>(v)] = v;
        }
        for (int b = n; b < 2 * n; ++b)
            sc_.blossomBase[static_cast<size_t>(b)] = -1;
    }

    /**
     * Load the edge list and warm-start the matching; returns the offset
     * of the min->max weight transform. Two passes over the edges: the
     * first counts degrees and finds the maximum weight and each
     * vertex's minimum weight, the second writes endpoints, transformed
     * weights and the CSR incidence and pre-matches mutual-best edges.
     *
     * Transform: w' = 2 * (offset - w), with an offset large enough that
     * higher-cardinality matchings always win; doubled so every dual
     * quantity stays integral. Greedy start (Blossom-V style): each dual
     * starts at its vertex's maximum transformed incident weight (its
     * minimum original weight) — feasible under the slack convention
     * y_u + y_v >= 2 w'_uv, and tight exactly when an edge's weight is
     * both endpoints' minimum — and such tight edges are matched in edge
     * order while both ends are free.
     */
    int64_t
    load(const std::vector<SparseMatchEdge> &edges)
    {
        const size_t m = edges.size();
        auto &off = sc_.neighOff;
        auto &min_w = sc_.minWeight;
        off.assign(static_cast<size_t>(n_) + 1, 0);
        min_w.assign(static_cast<size_t>(n_),
                     std::numeric_limits<int64_t>::max());
        int64_t max_w = 1;
        for (const SparseMatchEdge &e : edges) {
            SURF_ASSERT(e.a != e.b && e.a >= 0 && e.b >= 0 && e.a < n_ &&
                            e.b < n_ && e.w >= 0,
                        "malformed sparse matching edge");
            max_w = std::max(max_w, e.w);
            ++off[static_cast<size_t>(e.a) + 1];
            ++off[static_cast<size_t>(e.b) + 1];
            min_w[static_cast<size_t>(e.a)] =
                std::min(min_w[static_cast<size_t>(e.a)], e.w);
            min_w[static_cast<size_t>(e.b)] =
                std::min(min_w[static_cast<size_t>(e.b)], e.w);
        }
        const int64_t offset = max_w * (n_ / 2 + 1) + 1;
        for (int v = 0; v < n_; ++v) {
            const auto vi = static_cast<size_t>(v);
            if (off[vi + 1] != 0)
                sc_.dual[vi] = 2 * (offset - min_w[vi]);
            off[vi + 1] += off[vi];
        }

        sc_.endpoint.resize(2 * m);
        sc_.edgeW.resize(m);
        sc_.neigh.resize(2 * m);
        if (sc_.allowEdge.size() < m)
            sc_.allowEdge.resize(m, 0);
        auto &fill = sc_.fill;
        fill.assign(off.begin(), off.end() - 1);
        for (size_t e = 0; e < m; ++e) {
            const int i = edges[e].a, j = edges[e].b;
            const int64_t w = edges[e].w;
            sc_.endpoint[2 * e] = i;
            sc_.endpoint[2 * e + 1] = j;
            sc_.edgeW[e] = 2 * (offset - w);
            // The neighbour list of i holds the *remote* endpoint index.
            const int p = 2 * static_cast<int>(e);
            sc_.neigh[fill[static_cast<size_t>(i)]++] = p + 1;
            sc_.neigh[fill[static_cast<size_t>(j)]++] = p;
            if (w == min_w[static_cast<size_t>(i)] &&
                w == min_w[static_cast<size_t>(j)] &&
                sc_.mate[static_cast<size_t>(i)] == -1 &&
                sc_.mate[static_cast<size_t>(j)] == -1) {
                sc_.mate[static_cast<size_t>(i)] = p + 1;
                sc_.mate[static_cast<size_t>(j)] = p;
            }
        }
        return offset;
    }

    /**
     * Run the solver. mate[v] afterwards holds the remote endpoint index
     * of v's matched edge (-1 = unmatched); edge index = mate[v] / 2.
     */
    void
    solve()
    {
        matchExposedGreedily();
        for (int stage = 0; stage < n_; ++stage) {
            if (++sc_.stamp == 0) {
                // Stamp wrapped: stale stamps could alias the new ones.
                std::fill(sc_.allowEdge.begin(), sc_.allowEdge.end(), 0);
                sc_.stamp = 1;
            }
            const auto n2 = 2 * static_cast<size_t>(n_);
            std::fill(sc_.label.begin(), sc_.label.begin() + n2, 0);
            std::fill(sc_.bestEdge.begin(), sc_.bestEdge.begin() + n2, -1);
            std::fill(sc_.hasBestEdges.begin(),
                      sc_.hasBestEdges.begin() + n2, 0);
            sc_.queue.clear();
            for (int v = 0; v < n_; ++v)
                if (sc_.mate[static_cast<size_t>(v)] == -1 &&
                    label(inBlossom(v)) == 0)
                    assignLabel(v, 1, -1);
            bool augmented = false;
            for (;;) {
                while (!sc_.queue.empty() && !augmented) {
                    const int v = sc_.queue.back();
                    sc_.queue.pop_back();
                    SURF_ASSERT(label(inBlossom(v)) == 1);
                    const uint32_t b0 = sc_.neighOff[static_cast<size_t>(v)];
                    const uint32_t b1 =
                        sc_.neighOff[static_cast<size_t>(v) + 1];
                    for (uint32_t pi = b0; pi < b1; ++pi) {
                        const int p = sc_.neigh[pi];
                        const int e = p >> 1;
                        const int w = sc_.endpoint[static_cast<size_t>(p)];
                        const int bv = inBlossom(v), bw = inBlossom(w);
                        if (bv == bw)
                            continue;
                        int64_t ks = 0;
                        if (!allowed(e)) {
                            ks = slack(e);
                            if (ks <= 0)
                                allow(e);
                        }
                        if (allowed(e)) {
                            if (label(bw) == 0) {
                                assignLabel(w, 2, p ^ 1);
                            } else if (label(bw) == 1) {
                                const int base = scanBlossom(v, w);
                                if (base >= 0) {
                                    addBlossom(base, e);
                                } else {
                                    augmentMatching(e);
                                    augmented = true;
                                    break;
                                }
                            } else if (label(w) == 0) {
                                SURF_ASSERT(label(bw) == 2);
                                setLabel(w, 2);
                                sc_.labelEnd[static_cast<size_t>(w)] = p ^ 1;
                            }
                        } else if (label(bw) == 1) {
                            // Least-slack edge to a different S-blossom.
                            keepLeastSlack(bv, e, ks);
                        } else if (label(w) == 0) {
                            // w is free (or unreached inside a T-blossom):
                            // least-slack edge reaching it from an S-vertex.
                            keepLeastSlack(w, e, ks);
                        }
                    }
                }
                if (augmented)
                    break;

                // Dual update: the minimum over (2) slack of S-to-free
                // edges, (3) half-slack of S-to-S edges across blossoms
                // and (4) duals of top-level T-blossoms, read from the
                // least-slack entries. No min-dual stop rule: the weights
                // are offset-transformed so maximum weight coincides
                // with maximum cardinality, and the stage simply ends
                // when no tree can grow any further (which also makes
                // the non-uniform greedy dual start valid).
                int deltatype = -1;
                int64_t delta = 0;
                int deltaedge = -1, deltablossom = -1;
                for (int v = 0; v < n_; ++v) {
                    const int e = sc_.bestEdge[static_cast<size_t>(v)];
                    if (e != -1 && label(inBlossom(v)) == 0) {
                        const int64_t d = slack(e);
                        if (deltatype == -1 || d < delta) {
                            delta = d;
                            deltatype = 2;
                            deltaedge = e;
                        }
                    }
                }
                for (int b = 0; b < 2 * n_; ++b) {
                    const int e = sc_.bestEdge[static_cast<size_t>(b)];
                    if (e != -1 &&
                        sc_.blossomParent[static_cast<size_t>(b)] == -1 &&
                        label(b) == 1) {
                        const int64_t d = slack(e) / 2;
                        if (deltatype == -1 || d < delta) {
                            delta = d;
                            deltatype = 3;
                            deltaedge = e;
                        }
                    }
                }
                for (int b = n_; b < 2 * n_; ++b) {
                    if (sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                        sc_.blossomParent[static_cast<size_t>(b)] == -1 &&
                        label(b) == 2 &&
                        (deltatype == -1 ||
                         sc_.dual[static_cast<size_t>(b)] < delta)) {
                        delta = sc_.dual[static_cast<size_t>(b)];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                if (deltatype == -1)
                    break; // no growable structure: stage is optimal

                for (int v = 0; v < n_; ++v) {
                    const int l = label(inBlossom(v));
                    if (l == 1)
                        sc_.dual[static_cast<size_t>(v)] -= delta;
                    else if (l == 2)
                        sc_.dual[static_cast<size_t>(v)] += delta;
                }
                for (int b = n_; b < 2 * n_; ++b) {
                    if (sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                        sc_.blossomParent[static_cast<size_t>(b)] == -1) {
                        if (label(b) == 1)
                            sc_.dual[static_cast<size_t>(b)] += delta;
                        else if (label(b) == 2)
                            sc_.dual[static_cast<size_t>(b)] -= delta;
                    }
                }

                if (deltatype == 2) {
                    allow(deltaedge);
                    int i = sc_.endpoint[2 * static_cast<size_t>(deltaedge)];
                    if (label(inBlossom(i)) == 0)
                        i = sc_.endpoint[2 * static_cast<size_t>(deltaedge) +
                                         1];
                    SURF_ASSERT(label(inBlossom(i)) == 1);
                    sc_.queue.push_back(i);
                } else if (deltatype == 3) {
                    allow(deltaedge);
                    const int i =
                        sc_.endpoint[2 * static_cast<size_t>(deltaedge)];
                    SURF_ASSERT(label(inBlossom(i)) == 1);
                    sc_.queue.push_back(i);
                } else {
                    expandBlossom(deltablossom, false);
                }
            }
            if (!augmented)
                break;
            // End of stage: expand S-blossoms whose dual fell to zero.
            for (int b = n_; b < 2 * n_; ++b)
                if (sc_.blossomParent[static_cast<size_t>(b)] == -1 &&
                    sc_.blossomBase[static_cast<size_t>(b)] >= 0 &&
                    label(b) == 1 && sc_.dual[static_cast<size_t>(b)] == 0)
                    expandBlossom(b, true);
        }
    }

  private:
    int n_;
    SparseMatcherScratch &sc_;

    int label(int b) const { return sc_.label[static_cast<size_t>(b)]; }
    void setLabel(int b, int8_t l) { sc_.label[static_cast<size_t>(b)] = l; }
    int inBlossom(int v) const
    {
        return sc_.inBlossom[static_cast<size_t>(v)];
    }
    bool allowed(int e) const
    {
        return sc_.allowEdge[static_cast<size_t>(e)] == sc_.stamp;
    }
    void allow(int e) { sc_.allowEdge[static_cast<size_t>(e)] = sc_.stamp; }

    /** slack of edge e under the current duals (>= 0 on unmatched
     *  tight-tree edges; 0 = tight). */
    int64_t
    slack(int e) const
    {
        const int i = sc_.endpoint[2 * static_cast<size_t>(e)];
        const int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        return sc_.dual[static_cast<size_t>(i)] +
               sc_.dual[static_cast<size_t>(j)] -
               2 * sc_.edgeW[static_cast<size_t>(e)];
    }

    /** Replace x's least-slack edge by e when e's slack `ks` is lower. */
    void
    keepLeastSlack(int x, int e, int64_t ks)
    {
        int &best = sc_.bestEdge[static_cast<size_t>(x)];
        if (best == -1 || ks < slack(best))
            best = e;
    }

    /**
     * Second, dual-adjusting greedy pass: each still-exposed vertex, in
     * ascending order, lowers its dual by its least incident slack
     * (every slack stays >= 0; vertex duals are free in sign since there
     * is no min-dual stop rule) and is matched along the edge that
     * became tight when it leads to another exposed vertex. Among
     * equal-slack edges one to an exposed vertex wins.
     */
    void
    matchExposedGreedily()
    {
        for (int v = 0; v < n_; ++v) {
            if (sc_.mate[static_cast<size_t>(v)] != -1)
                continue;
            int64_t least = 0;
            int best = -1;
            bool best_free = false;
            const uint32_t b0 = sc_.neighOff[static_cast<size_t>(v)];
            const uint32_t b1 = sc_.neighOff[static_cast<size_t>(v) + 1];
            for (uint32_t pi = b0; pi < b1; ++pi) {
                const int p = sc_.neigh[pi];
                const int64_t s = slack(p >> 1);
                const bool free =
                    sc_.mate[static_cast<size_t>(
                        sc_.endpoint[static_cast<size_t>(p)])] == -1;
                if (best == -1 || s < least ||
                    (s == least && free && !best_free)) {
                    least = s;
                    best = p;
                    best_free = free;
                }
            }
            if (best == -1)
                continue;
            sc_.dual[static_cast<size_t>(v)] -= least;
            if (best_free) {
                sc_.mate[static_cast<size_t>(v)] = best;
                sc_.mate[static_cast<size_t>(
                    sc_.endpoint[static_cast<size_t>(best)])] = best ^ 1;
            }
        }
    }

    /** Push every vertex inside blossom b onto the scan queue. */
    void
    queueLeaves(int b)
    {
        auto &stack = sc_.leafStack;
        stack.clear();
        stack.push_back(b);
        while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            if (x < n_) {
                sc_.queue.push_back(x);
            } else {
                for (int t : sc_.blossomChilds[static_cast<size_t>(x)])
                    stack.push_back(t);
            }
        }
    }

    /** Visit every vertex inside blossom b. */
    template <typename F>
    void
    forLeaves(int b, F &&f)
    {
        auto &stack = sc_.leafStack;
        stack.clear();
        stack.push_back(b);
        while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            if (x < n_) {
                f(x);
            } else {
                for (int t : sc_.blossomChilds[static_cast<size_t>(x)])
                    stack.push_back(t);
            }
        }
    }

    void
    assignLabel(int w, int8_t t, int p)
    {
        const int b = inBlossom(w);
        SURF_ASSERT(label(w) == 0 && label(b) == 0);
        setLabel(w, t);
        setLabel(b, t);
        sc_.labelEnd[static_cast<size_t>(w)] = p;
        sc_.labelEnd[static_cast<size_t>(b)] = p;
        sc_.bestEdge[static_cast<size_t>(w)] = -1;
        sc_.bestEdge[static_cast<size_t>(b)] = -1;
        if (t == 1) {
            queueLeaves(b);
        } else {
            const int base = sc_.blossomBase[static_cast<size_t>(b)];
            const int m = sc_.mate[static_cast<size_t>(base)];
            SURF_ASSERT(m >= 0);
            assignLabel(sc_.endpoint[static_cast<size_t>(m)], 1, m ^ 1);
        }
    }

    /** Trace back from v and w towards their tree roots; returns the
     *  base of the first common blossom (the LCA), or -1 when the paths
     *  reach two distinct roots (an augmenting path was found). */
    int
    scanBlossom(int v, int w)
    {
        auto &path = sc_.path;
        path.clear();
        int base = -1;
        while (v != -1 || w != -1) {
            int b = inBlossom(v);
            if (label(b) & 4) {
                base = sc_.blossomBase[static_cast<size_t>(b)];
                break;
            }
            SURF_ASSERT(label(b) == 1);
            path.push_back(b);
            setLabel(b, 5);
            SURF_ASSERT(
                sc_.labelEnd[static_cast<size_t>(b)] ==
                sc_.mate[static_cast<size_t>(
                    sc_.blossomBase[static_cast<size_t>(b)])]);
            if (sc_.labelEnd[static_cast<size_t>(b)] == -1) {
                v = -1; // reached a root
            } else {
                v = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(b)])];
                b = inBlossom(v);
                SURF_ASSERT(label(b) == 2);
                SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(b)] >= 0);
                v = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(b)])];
            }
            if (w != -1)
                std::swap(v, w);
        }
        for (int b : path)
            setLabel(b, 1);
        return base;
    }

    /** Contract the odd cycle through edge e and base vertex `base`
     *  into a new blossom (region merging). */
    void
    addBlossom(int base, int e)
    {
        int v = sc_.endpoint[2 * static_cast<size_t>(e)];
        int w = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        const int bb = inBlossom(base);
        int bv = inBlossom(v);
        int bw = inBlossom(w);
        SURF_ASSERT(!sc_.unusedBlossoms.empty());
        const int b = sc_.unusedBlossoms.back();
        sc_.unusedBlossoms.pop_back();
        sc_.blossomBase[static_cast<size_t>(b)] = base;
        sc_.blossomParent[static_cast<size_t>(b)] = -1;
        sc_.blossomParent[static_cast<size_t>(bb)] = b;
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        childs.clear();
        endps.clear();
        while (bv != bb) {
            sc_.blossomParent[static_cast<size_t>(bv)] = b;
            childs.push_back(bv);
            endps.push_back(sc_.labelEnd[static_cast<size_t>(bv)]);
            SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bv)] >= 0);
            v = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(bv)])];
            bv = inBlossom(v);
        }
        childs.push_back(bb);
        std::reverse(childs.begin(), childs.end());
        std::reverse(endps.begin(), endps.end());
        endps.push_back(2 * e);
        while (bw != bb) {
            sc_.blossomParent[static_cast<size_t>(bw)] = b;
            childs.push_back(bw);
            endps.push_back(sc_.labelEnd[static_cast<size_t>(bw)] ^ 1);
            SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bw)] >= 0);
            w = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(bw)])];
            bw = inBlossom(w);
        }
        SURF_ASSERT(label(bb) == 1);
        setLabel(b, 1);
        sc_.labelEnd[static_cast<size_t>(b)] =
            sc_.labelEnd[static_cast<size_t>(bb)];
        sc_.dual[static_cast<size_t>(b)] = 0;
        forLeaves(b, [&](int x) {
            if (label(inBlossom(x)) == 2)
                sc_.queue.push_back(x);
            sc_.inBlossom[static_cast<size_t>(x)] = b;
        });

        // Least-slack edges from b to each neighbouring S-blossom, merged
        // from the children's lists (a child without one — a vertex, or
        // a blossom formed in an earlier stage — supplies its vertices'
        // adjacency instead); b's best edge is the least of them.
        auto &to = sc_.bestEdgeTo;
        auto &to_slack = sc_.bestSlackTo;
        auto &touched = sc_.touched;
        auto consider = [&](int e, int j) {
            const int bj = inBlossom(j);
            if (bj == b || label(bj) != 1)
                return;
            const int64_t s = slack(e);
            int &best = to[static_cast<size_t>(bj)];
            if (best == -1) {
                touched.push_back(bj);
            } else if (s >= to_slack[static_cast<size_t>(bj)]) {
                return;
            }
            best = e;
            to_slack[static_cast<size_t>(bj)] = s;
        };
        for (int bv : childs) {
            const auto bvi = static_cast<size_t>(bv);
            if (sc_.hasBestEdges[bvi]) {
                for (int e : sc_.blossomBestEdges[bvi]) {
                    int j = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
                    if (inBlossom(j) == b)
                        j = sc_.endpoint[2 * static_cast<size_t>(e)];
                    consider(e, j);
                }
                sc_.hasBestEdges[bvi] = 0;
            } else {
                forLeaves(bv, [&](int x) {
                    const uint32_t b0 = sc_.neighOff[static_cast<size_t>(x)];
                    const uint32_t b1 =
                        sc_.neighOff[static_cast<size_t>(x) + 1];
                    for (uint32_t pi = b0; pi < b1; ++pi) {
                        const int p = sc_.neigh[pi];
                        consider(p >> 1,
                                 sc_.endpoint[static_cast<size_t>(p)]);
                    }
                });
            }
            sc_.bestEdge[bvi] = -1;
        }
        auto &list = sc_.blossomBestEdges[static_cast<size_t>(b)];
        list.clear();
        int best = -1;
        int64_t best_slack = 0;
        for (int bj : touched) {
            const auto bji = static_cast<size_t>(bj);
            list.push_back(to[bji]);
            if (best == -1 || to_slack[bji] < best_slack) {
                best = to[bji];
                best_slack = to_slack[bji];
            }
            to[bji] = -1;
        }
        touched.clear();
        sc_.hasBestEdges[static_cast<size_t>(b)] = 1;
        sc_.bestEdge[static_cast<size_t>(b)] = best;
    }

    /** Python-style cyclic indexing into a blossom's child list. */
    static int
    cyc(const std::vector<int> &v, int j)
    {
        const int len = static_cast<int>(v.size());
        return v[static_cast<size_t>(((j % len) + len) % len)];
    }

    /** Dissolve blossom b back into its children. Mid-stage (a T-blossom
     *  whose dual reached zero) the even alternating path from the entry
     *  child to the base keeps T/S labels; other children become free. */
    void
    expandBlossom(int b, bool endstage)
    {
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        for (int s : childs) {
            sc_.blossomParent[static_cast<size_t>(s)] = -1;
            if (s < n_) {
                sc_.inBlossom[static_cast<size_t>(s)] = s;
            } else if (endstage && sc_.dual[static_cast<size_t>(s)] == 0) {
                expandBlossom(s, endstage);
            } else {
                forLeaves(s, [&](int x) {
                    sc_.inBlossom[static_cast<size_t>(x)] = s;
                });
            }
        }
        if (!endstage && label(b) == 2) {
            const int entry_v = sc_.endpoint[static_cast<size_t>(
                sc_.labelEnd[static_cast<size_t>(b)] ^ 1)];
            const int entrychild = inBlossom(entry_v);
            int j = static_cast<int>(
                std::find(childs.begin(), childs.end(), entrychild) -
                childs.begin());
            int jstep, endptrick;
            if (j & 1) {
                j -= static_cast<int>(childs.size());
                jstep = 1;
                endptrick = 0;
            } else {
                jstep = -1;
                endptrick = 1;
            }
            int p = sc_.labelEnd[static_cast<size_t>(b)];
            while (j != 0) {
                // Relabel the T-sub-blossom.
                const int q = cyc(endps, j - endptrick) ^ endptrick;
                setLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 0);
                setLabel(sc_.endpoint[static_cast<size_t>(q ^ 1)], 0);
                assignLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 2, p);
                allow(q >> 1);
                j += jstep;
                p = cyc(endps, j - endptrick) ^ endptrick;
                allow(p >> 1);
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping through to
            // its mate (so the label chain is kept consistent).
            const int bv = cyc(childs, j);
            setLabel(sc_.endpoint[static_cast<size_t>(p ^ 1)], 2);
            setLabel(bv, 2);
            sc_.labelEnd[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p ^ 1)])] = p;
            sc_.labelEnd[static_cast<size_t>(bv)] = p;
            // Continue along the blossom until we get back to entrychild;
            // leave the remaining sub-blossoms unlabelled (any that carry
            // a vertex-level T label get properly relabelled).
            j += jstep;
            while (cyc(childs, j) != entrychild) {
                const int bx = cyc(childs, j);
                if (label(bx) == 1) {
                    j += jstep;
                    continue;
                }
                int labelled_v = -1;
                forLeaves(bx, [&](int x) {
                    if (labelled_v == -1 && label(x) != 0)
                        labelled_v = x;
                });
                if (labelled_v >= 0) {
                    SURF_ASSERT(label(labelled_v) == 2);
                    SURF_ASSERT(inBlossom(labelled_v) == bx);
                    setLabel(labelled_v, 0);
                    setLabel(sc_.endpoint[static_cast<size_t>(
                                 sc_.mate[static_cast<size_t>(
                                     sc_.blossomBase[static_cast<size_t>(
                                         bx)])])],
                             0);
                    assignLabel(labelled_v, 2,
                                sc_.labelEnd[static_cast<size_t>(
                                    labelled_v)]);
                }
                j += jstep;
            }
        }
        setLabel(b, -1);
        sc_.labelEnd[static_cast<size_t>(b)] = -1;
        sc_.blossomBase[static_cast<size_t>(b)] = -1;
        sc_.bestEdge[static_cast<size_t>(b)] = -1;
        sc_.hasBestEdges[static_cast<size_t>(b)] = 0;
        childs.clear();
        endps.clear();
        sc_.unusedBlossoms.push_back(b);
    }

    /** Swap matched/unmatched edges around blossom b so that vertex v
     *  becomes its base. */
    void
    augmentBlossom(int b, int v)
    {
        int t = v;
        while (sc_.blossomParent[static_cast<size_t>(t)] != b)
            t = sc_.blossomParent[static_cast<size_t>(t)];
        if (t >= n_)
            augmentBlossom(t, v);
        auto &childs = sc_.blossomChilds[static_cast<size_t>(b)];
        auto &endps = sc_.blossomEndps[static_cast<size_t>(b)];
        const int i = static_cast<int>(
            std::find(childs.begin(), childs.end(), t) - childs.begin());
        int j = i;
        int jstep, endptrick;
        if (i & 1) {
            j -= static_cast<int>(childs.size());
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        while (j != 0) {
            j += jstep;
            int tc = cyc(childs, j);
            const int p = cyc(endps, j - endptrick) ^ endptrick;
            if (tc >= n_)
                augmentBlossom(tc, sc_.endpoint[static_cast<size_t>(p)]);
            j += jstep;
            tc = cyc(childs, j);
            if (tc >= n_)
                augmentBlossom(tc,
                               sc_.endpoint[static_cast<size_t>(p ^ 1)]);
            sc_.mate[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p)])] = p ^ 1;
            sc_.mate[static_cast<size_t>(
                sc_.endpoint[static_cast<size_t>(p ^ 1)])] = p;
        }
        std::rotate(childs.begin(), childs.begin() + i, childs.end());
        std::rotate(endps.begin(), endps.begin() + i, endps.end());
        sc_.blossomBase[static_cast<size_t>(b)] =
            sc_.blossomBase[static_cast<size_t>(childs[0])];
        SURF_ASSERT(sc_.blossomBase[static_cast<size_t>(b)] == v);
    }

    /** Augment the matching along the path through tight edge e. */
    void
    augmentMatching(int e)
    {
        const int ev = sc_.endpoint[2 * static_cast<size_t>(e)];
        const int ew = sc_.endpoint[2 * static_cast<size_t>(e) + 1];
        for (const auto &[sv, sp] :
             {std::pair<int, int>{ev, 2 * e + 1},
              std::pair<int, int>{ew, 2 * e}}) {
            int s = sv;
            int p = sp;
            for (;;) {
                const int bs = inBlossom(s);
                SURF_ASSERT(label(bs) == 1);
                SURF_ASSERT(
                    sc_.labelEnd[static_cast<size_t>(bs)] ==
                    sc_.mate[static_cast<size_t>(
                        sc_.blossomBase[static_cast<size_t>(bs)])]);
                if (bs >= n_)
                    augmentBlossom(bs, s);
                sc_.mate[static_cast<size_t>(s)] = p;
                if (sc_.labelEnd[static_cast<size_t>(bs)] == -1)
                    break; // reached a root
                const int t = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bs)])];
                const int bt = inBlossom(t);
                SURF_ASSERT(label(bt) == 2);
                SURF_ASSERT(sc_.labelEnd[static_cast<size_t>(bt)] >= 0);
                s = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bt)])];
                const int jv = sc_.endpoint[static_cast<size_t>(
                    sc_.labelEnd[static_cast<size_t>(bt)] ^ 1)];
                SURF_ASSERT(sc_.blossomBase[static_cast<size_t>(bt)] == t);
                if (bt >= n_)
                    augmentBlossom(bt, jv);
                sc_.mate[static_cast<size_t>(jv)] =
                    sc_.labelEnd[static_cast<size_t>(bt)];
                p = sc_.labelEnd[static_cast<size_t>(bt)] ^ 1;
            }
        }
    }
};

} // namespace

bool
sparseMinWeightPerfectMatching(int n,
                               const std::vector<SparseMatchEdge> &edges,
                               SparseMatcherScratch &scratch,
                               std::vector<int> &mate, int64_t *totalWeight)
{
    mate.assign(static_cast<size_t>(n), -1);
    if (totalWeight)
        *totalWeight = 0;
    if (n == 0)
        return true;
    if (n % 2 != 0)
        return false;

    SparseMatcher matcher(n, scratch);
    scratch.lastOffset = matcher.load(edges);
    matcher.solve();

    int64_t total = 0;
    for (int v = 0; v < n; ++v) {
        const int p = scratch.mate[static_cast<size_t>(v)];
        if (p < 0) {
            mate.assign(static_cast<size_t>(n), -1);
            return false;
        }
        const int partner = scratch.endpoint[static_cast<size_t>(p)];
        mate[static_cast<size_t>(v)] = partner;
        if (partner > v)
            total += edges[static_cast<size_t>(p >> 1)].w;
    }
    if (totalWeight)
        *totalWeight = total;
    return true;
}

namespace {

/** Key of an unordered defect-slot pair in the candidate hash. */
uint64_t
pairKey(int a, int b)
{
    const auto lo = static_cast<uint64_t>(a < b ? a : b);
    const auto hi = static_cast<uint64_t>(a < b ? b : a);
    return (lo << 32 | hi) + 1; // +1 so key 0 can mark empty slots
}

uint64_t
hashKey(uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return k;
}

/** Double the candidate hash and reinsert every live entry. */
void
growCandTable(SparseBlossomScratch &sc)
{
    std::vector<SparseBlossomScratch::Cand> old;
    old.swap(sc.candTable);
    sc.candTable.assign(2 * old.size(), {});
    sc.candSlots.clear();
    const size_t mask = sc.candTable.size() - 1;
    for (const auto &c : old) {
        if (c.key == 0)
            continue;
        size_t slot = hashKey(c.key) & mask;
        while (sc.candTable[slot].key != 0)
            slot = (slot + 1) & mask;
        sc.candTable[slot] = c;
        sc.candSlots.push_back(static_cast<uint32_t>(slot));
    }
}

/** Record a candidate pair edge, keeping the best (weight, witness
 *  rank) per pair. Rank prefers the same witnesses the dense tables
 *  store: a ball landing exactly on the lower-id defect's row wins over
 *  the higher-id one, which wins over frontier-crossing candidates. */
void
addCandidate(SparseBlossomScratch &sc, int a, int b, double w, uint8_t par,
             uint8_t rank)
{
    if (4 * (sc.candSlots.size() + 1) > 3 * sc.candTable.size())
        growCandTable(sc);
    const uint64_t key = pairKey(a, b);
    const auto wf = static_cast<float>(w);
    const size_t mask = sc.candTable.size() - 1;
    size_t slot = hashKey(key) & mask;
    for (;;) {
        auto &c = sc.candTable[slot];
        if (c.key == 0) {
            c = {key, wf, par, rank};
            sc.candSlots.push_back(static_cast<uint32_t>(slot));
            return;
        }
        if (c.key == key) {
            if (wf < c.w || (wf == c.w && rank < c.rank)) {
                c.w = wf;
                c.par = par;
                c.rank = rank;
            }
            return;
        }
        slot = (slot + 1) & mask;
    }
}

const SparseBlossomScratch::Cand *
findCandidate(const SparseBlossomScratch &sc, int a, int b)
{
    const uint64_t key = pairKey(a, b);
    const size_t mask = sc.candTable.size() - 1;
    size_t slot = hashKey(key) & mask;
    for (;;) {
        const auto &c = sc.candTable[slot];
        if (c.key == 0)
            return nullptr;
        if (c.key == key)
            return &c;
        slot = (slot + 1) & mask;
    }
}

} // namespace

bool
sparseBlossomDecode(const DecodingGraph &graph,
                    const std::vector<int> &defects,
                    SparseBlossomScratch &sc, int64_t *totalWeight,
                    const DecodeDeadline *deadline, bool *timedOut)
{
    const int k = static_cast<int>(defects.size());
    if (totalWeight)
        *totalWeight = 0;
    if (timedOut)
        *timedOut = false;
    if (k == 0)
        return false;
    auto outOfTime = [&] {
        if (deadline == nullptr || !deadline->expired())
            return false;
        if (timedOut)
            *timedOut = true;
        return true;
    };
    if (outOfTime())
        return false;
    const size_t n_nodes = graph.numNodes() + 1;
    const int bnode = graph.boundaryNode();
    const auto &csr_off = graph.csrOffsets();
    const auto &csr_to = graph.csrTargets();
    const auto &csr_w = graph.csrWeights();
    const auto &csr_obs = graph.csrObsFlips();

    // --- Multi-source ball growth (discovery) -------------------------
    // One shared heap, globally increasing distance; each fired defect
    // owns a ball with a certified radius cap (ballCap). Pops beyond a
    // ball's cap are deferred, not dropped, so the search resumes
    // exactly where it stopped when a cap is raised. Ball fronts
    // colliding at shared nodes or across single CSR edges emit
    // candidate pair edges; the best per pair lives in a small hash,
    // never a k x k matrix.
    //
    // Caps: for k <= 2 a ball grows until its boundary settles (the
    // proven exact closed-form regime). For k >= 3 growth is adaptive:
    // balls start with a few settled nodes each, the sparse blossom
    // solves the discovered instance, and its dual variables certify
    // optimality — a defect's (symmetrized, min-instance) dual Y_t
    // bounds how far an undiscovered edge could still matter, so
    // Y_t <= radius(t) for every defect proves no absent pair or
    // boundary edge can improve the matching. Failing balls grow to
    // their dual bound and the loop repeats; typical bursts certify in
    // one or two rounds with balls a few edges wide, instead of growing
    // every ball out to its boundary distance.
    if (sc.coverHead.size() < n_nodes) {
        sc.coverHead.resize(n_nodes);
        sc.coverGen.resize(n_nodes, 0);
    }
    if (++sc.coverCur == 0) {
        std::fill(sc.coverGen.begin(), sc.coverGen.end(), 0);
        sc.coverCur = 1;
    }
    const uint32_t gen = sc.coverCur;
    auto headOf = [&](size_t node) -> int {
        return sc.coverGen[node] == gen ? sc.coverHead[node] : -1;
    };
    sc.coverPool.clear();
    sc.heap.clear();
    sc.deferred.clear();
    sc.ballCap.assign(static_cast<size_t>(k), kInfD);
    sc.ballSettled.assign(static_cast<size_t>(k), 0);
    sc.ballLive.assign(static_cast<size_t>(k), 1);
    sc.bDist.assign(static_cast<size_t>(k), kInfF);
    sc.bPar.assign(static_cast<size_t>(k), 0);
    // Candidate hash: wipe the slots the previous shot used (the table
    // is empty between shots), then make sure it starts large enough.
    for (uint32_t slot : sc.candSlots)
        sc.candTable[static_cast<size_t>(slot)] = {};
    sc.candSlots.clear();
    {
        size_t want = 64;
        while (want < 8 * static_cast<size_t>(k))
            want <<= 1;
        if (sc.candTable.size() < want)
            sc.candTable.assign(want, {});
    }

    const bool closed_form = k <= 2;
    /** Initial per-ball settle budget of the adaptive regime: enough to
     *  reach the immediate neighbourhood (cluster fellows), cheap when
     *  the certificate then demands more. */
    constexpr int kInitialSettles = 2;
    /** Growth rounds before forcing fully exact coverage (safety; the
     *  1.5x-or-dual-bound growth reaches any radius long before). */
    constexpr int kMaxRounds = 24;

    const auto by_dist = std::greater<SparseBlossomScratch::HeapItem>();
    // Slot lookup for landing candidates: defects are sorted ascending.
    auto slotOfNode = [&](int node) -> int {
        const auto it =
            std::lower_bound(defects.begin(), defects.end(), node);
        return (it != defects.end() && *it == node)
                   ? static_cast<int>(it - defects.begin())
                   : -1;
    };
    auto coverOf = [&](size_t node, int defect)
        -> SparseBlossomScratch::Cover * {
        for (int c = headOf(node); c >= 0;
             c = sc.coverPool[static_cast<size_t>(c)].next) {
            if (sc.coverPool[static_cast<size_t>(c)].defect == defect)
                return &sc.coverPool[static_cast<size_t>(c)];
        }
        return nullptr;
    };
    auto addCover = [&](size_t node, int defect, double dist, uint8_t par) {
        const int idx = static_cast<int>(sc.coverPool.size());
        sc.coverPool.push_back({defect, headOf(node), dist, par, 0});
        sc.coverHead[node] = idx;
        sc.coverGen[node] = gen;
    };

    for (int t = 0; t < k; ++t) {
        addCover(static_cast<size_t>(defects[static_cast<size_t>(t)]), t,
                 0.0, 0);
        sc.heap.push_back({0.0, defects[static_cast<size_t>(t)], t});
    }
    std::make_heap(sc.heap.begin(), sc.heap.end(), by_dist);

    // Settle everything within the current caps; park the rest.
    auto drain = [&] {
        while (!sc.heap.empty()) {
            std::pop_heap(sc.heap.begin(), sc.heap.end(), by_dist);
            const auto item = sc.heap.back();
            sc.heap.pop_back();
            const auto [dv, node, defect] = item;
            if (dv > sc.ballCap[static_cast<size_t>(defect)]) {
                sc.deferred.push_back(item); // resumes if the cap grows
                continue;
            }
            const auto ni = static_cast<size_t>(node);
            SparseBlossomScratch::Cover *me = coverOf(ni, defect);
            SURF_ASSERT(me != nullptr);
            if (me->settled || dv > me->dist)
                continue; // stale heap entry
            me->settled = 1;
            const double d = me->dist;
            const uint8_t par = me->par;
            const int settled = ++sc.ballSettled[static_cast<size_t>(defect)];

            if (node == bnode) {
                sc.bDist[static_cast<size_t>(defect)] =
                    static_cast<float>(d);
                sc.bPar[static_cast<size_t>(defect)] = par;
                if (closed_form)
                    sc.ballCap[static_cast<size_t>(defect)] =
                        d + kWeightTieMargin;
            } else if (!closed_form && settled >= kInitialSettles &&
                       sc.ballCap[static_cast<size_t>(defect)] == kInfD) {
                // Initial sizing: stop after the local neighbourhood;
                // the certificate loop grows whatever proves too small.
                sc.ballCap[static_cast<size_t>(defect)] = d;
            }
            // Landing on another fired defect's node: the witness is
            // the same Dijkstra the row builder would run, so distance
            // and parity are bit-identical to the table entry.
            if (const int s2 = slotOfNode(node); s2 >= 0 && s2 != defect)
                addCandidate(sc, defect, s2, d, par, defect < s2 ? 0 : 1);
            // Collisions with balls already settled at this node. Both
            // legs are settles, hence within their balls' caps, so
            // every candidate recorded here is within reach of the
            // instance-build filter (radiusOf) — which is where
            // beyond-range pairs are actually dropped.
            for (int c = headOf(ni); c >= 0;
                 c = sc.coverPool[static_cast<size_t>(c)].next) {
                const auto &o = sc.coverPool[static_cast<size_t>(c)];
                if (o.settled && o.defect != defect)
                    addCandidate(sc, defect, o.defect, d + o.dist,
                                 par ^ o.par, 2);
            }
            const uint32_t b0 = csr_off[ni], b1 = csr_off[ni + 1];
            for (uint32_t i = b0; i < b1; ++i) {
                const auto to = static_cast<size_t>(csr_to[i]);
                const double nd = d + csr_w[i];
                // Crossing collisions: my front reaches across this
                // edge into nodes other balls have settled.
                for (int c = headOf(to); c >= 0;
                     c = sc.coverPool[static_cast<size_t>(c)].next) {
                    const auto &o = sc.coverPool[static_cast<size_t>(c)];
                    if (o.settled && o.defect != defect)
                        addCandidate(sc, defect, o.defect, nd + o.dist,
                                     par ^ csr_obs[i] ^ o.par, 2);
                }
                SparseBlossomScratch::Cover *cv = coverOf(to, defect);
                if (!cv) {
                    addCover(to, defect, nd, par ^ csr_obs[i]);
                    sc.heap.push_back({nd, csr_to[i], defect});
                    std::push_heap(sc.heap.begin(), sc.heap.end(),
                                   by_dist);
                } else if (!cv->settled && nd < cv->dist - 1e-12) {
                    cv->dist = nd;
                    cv->par = par ^ csr_obs[i];
                    sc.heap.push_back({nd, csr_to[i], defect});
                    std::push_heap(sc.heap.begin(), sc.heap.end(),
                                   by_dist);
                }
            }
        }
    };
    // Resume a parked frontier after caps changed.
    auto resume = [&] {
        sc.heap.swap(sc.deferred);
        sc.deferred.clear();
        std::make_heap(sc.heap.begin(), sc.heap.end(), by_dist);
    };

    const auto bd = [&](int t) {
        return static_cast<double>(sc.bDist[static_cast<size_t>(t)]);
    };

    // --- Closed forms for the common low-weight syndromes, identical
    // decisions to the matrix paths (same float values, same compares).
    if (closed_form) {
        drain();
        if (k == 1) {
            if (totalWeight && std::isfinite(bd(0)))
                *totalWeight = quantize(sc.bDist[0]);
            return sc.bPar[0] != 0;
        }
        const SparseBlossomScratch::Cand *c01 = findCandidate(sc, 0, 1);
        const double pair_w = c01 ? static_cast<double>(c01->w) : kInfD;
        const double bdry_w = bd(0) + bd(1);
        if (pair_w <= bdry_w) {
            if (!std::isfinite(pair_w))
                return false;
            if (totalWeight)
                *totalWeight = quantize(c01->w);
            return c01->par != 0;
        }
        if (totalWeight)
            *totalWeight = quantize(sc.bDist[0]) + quantize(sc.bDist[1]);
        return (sc.bPar[0] ^ sc.bPar[1]) != 0;
    }

    // --- Adaptive growth + mirror reduction + sparse blossom ----------
    // Nodes 0..k-1 are the defects, k..2k-1 their mirrors. Pair edges
    // appear in both copies at the discovered weight; each defect joins
    // its own mirror at twice its boundary cost. A minimum perfect
    // matching restricted to the first copy is exactly an optimal
    // pair-or-boundary assignment (both copies cost the optimum, so the
    // doubled total is twice the matching weight dense blossom reports).
    bool solved = false;
    for (int round = 0; !solved; ++round) {
        // Cooperative deadline poll between growth/certificate rounds:
        // each round is a bounded chunk of work (drain to current caps +
        // one sparse matching), so an expired budget is noticed within
        // one round and the partially grown state is simply abandoned
        // (the scratch resets per shot).
        if (round > 0 && outOfTime())
            return false;
        const bool exact_round = round >= kMaxRounds;
        if (exact_round)
            // Safety net: fully exact coverage (every ball explores its
            // whole component; equivalent to the dense instance).
            std::fill(sc.ballCap.begin(), sc.ballCap.end(), kInfD);
        drain();
        // A ball is live while parked frontier remains; an exhausted
        // ball has settled its entire component, so nothing involving
        // it is undiscovered and no certificate is needed for it.
        std::fill(sc.ballLive.begin(), sc.ballLive.end(), 0);
        for (const auto &item : sc.deferred)
            sc.ballLive[static_cast<size_t>(item.defect)] = 1;
        const auto radiusOf = [&](int t) {
            return sc.ballLive[static_cast<size_t>(t)]
                       ? sc.ballCap[static_cast<size_t>(t)]
                       : kInfD;
        };

        // Build the doubled instance from provably exact candidates: a
        // stored pair weight within radius(a) + radius(b) is the true
        // shortest-path distance (the two balls jointly cover the path);
        // anything farther is dropped and left to the certificate.
        sc.edges.clear();
        for (uint32_t slot : sc.candSlots) {
            const auto &c = sc.candTable[static_cast<size_t>(slot)];
            const int a = static_cast<int>((c.key - 1) >> 32);
            const int b = static_cast<int>((c.key - 1) & 0xffffffffu);
            if (static_cast<double>(c.w) > radiusOf(a) + radiusOf(b))
                continue;
            // Perturbed weights (same node-id tie-break hash the dense
            // and rows paths build their instances with), so every backend
            // picks the same optimum even among equal-weight matchings.
            const int64_t pw = perturbedMatchWeight(
                static_cast<double>(c.w), defects[static_cast<size_t>(a)],
                defects[static_cast<size_t>(b)]);
            addMirrorPair(sc.edges, k, a, b, pw);
        }
        for (int t = 0; t < k; ++t)
            if (std::isfinite(bd(t)))
                addMirrorBoundary(
                    sc.edges, k, t,
                    perturbedMatchWeight(
                        static_cast<double>(sc.bDist[static_cast<size_t>(t)]),
                        defects[static_cast<size_t>(t)], bnode));

        const bool perfect = sparseMinWeightPerfectMatching(
            2 * k, sc.edges, sc.matcher, sc.mate, nullptr);
        if (!perfect) {
            // Not matchable yet: boundaries unreached or clusters still
            // split. Grow every ball that still has frontier; if none
            // does, the instance is final and genuinely has no perfect
            // matching (the matrix paths' all-boundary fallback).
            bool grew = false;
            for (int t = 0; t < k; ++t)
                if (sc.ballLive[static_cast<size_t>(t)]) {
                    auto &cap = sc.ballCap[static_cast<size_t>(t)];
                    cap = (cap == kInfD) ? kInfD
                                         : std::max(2.0 * cap,
                                                    cap + 8.0 / 1024.0);
                    grew = true;
                }
            if (!grew) {
                bool obs = false;
                int64_t total = 0;
                for (int t = 0; t < k; ++t) {
                    obs ^= sc.bPar[static_cast<size_t>(t)] != 0;
                    if (std::isfinite(bd(t)))
                        total += quantize(sc.bDist[static_cast<size_t>(t)]);
                }
                if (totalWeight)
                    *totalWeight = total;
                return obs;
            }
            resume();
            continue;
        }
        if (exact_round)
            break; // fully exact coverage: no certificate needed

        // Dual certificate: the absent-edge constraint y'_u + y'_v >=
        // 4*(offset - w) holds for every undiscovered pair/boundary if
        // each defect's symmetrized min-instance dual
        //   Y_t = (4*offset - y'_t - y'_{t+k}) / 8
        // stays within the ball's certified radius (one quantization
        // step of slack absorbs the rounding at the rim). Exhausted
        // balls pass vacuously.
        const int64_t offset = sc.matcher.lastOffset;
        bool all_pass = true, grew = false;
        for (int t = 0; t < k; ++t) {
            if (!sc.ballLive[static_cast<size_t>(t)])
                continue;
            const int64_t ys =
                sc.matcher.dual[static_cast<size_t>(t)] +
                sc.matcher.dual[static_cast<size_t>(k + t)];
            const int64_t y8 = 4 * offset - ys; // 8 * Y_t, perturbed scale
            const double cap = sc.ballCap[static_cast<size_t>(t)];
            const int64_t threshold = (quantizeMatchWeight(cap) - 1)
                                      << kMatchTieBits;
            if (8 * threshold >= y8)
                continue;
            all_pass = false;
            // Grow to the dual bound (plus slack), at least 1.5x.
            const double need =
                static_cast<double>(y8) /
                    (8.0 * (INT64_C(1) << kMatchTieBits) *
                     kMatchWeightScale) +
                4.0 * kWeightTieMargin;
            sc.ballCap[static_cast<size_t>(t)] =
                std::max(need, 1.5 * cap);
            grew = true;
        }
        if (all_pass || !grew)
            solved = true; // certified optimal (or nothing left to grow)
        else
            resume();
    }

    bool obs = false;
    int64_t total = 0;
    for (int t = 0; t < k; ++t) {
        const int m = sc.mate[static_cast<size_t>(t)];
        if (m == k + t) {
            obs ^= sc.bPar[static_cast<size_t>(t)] != 0;
            total += quantize(sc.bDist[static_cast<size_t>(t)]);
        } else if (m > t && m < k) {
            const SparseBlossomScratch::Cand *c = findCandidate(sc, t, m);
            SURF_ASSERT(c != nullptr);
            obs ^= c->par != 0;
            total += quantize(c->w);
        }
    }
    if (totalWeight)
        *totalWeight = total;
    return obs;
}

} // namespace surf
