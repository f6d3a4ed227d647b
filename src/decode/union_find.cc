#include "decode/union_find.hh"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/logging.hh"

namespace surf {

namespace {

using Node = UfScratch::Node;

/** Every quantized weight is at most this (see UfScratch::kBuckets). */
constexpr int kMaxUnits = UfScratch::kBuckets - 1;

Node
cleanNode(int v)
{
    return {v, 1, v, v, 0, 0, 0, 0, 0, 0, UfScratch::kUnwalked};
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
        SURF_ASSERT(units <= kMaxUnits, "edge weight ", units, " units");
        edges_.push_back({a, b, units, e.flipsObs});
        ++incOffset_[static_cast<size_t>(a) + 1];
        ++incOffset_[static_cast<size_t>(b) + 1];
    }
    for (size_t v = 0; v < n; ++v) {
        SURF_ASSERT(v + 1 == n || incOffset_[v + 1] <= UINT16_MAX,
                    "detector with ", incOffset_[v + 1], " edges");
        incOffset_[v + 1] += incOffset_[v];
    }
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
        if (!(node[v] == cleanNode(static_cast<int>(v))) ||
            stoppedAt[v] != std::pair<int, int>{} ||
            forestLink[v] != std::pair<int, int>{})
            return false;
    return std::all_of(edge.begin(), edge.end(),
                       [](const EdgeState &e) { return e == EdgeState{}; }) &&
           std::all_of(bucket.begin(), bucket.end(),
                       [](const std::vector<int> &b) { return b.empty(); }) &&
           now.empty() && touchedNodes.empty() && touchedEdges.empty() &&
           forest.empty() && leaves.empty();
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
    if (sc.stoppedAt.size() < n) {
        sc.stoppedAt.resize(n);
        sc.forestLink.resize(n);
    }
    if (sc.edge.size() < edges_.size())
        sc.edge.resize(edges_.size(), UfScratch::EdgeState{});

    for (size_t i = 0; i < n_fired; ++i) {
        const int l = local_of_[fired[i]];
        if (l >= 0) {
            touchNode(sc, l);
            sc.node[static_cast<size_t>(l)].defect ^= 1;
        }
    }
    bool any = false;
    for (int v : sc.touchedNodes) {
        Node &x = sc.node[static_cast<size_t>(v)];
        x.parity = x.defect;
        any |= x.defect;
    }
    bool obs = false;
    if (any) {
        touchNode(sc, numNodes_);
        sc.node[static_cast<size_t>(numNodes_)].boundary = 1;
        grow(sc);
        obs = peel(sc);
    }

    for (int v : sc.touchedNodes) {
        sc.node[static_cast<size_t>(v)] = cleanNode(v);
        sc.stoppedAt[static_cast<size_t>(v)] = {};
    }
    for (int e : sc.touchedEdges)
        sc.edge[static_cast<size_t>(e)] = UfScratch::EdgeState{};
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
 *
 * Between unions an open edge grows at a constant rate, so it carries
 * (growth, settled round, rate) and one fuse event, (due round, id), in
 * the bucket of its due round; events run in ascending (round, id),
 * which is the order above. A union at event (round, pos) flips the
 * activity of one or both merged clusters and re-rates the open edges of
 * the flipped ones: an edge with id < pos already grew this round at its
 * old rate, one with id > pos grows this round at its new rate. A
 * re-rated edge whose due round moves leaves a stale entry behind, which
 * is dropped when popped; edges found cluster-internal close. Growth ends
 * when the queue is empty (an odd cluster in a component without a
 * boundary edge stops once it has no open edge left).
 *
 * Most defects pair up and go inactive long before their edges to
 * non-defect nodes could fuse, so those edges get no state or event of
 * their own until a walk re-rates them (UfScratch::Phase): the defect
 * queues one wake-up at the smallest weight among them, and when its
 * cluster first goes inactive it only records the event (kStopped).
 */
void
UnionFindDecoder::grow(UfScratch &sc) const
{
    std::vector<Node> &nd = sc.node;
    std::vector<int> &now = sc.now;
    int round = 0;           // round of the event being processed
    int pos = INT_MAX;       // its edge id (round 0 is over)
    size_t next = 0;         // next entry of `now`
    size_t pending = 0;      // bucket entries, stale ones included

    const auto push = [&](int entry, int due) {
        sc.bucket[static_cast<size_t>(due) % UfScratch::kBuckets].push_back(
            entry);
        ++pending;
    };
    // The last round of edge `e`'s growth before event (t, p).
    const auto lastRound = [](int e, int t, int p) {
        return e < p ? t : t - 1;
    };
    // Growth up to round `at` of edge `e` while no walk re-rated it: one
    // unit per round from its defect end `d` (if any) until d stopped.
    const auto unwalkedGrowth = [&](int e, int d, int at) {
        if (d < 0)
            return 0;
        if (nd[static_cast<size_t>(d)].phase == UfScratch::kStopped) {
            const auto [t, p] = sc.stoppedAt[static_cast<size_t>(d)];
            at = std::min(at, lastRound(e, t, p));
        }
        return at;
    };
    // Edge `e`'s state, listed for the reset before its first change; a
    // defect end counts it (open) among its rated edges.
    const auto touchEdge = [&](int e) -> UfScratch::EdgeState & {
        UfScratch::EdgeState &s = sc.edge[static_cast<size_t>(e)];
        if (!s.touched) {
            s.touched = 1;
            sc.touchedEdges.push_back(e);
            const Edge &ed = edges_[static_cast<size_t>(e)];
            for (int v : {ed.a, ed.b}) {
                Node &x = nd[static_cast<size_t>(v)];
                if (x.defect) {
                    ++x.ratedEdges;
                    ++x.ratedOpen;
                }
            }
        }
        return s;
    };
    const auto close = [&](int e, UfScratch::EdgeState &s) {
        s.closed = 1;
        const Edge &ed = edges_[static_cast<size_t>(e)];
        for (int v : {ed.a, ed.b}) {
            Node &x = nd[static_cast<size_t>(v)];
            if (x.defect)
                --x.ratedOpen;
        }
    };
    const auto defectEnd = [&](const Edge &ed) {
        return nd[static_cast<size_t>(ed.a)].defect   ? ed.a
               : nd[static_cast<size_t>(ed.b)].defect ? ed.b
                                                       : -1;
    };

    // Queue the unwalked edges of still-active unwalked defect `v` whose
    // weight is this round, and v's next wake-up.
    const auto wake = [&](int v) {
        const size_t vi = static_cast<size_t>(v);
        if (nd[vi].phase != UfScratch::kUnwalked)
            return; // stopped or walked: no unwalked edge grows from v
        int soonest = INT_MAX;
        for (int i = incOffset_[vi]; i < incOffset_[vi + 1]; ++i) {
            const int e = incEdges_[static_cast<size_t>(i)];
            if (sc.edge[static_cast<size_t>(e)].touched)
                continue;
            const int units = edges_[static_cast<size_t>(e)].units;
            if (units == round)
                now.push_back(e);
            else if (units > round)
                soonest = std::min(soonest, units);
        }
        if (soonest != INT_MAX)
            push(~v, soonest);
    };

    // Re-rate open edge `e`, met from node `v` of the cluster of root
    // `r` (active if `self`), after the activity of that cluster
    // changed. False if `e` turned out cluster-internal (it is closed).
    const auto rerate = [&](int e, int v, int r, int self) {
        const Edge &ed = edges_[static_cast<size_t>(e)];
        const int u = find(nd, ed.a + ed.b - v); // the far end's root
        const int at = lastRound(e, round, pos);
        UfScratch::EdgeState &s = sc.edge[static_cast<size_t>(e)];
        if (!s.touched) {
            s.growth =
                static_cast<uint8_t>(unwalkedGrowth(e, defectEnd(ed), at));
            s.settled = at;
            touchEdge(e);
        }
        if (u == r) {
            close(e, s);
            return false;
        }
        const int rate = self + int{isActive(nd[static_cast<size_t>(u)])};
        // Settle the growth at the old rate up to the last round it
        // applied to, then schedule the fuse at the new rate.
        s.growth =
            static_cast<uint8_t>(s.growth + s.rate * (at - s.settled));
        s.settled = at;
        s.rate = static_cast<uint8_t>(rate);
        if (rate == 0) {
            s.due = 0;
            return true;
        }
        // Rounds to go at the new rate; `left` > 0 as the edge is open.
        const int left = ed.units - s.growth;
        const int due = at + (rate == 1 ? left : (left + 1) / 2);
        if (due == s.due)
            return true;
        s.due = due;
        if (due == round) // later in the current round: keep it sorted
            now.insert(std::upper_bound(now.begin() + static_cast<long>(next),
                                        now.end(), e),
                       e);
        else
            push(e, due);
        return true;
    };

    // Re-rate the open edges of the circular list starting at `start`
    // (a cluster merged into root `r`), unlinking nodes left with no open
    // edge (they never regain one). An unwalked defect whose cluster goes
    // inactive only stops: its unwalked edges keep their implicit growth,
    // and with no rated edge open it has nothing to scan (only defects
    // are ever unwalked in a cluster that was active).
    const auto walk = [&](int start, int r) {
        const int self = isActive(nd[static_cast<size_t>(r)]);
        int prev = start, v = start;
        do {
            bool open = false;
            const size_t vi = static_cast<size_t>(v);
            const bool stop =
                !self && nd[vi].phase == UfScratch::kUnwalked;
            const int begin = incOffset_[vi], end = incOffset_[vi + 1];
            if (stop && nd[vi].ratedOpen == 0) {
                open = nd[vi].ratedEdges < end - begin; // an unwalked one
            } else {
                for (int i = begin; i < end; ++i) {
                    const int e = incEdges_[static_cast<size_t>(i)];
                    const UfScratch::EdgeState &s =
                        sc.edge[static_cast<size_t>(e)];
                    if (s.closed)
                        continue;
                    if (stop && !s.touched)
                        open = true;
                    else
                        open |= rerate(e, v, r, self);
                }
            }
            // Set after the loop: re-rating reads v's stop event.
            if (stop)
                sc.stoppedAt[vi] = {round, pos};
            nd[vi].phase = stop ? UfScratch::kStopped : UfScratch::kWalked;
            const int nx = nd[vi].next;
            if (open || v == start)
                prev = v;
            else
                nd[static_cast<size_t>(prev)].next = nx;
            v = nx;
        } while (v != start);
    };

    const auto unite = [&](int ra, int rb) {
        Node &a = nd[static_cast<size_t>(ra)], &b = nd[static_cast<size_t>(rb)];
        const bool wasA = isActive(a), wasB = isActive(b);
        touchNode(sc, ra);
        touchNode(sc, rb);
        const bool aBig = a.size >= b.size; // union by size
        const int root = aBig ? ra : rb;
        Node &big = aBig ? a : b, &small = aBig ? b : a;
        small.parent = root;
        big.size += small.size;
        big.parity ^= small.parity;
        big.boundary |= small.boundary;
        big.minNode = std::min(big.minNode, small.minNode);
        const bool active = isActive(big);
        if (wasA != active)
            walk(ra, root);
        if (wasB != active)
            walk(rb, root);
        std::swap(big.next, small.next); // splice the circular lists
    };

    // Round 0: every defect is an active singleton cluster. An edge
    // joining two defects gets its state and event now (it is met from
    // both ends); the others wait for their defect's wake-up.
    for (int v : sc.touchedNodes) {
        const size_t vi = static_cast<size_t>(v);
        if (!nd[vi].defect)
            continue;
        int soonest = INT_MAX;
        for (int i = incOffset_[vi]; i < incOffset_[vi + 1]; ++i) {
            const int e = incEdges_[static_cast<size_t>(i)];
            const Edge &ed = edges_[static_cast<size_t>(e)];
            if (!nd[static_cast<size_t>(ed.a + ed.b - v)].defect) {
                soonest = std::min(soonest, ed.units);
                continue;
            }
            UfScratch::EdgeState &s = touchEdge(e);
            if (s.rate == 2)
                continue;
            s.rate = 2;
            s.due = (ed.units + 1) / 2;
            push(e, s.due);
        }
        if (soonest != INT_MAX)
            push(~v, soonest);
    }

    while (pending > 0) {
        ++round;
        std::vector<int> &b =
            sc.bucket[static_cast<size_t>(round) % UfScratch::kBuckets];
        pending -= b.size();
        // Most entries went stale when their clusters paired up: drop
        // them before sorting the round into edge-id order.
        for (int x : b) {
            if (x < 0) {
                wake(~x);
                continue;
            }
            const UfScratch::EdgeState &s = sc.edge[static_cast<size_t>(x)];
            if (!s.closed && s.due == round)
                now.push_back(x);
        }
        b.clear();
        std::sort(now.begin(), now.end());
        for (next = 0; next < now.size();) {
            const int e = now[next++];
            UfScratch::EdgeState &s = sc.edge[static_cast<size_t>(e)];
            const Edge &ed = edges_[static_cast<size_t>(e)];
            // A re-rated edge is due if its event is current; an unwalked
            // one (queued by a wake-up) if its defect end is still active.
            if (s.touched ? s.closed || s.due != round
                          : nd[static_cast<size_t>(defectEnd(ed))].phase !=
                                UfScratch::kUnwalked)
                continue;
            close(e, touchEdge(e));
            const int ra = find(nd, ed.a), rb = find(nd, ed.b);
            if (ra == rb)
                continue;
            pos = e;
            sc.forest.push_back(e);
            unite(ra, rb);
        }
        now.clear();
    }
}

/*
 * Peeling over the spanning forest: an edge is in the correction iff the
 * subtree hanging off it has odd defect parity. The tree holding the
 * boundary is rooted there, every other tree at its smallest node id.
 * Leaves are peeled off until only the roots remain: a node's last
 * unpeeled edge is the XOR of its forest edge ids, and its `defect` bit
 * has by then accumulated its peeled subtree's parity.
 */
bool
UnionFindDecoder::peel(UfScratch &sc) const
{
    std::vector<Node> &nd = sc.node;
    std::vector<std::pair<int, int>> &link = sc.forestLink;
    for (int e : sc.forest)
        for (int v : {edges_[static_cast<size_t>(e)].a,
                      edges_[static_cast<size_t>(e)].b}) {
            auto &[deg, ids] = link[static_cast<size_t>(v)];
            ++deg;
            ids ^= e;
        }
    const auto isRoot = [&](int v) {
        const Node &r = nd[static_cast<size_t>(find(nd, v))];
        return v == (r.boundary ? numNodes_ : r.minNode);
    };
    for (int e : sc.forest)
        for (int v : {edges_[static_cast<size_t>(e)].a,
                      edges_[static_cast<size_t>(e)].b})
            if (link[static_cast<size_t>(v)].first == 1 && !isRoot(v))
                sc.leaves.push_back(v);
    bool obs = false;
    while (!sc.leaves.empty()) {
        const int v = sc.leaves.back();
        sc.leaves.pop_back();
        const int e = link[static_cast<size_t>(v)].second;
        link[static_cast<size_t>(v)] = {};
        const Edge &ed = edges_[static_cast<size_t>(e)];
        const int u = ed.a + ed.b - v;
        if (nd[static_cast<size_t>(v)].defect) {
            obs ^= ed.obs;
            nd[static_cast<size_t>(u)].defect ^= 1;
        }
        auto &[deg, ids] = link[static_cast<size_t>(u)];
        ids ^= e;
        if (--deg == 1 && !isRoot(u))
            sc.leaves.push_back(u);
    }
    return obs;
}

} // namespace surf
