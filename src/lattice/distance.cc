#include "lattice/distance.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "pauli/bitmatrix.hh"
#include "util/logging.hh"

namespace surf {

namespace {

/**
 * Dense data-qubit indexing for GF(2) work: a coordinate maps to its
 * position in the sorted live-qubit list through a grid over the data
 * bounding box (data sites are odd-odd, so the grid has half the pitch).
 */
struct QubitIndex
{
    std::vector<Coord> list;
    int x0 = 0, y0 = 0, width = 0, height = 0;
    std::vector<int> grid; ///< (y - y0) / 2 * width + (x - x0) / 2, or -1

    explicit QubitIndex(const CodePatch &patch) : list(patch.dataList())
    {
        if (list.empty())
            return;
        int x1 = list.front().x, y1 = list.front().y;
        x0 = x1;
        y0 = y1;
        for (const Coord &q : list) {
            x0 = std::min(x0, q.x);
            x1 = std::max(x1, q.x);
            y0 = std::min(y0, q.y);
            y1 = std::max(y1, q.y);
        }
        width = (x1 - x0) / 2 + 1;
        height = (y1 - y0) / 2 + 1;
        grid.assign(static_cast<size_t>(width) * static_cast<size_t>(height),
                    -1);
        for (size_t i = 0; i < list.size(); ++i)
            grid[cell(list[i])] = static_cast<int>(i);
    }

    size_t
    cell(Coord q) const
    {
        return static_cast<size_t>((q.y - y0) / 2) *
                   static_cast<size_t>(width) +
               static_cast<size_t>((q.x - x0) / 2);
    }

    BitVec
    bits(const std::vector<Coord> &support) const
    {
        BitVec v(list.size());
        for (const Coord &q : support) {
            const bool inside = q.isDataSite() && q.x >= x0 && q.y >= y0 &&
                                (q.x - x0) / 2 < width &&
                                (q.y - y0) / 2 < height;
            const int i = inside ? grid[cell(q)] : -1;
            SURF_ASSERT(i >= 0, "dead qubit in support");
            v.set(static_cast<size_t>(i), true);
        }
        return v;
    }
};

} // namespace

std::vector<Coord>
algebraicLogical(const CodePatch &patch, PauliType t)
{
    const QubitIndex qi(patch);
    const size_t n = qi.list.size();
    if (n == 0)
        return {};

    // Constraints: commute with every opposite-type generator and gauge
    // check (bare representative).
    BitMatrix constraints(n);
    for (const auto &g : patch.stabilizerGenerators())
        if (g.type == oppositeType(t))
            constraints.addRow(qi.bits(g.support));
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == oppositeType(t))
            constraints.addRow(qi.bits(c.support));

    // Trivial subgroup: same-type generators and gauge checks.
    BitMatrix trivial(n);
    for (const auto &g : patch.stabilizerGenerators())
        if (g.type == t)
            trivial.addRow(qi.bits(g.support));
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == t)
            trivial.addRow(qi.bits(c.support));

    const std::vector<BitVec> kernel = constraints.kernelBasis();
    const size_t first = trivial.firstOutsideSpan(kernel);
    if (first == kernel.size())
        return {};
    std::vector<Coord> out;
    kernel[first].forEachSetBit([&](size_t i) { out.push_back(qi.list[i]); });
    return out;
}

DistanceResult
graphDistance(const CodePatch &patch, PauliType t)
{
    DistanceResult result;
    const auto ref = algebraicLogical(patch, oppositeType(t));
    if (ref.empty())
        return result; // encoded qubit destroyed for this type
    std::unordered_set<Coord> ref_set(ref.begin(), ref.end());

    // Detecting generators (opposite type) become graph nodes; one shared
    // virtual boundary node absorbs deficient qubits.
    std::vector<StabGen> gens;
    for (auto &g : patch.stabilizerGenerators())
        if (g.type == oppositeType(t))
            gens.push_back(std::move(g));
    std::unordered_map<Coord, std::vector<int>> on_qubit;
    for (size_t g = 0; g < gens.size(); ++g)
        for (const Coord &q : gens[g].support)
            on_qubit[q].push_back(static_cast<int>(g));

    struct GraphEdge
    {
        int from;
        int to;
        bool crossing; ///< flips the reference-overlap parity
        Coord label;
    };
    const int node_b = static_cast<int>(gens.size()); // virtual boundary
    std::vector<GraphEdge> edges;
    for (const Coord &q : patch.dataQubits()) {
        auto it = on_qubit.find(q);
        const size_t deg = (it == on_qubit.end()) ? 0 : it->second.size();
        if (deg > 2) {
            // Hypergraph-like region (extreme defect density): chains
            // cannot pass through this qubit in the pair-matching
            // formalism; exclude it and report the congestion.
            ++result.congestedQubits;
            continue;
        }
        const bool crossing = ref_set.count(q) > 0;
        const int a = (deg >= 1) ? it->second[0] : node_b;
        const int b = (deg == 2) ? it->second[1] : node_b;
        if (a == b && !crossing)
            continue; // parity-neutral self-loop: never useful
        edges.push_back({a, b, crossing, q});
    }

    // BFS on the parity-doubled multigraph from (B, even) to (B, odd).
    const int n_nodes = 2 * (node_b + 1);
    auto node_id = [&](int v, int parity) { return 2 * v + parity; };
    std::vector<std::vector<int>> adj(static_cast<size_t>(n_nodes));
    for (size_t e = 0; e < edges.size(); ++e) {
        adj[static_cast<size_t>(node_id(edges[e].from, 0))].push_back(
            static_cast<int>(e));
        adj[static_cast<size_t>(node_id(edges[e].from, 1))].push_back(
            static_cast<int>(e));
        if (edges[e].from != edges[e].to) {
            adj[static_cast<size_t>(node_id(edges[e].to, 0))].push_back(
                static_cast<int>(e));
            adj[static_cast<size_t>(node_id(edges[e].to, 1))].push_back(
                static_cast<int>(e));
        }
    }
    const int start = node_id(node_b, 0);
    const int goal = node_id(node_b, 1);
    std::vector<int> dist(static_cast<size_t>(n_nodes), -1);
    std::vector<int> parent_edge(static_cast<size_t>(n_nodes), -1);
    std::deque<int> queue;
    dist[static_cast<size_t>(start)] = 0;
    queue.push_back(start);
    while (!queue.empty()) {
        const int v = queue.front();
        queue.pop_front();
        if (v == goal)
            break;
        const int base = v / 2, parity = v % 2;
        for (int e : adj[static_cast<size_t>(v)]) {
            const auto &edge = edges[static_cast<size_t>(e)];
            const int other = (edge.from == base) ? edge.to : edge.from;
            const int w =
                node_id(other, parity ^ (edge.crossing ? 1 : 0));
            if (w == v)
                continue;
            if (dist[static_cast<size_t>(w)] < 0) {
                dist[static_cast<size_t>(w)] =
                    dist[static_cast<size_t>(v)] + 1;
                parent_edge[static_cast<size_t>(w)] = e;
                queue.push_back(w);
            }
        }
    }
    if (dist[static_cast<size_t>(goal)] < 0)
        return result; // no undetectable crossing chain: destroyed
    result.distance = static_cast<size_t>(dist[static_cast<size_t>(goal)]);
    int v = goal;
    while (v != start) {
        const int e = parent_edge[static_cast<size_t>(v)];
        const auto &edge = edges[static_cast<size_t>(e)];
        result.path.push_back(edge.label);
        const int base = v / 2, parity = v % 2;
        const int prev_base = (edge.from == base) ? edge.to : edge.from;
        v = node_id(prev_base, parity ^ (edge.crossing ? 1 : 0));
    }
    std::sort(result.path.begin(), result.path.end());
    return result;
}

size_t
codeDistance(const CodePatch &patch)
{
    return std::min(graphDistance(patch, PauliType::X).distance,
                    graphDistance(patch, PauliType::Z).distance);
}

std::vector<Coord>
bareLogicalRep(const CodePatch &patch, PauliType t)
{
    return bareLogicalRep(patch, t, graphDistance(patch, t));
}

std::vector<Coord>
bareLogicalRep(const CodePatch &patch, PauliType t, const DistanceResult &res)
{
    SURF_ASSERT(res.distance > 0, "patch has no type-", typeChar(t),
                " logical operator");
    std::vector<Coord> rep = res.path;

    // Collect the opposite-type gauge checks the bare rep must commute with.
    std::vector<const Check *> opp_gauges;
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == oppositeType(t))
            opp_gauges.push_back(&c);
    if (opp_gauges.empty())
        return rep;

    auto clash_vec = [&](const std::vector<Coord> &support) {
        BitVec v(opp_gauges.size());
        for (size_t i = 0; i < opp_gauges.size(); ++i)
            if (supportsAnticommute(support, opp_gauges[i]->support))
                v.set(i, true);
        return v;
    };
    const BitVec target = clash_vec(rep);
    if (target.isZero())
        return rep;

    // Fix up with same-type generators and gauge checks (GF(2) solve).
    std::vector<std::vector<Coord>> adjusters;
    for (const auto &g : patch.stabilizerGenerators())
        if (g.type == t)
            adjusters.push_back(g.support);
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == t)
            adjusters.push_back(c.support);

    BitMatrix mat(opp_gauges.size());
    for (const auto &a : adjusters)
        mat.addRow(clash_vec(a));
    auto combo = mat.solveCombination(target);
    SURF_ASSERT(combo.has_value(), "no bare logical representative found");
    for (size_t r = 0; r < adjusters.size(); ++r)
        if (combo->get(r))
            rep = supportXor(rep, adjusters[r]);
    SURF_ASSERT(!rep.empty(), "bare logical collapsed to identity");
    return rep;
}

void
refreshLogicals(CodePatch &patch)
{
    refreshLogicals(patch, graphDistance(patch, PauliType::X),
                    graphDistance(patch, PauliType::Z));
}

void
refreshLogicals(CodePatch &patch, const DistanceResult &x,
                const DistanceResult &z)
{
    patch.setLogicalX(bareLogicalRep(patch, PauliType::X, x));
    patch.setLogicalZ(bareLogicalRep(patch, PauliType::Z, z));
}

} // namespace surf
