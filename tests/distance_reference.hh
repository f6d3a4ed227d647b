/**
 * @file
 * Reference distance search for the tests, kept as an oracle for the
 * flat kernel in lattice/distance.cc.
 *
 * referenceAlgebraicLogical is the plain form of algebraicLogical: qubits
 * are indexed through an ordered map, and every kernel vector of the
 * commutation constraints is tested for membership in the same-type
 * group by its own full tagged elimination
 * (BitMatrix::solveCombination). The first vector outside the group is
 * the representative.
 *
 * referenceGraphDistance is the BitVec / hash-map form of graphDistance:
 * generator supports from CodePatch::stabilizerGenerators(), a
 * qubit -> generators hash map, a vector-of-vectors adjacency and a
 * std::deque BFS over the parity-doubled graph.
 */

#ifndef SURF_TESTS_DISTANCE_REFERENCE_HH
#define SURF_TESTS_DISTANCE_REFERENCE_HH

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lattice/distance.hh"
#include "lattice/patch.hh"
#include "pauli/bitmatrix.hh"

namespace surf::testref {

inline std::vector<Coord>
referenceAlgebraicLogical(const CodePatch &patch, PauliType t)
{
    const std::vector<Coord> list = patch.dataList();
    const size_t n = list.size();
    if (n == 0)
        return {};
    std::map<Coord, size_t> index;
    for (size_t i = 0; i < n; ++i)
        index[list[i]] = i;
    const auto bits = [&](const std::vector<Coord> &support) {
        BitVec v(n);
        for (const Coord &q : support)
            v.set(index.at(q), true);
        return v;
    };

    BitMatrix constraints(n), trivial(n);
    for (const auto &g : patch.stabilizerGenerators())
        (g.type == t ? trivial : constraints).addRow(bits(g.support));
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge)
            (c.type == t ? trivial : constraints).addRow(bits(c.support));

    for (const BitVec &v : constraints.kernelBasis()) {
        if (trivial.solveCombination(v).has_value())
            continue;
        std::vector<Coord> out;
        for (size_t i : v.onesPositions())
            out.push_back(list[i]);
        return out;
    }
    return {};
}

inline DistanceResult
referenceGraphDistance(const CodePatch &patch, PauliType t)
{
    DistanceResult result;
    const auto ref = referenceAlgebraicLogical(patch, oppositeType(t));
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
            const int w = node_id(other, parity ^ (edge.crossing ? 1 : 0));
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

} // namespace surf::testref

#endif // SURF_TESTS_DISTANCE_REFERENCE_HH
