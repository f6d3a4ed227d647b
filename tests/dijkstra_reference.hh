/**
 * @file
 * Reference shortest-path search for the tests: the binary-heap form of
 * DecodingGraph's Dijkstra kernel, kept as an oracle for its radix
 * queue. The frontier is a std::push_heap / std::pop_heap heap of
 * (distance, node) pairs, so it pops in ascending distance and, among
 * equal distances, in ascending node id. Relaxation walks the graph's
 * CSR adjacency in order, accepts a first visit or an improvement by
 * more than 1e-12, and skips entries superseded by a closer one, exactly
 * like the kernel. A search returns the src-rooted row: float distances
 * (infinity where unreachable) and observable parities (0 there).
 */

#ifndef SURF_TESTS_DIJKSTRA_REFERENCE_HH
#define SURF_TESTS_DIJKSTRA_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "decode/graph.hh"

namespace surf::testref {

struct ReferenceRow
{
    std::vector<float> dist; ///< numNodes()+1 entries, inf = unreachable
    std::vector<uint8_t> par;
};

inline ReferenceRow
referenceSearch(const DecodingGraph &g, int src)
{
    const std::vector<uint32_t> &off = g.csrOffsets();
    const std::vector<int> &to = g.csrTargets();
    const std::vector<double> &w = g.csrWeights();
    const std::vector<uint8_t> &obs = g.csrObsFlips();
    const size_t n = g.numNodes() + 1;
    std::vector<double> dist(n);
    std::vector<uint8_t> par(n, 0);
    std::vector<bool> seen(n, false);
    ReferenceRow row;
    row.dist.assign(n, std::numeric_limits<float>::infinity());
    row.par.assign(n, 0);

    using Item = std::pair<double, int>;
    const auto by_dist = std::greater<Item>();
    std::vector<Item> heap;
    const auto s = static_cast<size_t>(src);
    dist[s] = 0.0;
    seen[s] = true;
    heap.push_back({0.0, src});
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), by_dist);
        const auto [dv, v] = heap.back();
        heap.pop_back();
        const auto vi = static_cast<size_t>(v);
        if (dv > dist[vi])
            continue; // stale entry: v already settled closer
        row.dist[vi] = static_cast<float>(dist[vi]);
        row.par[vi] = par[vi];
        for (uint32_t i = off[vi]; i < off[vi + 1]; ++i) {
            const auto t = static_cast<size_t>(to[i]);
            const double nd = dv + w[i];
            if (!seen[t] || nd < dist[t] - 1e-12) {
                seen[t] = true;
                dist[t] = nd;
                par[t] = par[vi] ^ obs[i];
                heap.push_back({nd, to[i]});
                std::push_heap(heap.begin(), heap.end(), by_dist);
            }
        }
    }
    return row;
}

} // namespace surf::testref

#endif // SURF_TESTS_DIJKSTRA_REFERENCE_HH
