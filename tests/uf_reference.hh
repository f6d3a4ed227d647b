/**
 * @file
 * Reference union-find decoder for the tests: the plain full-scan form of
 * UnionFindDecoder's growth, kept as an oracle. Every growth round scans
 * every edge in ascending id and grows each one by the number of its
 * active endpoint clusters; an edge reaching its weight unites its
 * clusters at once. Peeling roots the boundary's tree at the boundary
 * and every other tree at its smallest node id. All state is cleared per
 * decode, so there is nothing to get wrong across shots.
 *
 * The only departure from the literal algorithm is termination: growth
 * also stops after a round in which no edge grew, which happens only when
 * an odd cluster's component has no boundary edge (the literal loop never
 * ends there).
 */

#ifndef SURF_TESTS_UF_REFERENCE_HH
#define SURF_TESTS_UF_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/dem.hh"

namespace surf::testref {

class ReferenceUnionFind
{
  public:
    ReferenceUnionFind(const DetectorErrorModel &dem, uint8_t tag)
    {
        local_of_.assign(dem.numDetectors, -1);
        for (uint32_t d = 0; d < dem.numDetectors; ++d)
            if (dem.detectorTag[d] == tag)
                local_of_[d] = numNodes_++;
        for (const DemEdge &e : dem.edges[tag]) {
            const int a = (e.a < 0) ? numNodes_
                                    : local_of_[static_cast<size_t>(e.a)];
            const int b = (e.b < 0) ? numNodes_
                                    : local_of_[static_cast<size_t>(e.b)];
            if (a == b)
                continue;
            const double p = std::clamp(e.p, 1e-14, 0.499999);
            const double w = std::log((1.0 - p) / p);
            const int units = std::max<int>(
                1, static_cast<int>(std::llround(4.0 * w)));
            edges_.push_back({a, b, units, e.flipsObs});
        }
    }

    bool decode(const uint32_t *fired, size_t n_fired) const
    {
        const int nb = numNodes_;
        const size_t n = static_cast<size_t>(numNodes_) + 1;
        std::vector<uint8_t> defect(n, 0);
        int n_defects = 0;
        for (size_t i = 0; i < n_fired; ++i) {
            const int l = local_of_[fired[i]];
            if (l >= 0) {
                defect[static_cast<size_t>(l)] ^= 1;
                ++n_defects;
            }
        }
        if (n_defects == 0)
            return false;

        std::vector<int> parent(n), growth(edges_.size(), 0), forest;
        std::iota(parent.begin(), parent.end(), 0);
        std::vector<uint8_t> parity(defect), has_boundary(n, 0),
            fused(edges_.size(), 0);
        has_boundary[static_cast<size_t>(nb)] = 1;
        const auto find = [&parent](int v) {
            while (parent[static_cast<size_t>(v)] != v) {
                parent[static_cast<size_t>(v)] = parent[static_cast<size_t>(
                    parent[static_cast<size_t>(v)])];
                v = parent[static_cast<size_t>(v)];
            }
            return v;
        };
        const auto active = [&](int root) {
            return parity[static_cast<size_t>(root)] &&
                   !has_boundary[static_cast<size_t>(root)];
        };

        bool any_active = true;
        while (any_active) {
            any_active = false;
            bool grew = false;
            for (size_t e = 0; e < edges_.size(); ++e) {
                if (fused[e])
                    continue;
                const int ra = find(edges_[e].a), rb = find(edges_[e].b);
                if (ra == rb) {
                    fused[e] = 1;
                    continue;
                }
                const int add = int{active(ra)} + int{active(rb)};
                if (add == 0)
                    continue;
                grew = true;
                growth[e] += add;
                if (growth[e] >= edges_[e].units) {
                    fused[e] = 1;
                    forest.push_back(static_cast<int>(e));
                    parent[static_cast<size_t>(rb)] = ra;
                    parity[static_cast<size_t>(ra)] ^=
                        parity[static_cast<size_t>(rb)];
                    has_boundary[static_cast<size_t>(ra)] |=
                        has_boundary[static_cast<size_t>(rb)];
                }
            }
            if (!grew)
                break;
            for (int v = 0; v <= numNodes_; ++v)
                if (find(v) == v && active(v)) {
                    any_active = true;
                    break;
                }
        }

        std::vector<std::vector<std::pair<int, int>>> tree(n);
        for (int e : forest) {
            const Edge &ed = edges_[static_cast<size_t>(e)];
            tree[static_cast<size_t>(ed.a)].push_back({e, ed.b});
            tree[static_cast<size_t>(ed.b)].push_back({e, ed.a});
        }
        std::vector<uint8_t> visited(n, 0);
        std::vector<int> order;
        std::vector<std::pair<int, int>> parent_edge(n, {-1, -1});
        const auto bfs_from = [&](int root) {
            visited[static_cast<size_t>(root)] = 1;
            size_t h = order.size();
            order.push_back(root);
            for (; h < order.size(); ++h) {
                const int v = order[h];
                for (const auto &[e, to] : tree[static_cast<size_t>(v)])
                    if (!visited[static_cast<size_t>(to)]) {
                        visited[static_cast<size_t>(to)] = 1;
                        parent_edge[static_cast<size_t>(to)] = {e, v};
                        order.push_back(to);
                    }
            }
        };
        bfs_from(nb);
        for (int v = 0; v < numNodes_; ++v)
            if (!visited[static_cast<size_t>(v)] &&
                !tree[static_cast<size_t>(v)].empty())
                bfs_from(v);
        std::vector<uint8_t> sub(defect);
        bool obs = false;
        for (size_t i = order.size(); i-- > 0;) {
            const int v = order[i];
            const auto &[e, par] = parent_edge[static_cast<size_t>(v)];
            if (e < 0 || !sub[static_cast<size_t>(v)])
                continue;
            obs ^= edges_[static_cast<size_t>(e)].obs;
            sub[static_cast<size_t>(par)] ^= 1;
        }
        return obs;
    }

  private:
    struct Edge
    {
        int a, b, units;
        bool obs;
    };

    int numNodes_ = 0;
    std::vector<int> local_of_;
    std::vector<Edge> edges_;
};

} // namespace surf::testref

#endif // SURF_TESTS_UF_REFERENCE_HH
