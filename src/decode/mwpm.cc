#include "decode/mwpm.hh"

#include <algorithm>
#include <cmath>

#include "decode/blossom.hh"
#include "decode/match_weights.hh"
#include "util/logging.hh"

namespace surf {

namespace {

int64_t
quantizeW(double w)
{
    return quantizeMatchWeight(w);
}

} // namespace

bool
MwpmDecoder::decode(const uint32_t *fired, size_t n_fired,
                    MwpmScratch &scratch) const
{
    auto &defects = scratch.defects;
    defects.clear();
    for (size_t i = 0; i < n_fired; ++i) {
        const int l = graph_.localOf(fired[i]);
        if (l >= 0)
            defects.push_back(l);
    }
    // Both sparse paths rely on ascending defect node ids (the rows
    // path's lo/hi pair cells, the matcher's binary-searched landing
    // collisions). Sorted fired lists (the simulator's CSR output) pass
    // the check for free; arbitrary callers get sorted here.
    if (!std::is_sorted(defects.begin(), defects.end()))
        std::sort(defects.begin(), defects.end());
    scratch.lastWeight = 0;
    scratch.timedOut = false;
    if (scratch.deadline != nullptr && scratch.deadline->armed())
        // Even empty shots clear the trace, so a caller that records the
        // ladder per decode never re-reads a previous shot's trip.
        scratch.ladder.reset();
    if (defects.empty())
        return false;
    if (scratch.deadline != nullptr && scratch.deadline->armed() &&
        graph_.backend() != MatchingBackend::Dense)
        // Deadline-armed shots run the staged fallback ladder. The Dense
        // backend is pure table lookups + one bounded blossom with no
        // cheaper stage to fall to, so it stays on its normal path.
        return decodeLadder(scratch);
    switch (graph_.backend()) {
      case MatchingBackend::Dense:
        return decodeDense(scratch);
      case MatchingBackend::SparseBlossom:
        return decodeSparseBlossom(scratch);
      case MatchingBackend::Sparse:
      default:
        // Burst dispatch: past the threshold the matrix-free matcher
        // avoids building one Dijkstra row per defect.
        return defects.size() >= blossomThreshold()
                   ? decodeSparseBlossom(scratch)
                   : decodeSparse(scratch);
    }
}

bool
MwpmDecoder::decodeLadder(MwpmScratch &sc) const
{
    DecodeDeadline &dl = *sc.deadline;
    sc.ladder.reset();

    // Stage 1 — matrix-free sparse blossom, for the shots that would
    // use it anyway (SparseBlossom backend, or Sparse past the burst
    // threshold). Non-burst shots skip straight to the rows stage: the
    // matcher is slower there and a downgrade must never be one.
    const bool burst = graph_.backend() == MatchingBackend::SparseBlossom ||
                       sc.defects.size() >= blossomThreshold();
    if (burst) {
        dl.beginStage(sc.stallNs[kStageBlossom]);
        bool timed_out = false;
        const bool obs =
            sparseBlossomDecode(graph_, sc.defects, sc.blossom,
                                &sc.lastWeight, &dl, &timed_out);
        sc.ladder.note(kStageBlossom, dl.stageElapsedNs(), timed_out);
        if (!timed_out) {
            sc.ladder.answer = kStageBlossom;
            return obs;
        }
        sc.lastWeight = 0; // abandoned stage: discard partial weight
    }

    // Stage 2 — memoized-rows MWPM under its own fresh budget.
    dl.beginStage(sc.stallNs[kStageRows]);
    const bool obs = decodeSparse(sc);
    sc.ladder.note(kStageRows, dl.stageElapsedNs(), sc.timedOut);
    if (!sc.timedOut) {
        sc.ladder.answer = kStageRows;
        return obs;
    }
    // Stage 3 (union-find) lives with the caller: sc.timedOut tells it
    // to discard this answer and run its floor decoder.
    sc.lastWeight = 0;
    return obs;
}

bool
MwpmDecoder::decodeSparseBlossom(MwpmScratch &scratch) const
{
    return sparseBlossomDecode(graph_, scratch.defects, scratch.blossom,
                               &scratch.lastWeight);
}

bool
MwpmDecoder::decodeDense(MwpmScratch &scratch) const
{
    const auto &defects = scratch.defects;
    const int k = static_cast<int>(defects.size());
    const int bnode = graph_.boundaryNode();

    // Closed-form fast paths for the overwhelmingly common low-weight
    // syndromes — no blossom workspace needed. k = 1: the only perfect
    // matching pairs the defect with its boundary copy. k = 2: either
    // both defects match each other (their virtuals pair for free) or
    // each goes to the boundary; pick the lighter total.
    if (k == 1) {
        const double db = graph_.dist(defects[0], bnode);
        if (std::isfinite(db))
            scratch.lastWeight = quantizeW(db);
        return graph_.obsParity(defects[0], bnode);
    }
    if (k == 2) {
        const double pair_w = graph_.dist(defects[0], defects[1]);
        const double bdry_w =
            graph_.dist(defects[0], bnode) + graph_.dist(defects[1], bnode);
        if (pair_w <= bdry_w) {
            if (!std::isfinite(pair_w))
                return false;
            scratch.lastWeight = quantizeW(pair_w);
            return graph_.obsParity(defects[0], defects[1]);
        }
        scratch.lastWeight = quantizeW(graph_.dist(defects[0], bnode)) +
                             quantizeW(graph_.dist(defects[1], bnode));
        return graph_.obsParity(defects[0], bnode) ^
               graph_.obsParity(defects[1], bnode);
    }

    // Complete graph on defects plus one virtual boundary copy each:
    // defect i <-> defect j at path distance, defect i <-> its own virtual
    // at boundary distance, virtual <-> virtual free.
    const int n = 2 * k;
    auto &w = scratch.weights;
    w.assign(static_cast<size_t>(n) * n, kMatchForbidden);
    auto at = [&](int a, int b) -> int64_t & {
        return w[static_cast<size_t>(a) * n + b];
    };
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
            const double d = graph_.dist(defects[static_cast<size_t>(i)],
                                         defects[static_cast<size_t>(j)]);
            if (std::isfinite(d)) {
                const int64_t iw = perturbedMatchWeight(
                    d, defects[static_cast<size_t>(i)],
                    defects[static_cast<size_t>(j)]);
                at(i, j) = iw;
                at(j, i) = iw;
            }
        }
        const double db =
            graph_.dist(defects[static_cast<size_t>(i)], bnode);
        if (std::isfinite(db)) {
            const int64_t iw = perturbedMatchWeight(
                db, defects[static_cast<size_t>(i)], bnode);
            at(i, k + i) = iw;
            at(k + i, i) = iw;
        }
        for (int j = 0; j < k; ++j)
            if (j != i) {
                at(k + i, k + j) = 0;
                at(k + j, k + i) = 0;
            }
    }
    bool obs = false;
    if (!minWeightPerfectMatching(n, w, scratch.mate)) {
        // No perfect matching (disconnected leftovers): fall back to
        // matching every defect to the boundary.
        for (int i = 0; i < k; ++i) {
            obs ^= graph_.obsParity(defects[static_cast<size_t>(i)], bnode);
            const double db =
                graph_.dist(defects[static_cast<size_t>(i)], bnode);
            if (std::isfinite(db))
                scratch.lastWeight += quantizeW(db);
        }
        return obs;
    }
    for (int i = 0; i < k; ++i) {
        const int m = scratch.mate[static_cast<size_t>(i)];
        if (m < k) {
            if (m > i) {
                obs ^= graph_.obsParity(defects[static_cast<size_t>(i)],
                                        defects[static_cast<size_t>(m)]);
                scratch.lastWeight += trueMatchWeight(at(i, m));
            }
        } else {
            obs ^= graph_.obsParity(defects[static_cast<size_t>(i)], bnode);
            scratch.lastWeight += trueMatchWeight(at(i, k + i));
        }
    }
    return obs;
}

bool
MwpmDecoder::decodeSparse(MwpmScratch &sc) const
{
    const auto &defects = sc.defects; // ascending local node ids
    const int k = static_cast<int>(defects.size());
    const int bnode = graph_.boundaryNode();
    const size_t cols = static_cast<size_t>(k) + 1; // slot k = boundary
    constexpr float kInf = std::numeric_limits<float>::infinity();

    // Per-shot path cache over defect slots (and the boundary slot):
    // filled once by the lazy searches; the closed forms, the instance
    // assembly and the post-blossom parity reads are all table lookups.
    // Pairs share one (lo, hi) cell.
    auto tri = [cols](int a, int b) {
        const auto lo = static_cast<size_t>(a < b ? a : b);
        const auto hi = static_cast<size_t>(a < b ? b : a);
        return lo * cols + hi;
    };
    // Cooperative deadline poll (no-op with a null/disarmed deadline):
    // row construction and the blossom solve are the two unbounded work
    // chunks of this path, so the budget is checked before each row
    // build and before the solve.
    auto outOfTime = [&sc] {
        if (sc.deadline == nullptr || !sc.deadline->expired())
            return false;
        sc.timedOut = true;
        return true;
    };
    // Fill the per-shot path cache from the graph's memoized rows (each
    // row is one lazy Dijkstra, built at most once per graph and shared
    // across shots, epochs and cache reuses). Every cell comes from the
    // row of the pair's smaller node id, the witness the dense tables
    // store.
    sc.pathDist.assign(cols * cols, kInf);
    sc.pathPar.assign(cols * cols, 0);
    for (int i = 0; i < k; ++i) {
        if (outOfTime())
            return false;
        const DecodingGraph::Row &ri =
            graph_.row(defects[static_cast<size_t>(i)], sc.dijkstra);
        for (int j = i + 1; j <= k; ++j) {
            const auto tj = static_cast<size_t>(
                j < k ? defects[static_cast<size_t>(j)] : bnode);
            sc.pathDist[tri(i, j)] = ri.dist[tj];
            sc.pathPar[tri(i, j)] = ri.par[tj];
        }
    }

    // Closed forms, identical to the dense backend (the table entries
    // are bit-equal to the dense tables' for these always-exact cases).
    if (k == 1) {
        if (std::isfinite(sc.pathDist[tri(0, 1)]))
            sc.lastWeight = quantizeW(sc.pathDist[tri(0, 1)]);
        return sc.pathPar[tri(0, 1)] != 0;
    }
    if (k == 2) {
        const double pair_w = sc.pathDist[tri(0, 1)];
        const double bdry_w = static_cast<double>(sc.pathDist[tri(0, 2)]) +
                              static_cast<double>(sc.pathDist[tri(1, 2)]);
        if (pair_w <= bdry_w) {
            if (!std::isfinite(pair_w))
                return false;
            sc.lastWeight = quantizeW(pair_w);
            return sc.pathPar[tri(0, 1)] != 0;
        }
        sc.lastWeight = quantizeW(sc.pathDist[tri(0, 2)]) +
                        quantizeW(sc.pathDist[tri(1, 2)]);
        return (sc.pathPar[tri(0, 2)] ^ sc.pathPar[tri(1, 2)]) != 0;
    }

    // Pruned mirror instance, solved by the adjacency-list blossom (the
    // construction the matrix-free path builds after ball growth, see
    // sparse_blossom.hh): defects are nodes 0..k-1 and their mirrors
    // k..2k-1, every kept pair appears in both copies, and each defect
    // joins its own mirror at twice its boundary weight. A pair heavier
    // than sending both ends to the boundary is never in an optimum, so
    // it is dropped; both its ends keep their boundary edges, so every
    // instance stays feasible.
    auto &bw = sc.weights; // perturbed boundary weight per defect
    bw.assign(static_cast<size_t>(k), kMatchForbidden);
    for (int i = 0; i < k; ++i) {
        const double db = sc.pathDist[tri(i, k)];
        if (std::isfinite(db))
            bw[static_cast<size_t>(i)] = perturbedMatchWeight(
                db, defects[static_cast<size_t>(i)], bnode);
    }
    auto &edges = sc.blossom.edges;
    edges.clear();
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
            const double d = sc.pathDist[tri(i, j)];
            if (!std::isfinite(d))
                continue;
            const int64_t pw = perturbedMatchWeight(
                d, defects[static_cast<size_t>(i)],
                defects[static_cast<size_t>(j)]);
            if (pw > bw[static_cast<size_t>(i)] + bw[static_cast<size_t>(j)])
                continue;
            addMirrorPair(edges, k, i, j, pw);
        }
        if (bw[static_cast<size_t>(i)] != kMatchForbidden)
            addMirrorBoundary(edges, k, i, bw[static_cast<size_t>(i)]);
    }
    if (outOfTime())
        return false;
    bool obs = false;
    if (!sparseMinWeightPerfectMatching(2 * k, edges, sc.blossom.matcher,
                                        sc.mate)) {
        // Genuinely disconnected leftovers: fall back to matching every
        // defect to the boundary, exactly like the dense backend.
        for (int i = 0; i < k; ++i) {
            obs ^= sc.pathPar[tri(i, k)] != 0;
            if (std::isfinite(sc.pathDist[tri(i, k)]))
                sc.lastWeight += quantizeW(sc.pathDist[tri(i, k)]);
        }
        return obs;
    }
    for (int i = 0; i < k; ++i) {
        const int m = sc.mate[static_cast<size_t>(i)];
        if (m == k + i) {
            obs ^= sc.pathPar[tri(i, k)] != 0;
            sc.lastWeight += quantizeW(sc.pathDist[tri(i, k)]);
        } else if (m > i && m < k) {
            obs ^= sc.pathPar[tri(i, m)] != 0;
            sc.lastWeight += quantizeW(sc.pathDist[tri(i, m)]);
        }
    }
    return obs;
}

} // namespace surf
