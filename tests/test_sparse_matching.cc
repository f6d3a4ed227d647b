/**
 * @file
 * Equivalence tests for the sparse on-demand MWPM backend against the
 * dense all-pairs backend: bit-identical predictions and matched weight
 * on random graphlike DEMs, on deformed-patch circuits at both basis
 * tags, on d=9 memory shots and on burst clusters across the blossom
 * dispatch threshold, and entry-level agreement of the memoized
 * Dijkstra rows with the dense tables, including the parity witness of
 * a via-boundary shortest-path tie. Also: the no-perfect-matching
 * fallback, scratch sharing across decoders and the deadline ladder,
 * union-find invariance, and the d=13 smoke test only the sparse
 * backend can afford per-epoch. The blossom solver itself is checked
 * against the reference solver (tests/sparse_matcher_reference.hh) on
 * random and rows-path mirror instances, against brute force on small
 * graphs and across scratch reuse, and a golden digest pins the rows
 * path's and the burst matcher's per-shot output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "baselines/strategies.hh"
#include "burst_syndromes.hh"
#include "decode/blossom.hh"
#include "decode/match_weights.hh"
#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "decode/sparse_blossom.hh"
#include "decode/union_find.hh"
#include "fnv64.hh"
#include "lattice/rotated.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "sparse_matcher_reference.hh"
#include "util/rng.hh"

namespace surf {
namespace {

/** Random graphlike DEM: per-tag detector sets with random pairwise and
 *  boundary edges (connected enough to be interesting, but components
 *  and boundary-free islands are allowed and exercised). */
DetectorErrorModel
randomDem(Rng &rng)
{
    DetectorErrorModel dem;
    dem.numDetectors = 12 + rng.below(28);
    dem.detectorTag.resize(dem.numDetectors);
    std::vector<int> by_tag[2];
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        dem.detectorTag[d] = static_cast<uint8_t>(rng.below(2));
        by_tag[dem.detectorTag[d]].push_back(static_cast<int>(d));
    }
    for (int tag = 0; tag < 2; ++tag) {
        const auto &dets = by_tag[tag];
        if (dets.empty())
            continue;
        const size_t n_edges = dets.size() + rng.below(2 * dets.size() + 1);
        for (size_t e = 0; e < n_edges; ++e) {
            DemEdge edge;
            edge.a = dets[rng.below(dets.size())];
            // ~1 in 5 edges touch the boundary.
            edge.b = rng.below(5) == 0
                         ? -1
                         : dets[rng.below(dets.size())];
            if (edge.a == edge.b)
                continue;
            edge.p = 1e-4 + 0.3 * rng.uniform();
            edge.flipsObs = rng.below(2) == 0;
            dem.edges[tag].push_back(edge);
        }
    }
    return dem;
}

TEST(SparseMatching, BitIdenticalToDenseOnRandomDems)
{
    Rng rng(0xfeedf00d);
    for (int trial = 0; trial < 30; ++trial) {
        const DetectorErrorModel dem = randomDem(rng);
        for (uint8_t tag : {0, 1}) {
            const MwpmDecoder dense(dem, tag, nullptr,
                                    MatchingBackend::Dense);
            const MwpmDecoder sparse(dem, tag, nullptr,
                                     MatchingBackend::Sparse);
            ASSERT_EQ(sparse.backend(), MatchingBackend::Sparse);
            MwpmScratch ds, ss;
            for (int shot = 0; shot < 40; ++shot) {
                std::set<uint32_t> fired_set;
                const size_t n = rng.below(12);
                for (size_t i = 0; i < n; ++i)
                    fired_set.insert(
                        static_cast<uint32_t>(rng.below(dem.numDetectors)));
                const std::vector<uint32_t> fired(fired_set.begin(),
                                                  fired_set.end());
                ASSERT_EQ(dense.decode(fired.data(), fired.size(), ds),
                          sparse.decode(fired.data(), fired.size(), ss))
                    << "trial " << trial << " tag " << int(tag) << " shot "
                    << shot;
            }
        }
    }
}

TEST(SparseMatching, BitIdenticalToDenseOnDeformedPatchBothBases)
{
    // A Surf-Deformer-deformed patch (removal + enlargement around a
    // burst region) exercises irregular boundaries and seamed weights.
    const auto out = applyStrategyChecked(Strategy::SurfDeformer, 5, 2,
                                          {{5, 5}, {6, 6}})
                         .value();
    ASSERT_TRUE(out.alive);
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        MemorySpec spec;
        spec.rounds = 5;
        spec.basis = basis;
        NoiseParams noise;
        noise.p = 3e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(out.patch, spec, noise);
        const auto dem = buildDem(built.circuit, basis);
        const uint8_t tag = (basis == PauliType::Z) ? 1 : 0;
        const MwpmDecoder dense(dem, tag, nullptr, MatchingBackend::Dense);
        const MwpmDecoder sparse(dem, tag, nullptr, MatchingBackend::Sparse);
        FrameSimulator sim(built.circuit, 1500, 0xd0d0);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        MwpmScratch ds, ss;
        for (size_t s = 0; s < sim.shots(); ++s) {
            ASSERT_EQ(dense.decode(syndromes.data(s), syndromes.count(s), ds),
                      sparse.decode(syndromes.data(s), syndromes.count(s),
                                    ss))
                << "basis " << (basis == PauliType::Z ? "Z" : "X")
                << " shot " << s;
            ASSERT_EQ(ds.lastWeight, ss.lastWeight) << "shot " << s;
        }
    }
}

TEST(SparseMatching, MemoizedRowsMatchDenseTables)
{
    MemorySpec spec;
    spec.rounds = 4;
    NoiseParams noise;
    noise.p = 2e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const DecodingGraph dense(dem, 1, nullptr, MatchingBackend::Dense);
    const DecodingGraph sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    const int n = static_cast<int>(dense.numNodes());
    const int bnode = dense.boundaryNode();
    ASSERT_GT(n, 10);

    // Rows are the dense table's src-rooted rows, entry for entry:
    // distances for every target, parity witnesses for targets >= src
    // (where the dense table stores the src-rooted path). The rows path
    // reads every pair from its smaller node id's row, so these are the
    // witnesses its predictions use.
    DijkstraScratch sc;
    for (int src = 0; src < n; src += 3) {
        const DecodingGraph::Row &row = sparse.row(src, sc);
        ASSERT_TRUE(std::isfinite(row.dist[static_cast<size_t>(bnode)]));
        for (int t = 0; t <= n; ++t) {
            const double dd = dense.dist(src, t);
            const auto ti = static_cast<size_t>(t);
            if (!std::isfinite(dd)) {
                ASSERT_FALSE(std::isfinite(row.dist[ti]));
                continue;
            }
            ASSERT_EQ(static_cast<double>(row.dist[ti]), dd)
                << "src " << src << " target " << t;
            if (t >= src) {
                ASSERT_EQ(row.par[ti] != 0, dense.obsParity(src, t))
                    << "src " << src << " target " << t;
            }
        }
        // Asking again returns the memoized row.
        EXPECT_EQ(&sparse.row(src, sc), &row);
    }
    EXPECT_GT(sparse.rowsResident(), 0u);
}

/** Decode every shot with both decoders and require equal predictions
 *  and matched weights; returns the number of shots compared. */
size_t
expectSameAsDense(const MwpmDecoder &dense, const MwpmDecoder &sparse,
                  const std::vector<std::vector<uint32_t>> &shots)
{
    MwpmScratch ds, ss;
    size_t s = 0;
    for (; s < shots.size(); ++s) {
        const auto &fired = shots[s];
        const bool dp = dense.decode(fired.data(), fired.size(), ds);
        const bool sp = sparse.decode(fired.data(), fired.size(), ss);
        EXPECT_EQ(dp, sp) << "shot " << s << " k " << fired.size();
        EXPECT_EQ(ds.lastWeight, ss.lastWeight)
            << "shot " << s << " k " << fired.size();
        if (dp != sp || ds.lastWeight != ss.lastWeight)
            break;
    }
    return s;
}

/** Z-basis memory DEM of a d x d patch over d rounds. */
DetectorErrorModel
memoryDem(int d, double p)
{
    MemorySpec spec;
    spec.rounds = d;
    NoiseParams noise;
    noise.p = p;
    return buildDem(
        buildMemoryCircuit(squarePatch(d), spec, noise).circuit,
        PauliType::Z);
}

// ---- Solver oracle, brute force, golden digest and scratch reuse ------

/** Random mirror instance over k defects (nodes 0..2k-1), built like
 *  the rows path builds its own: perturbed weights from a small set of
 *  quantized distances, so many matchings tie before the tie-break.
 *  Some defects lack a boundary edge, and some have no edge at all,
 *  which leaves no perfect matching. */
std::vector<SparseMatchEdge>
randomMirrorInstance(Rng &rng, int k)
{
    constexpr int kBoundaryNode = 1 << 20;
    std::vector<int> node(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i)
        node[static_cast<size_t>(i)] =
            static_cast<int>(rng.below(1 << 16)) * 8 + i % 8;
    const uint64_t pair_pct = 10 + rng.below(60);
    const uint64_t isolated_pct = rng.below(4) == 0 ? 5 : 0;
    std::vector<SparseMatchEdge> edges;
    for (int i = 0; i < k; ++i) {
        if (rng.below(100) < isolated_pct)
            continue;
        for (int j = i + 1; j < k; ++j)
            if (rng.below(100) < pair_pct)
                addMirrorPair(edges, k, i, j,
                              perturbedMatchWeight(
                                  0.5 * static_cast<double>(1 + rng.below(6)),
                                  node[static_cast<size_t>(i)],
                                  node[static_cast<size_t>(j)]));
        if (rng.below(4) != 0)
            addMirrorBoundary(edges, k, i,
                              perturbedMatchWeight(
                                  0.5 * static_cast<double>(1 + rng.below(6)),
                                  node[static_cast<size_t>(i)],
                                  kBoundaryNode));
    }
    return edges;
}

/** Cheapest edge weight per vertex pair, kMatchForbidden where absent. */
std::vector<int64_t>
pairWeights(int n, const std::vector<SparseMatchEdge> &edges)
{
    std::vector<int64_t> w(static_cast<size_t>(n) * n, kMatchForbidden);
    for (const SparseMatchEdge &e : edges) {
        auto &ab = w[static_cast<size_t>(e.a) * n + e.b];
        ab = std::min(ab, e.w);
        w[static_cast<size_t>(e.b) * n + e.a] = ab;
    }
    return w;
}

/** Weight of a mate vector under the cheapest pair weights. */
int64_t
matchingWeight(int n, const std::vector<int64_t> &w,
               const std::vector<int> &mate)
{
    int64_t total = 0;
    for (int v = 0; v < n; ++v)
        if (mate[static_cast<size_t>(v)] > v)
            total += w[static_cast<size_t>(v) * n +
                       mate[static_cast<size_t>(v)]];
    return total;
}

/** Outcome of one solve, for exact comparison. */
struct SolveResult
{
    bool ok = false;
    std::vector<int> mate;
    int64_t total = -1;
};

/** Instances compared against the reference, by outcome. */
struct OracleStats
{
    size_t perfect = 0;
    size_t infeasible = 0;
    size_t ties = 0;
};

/**
 * Compare the solver with the reference on one instance. Equal mates
 * pass; different mates pass only as an exact tie (both perfect, equal
 * total weight, each total equal to its own mate vector's weight) and
 * are counted in `stats.ties`.
 */
void
expectSameAsReference(int n, const std::vector<SparseMatchEdge> &edges,
                      SparseMatcherScratch &scratch, OracleStats &stats,
                      const std::string &what)
{
    SolveResult got, ref;
    got.ok = sparseMinWeightPerfectMatching(n, edges, scratch, got.mate,
                                            &got.total);
    ref.ok = testref::referenceSparseMatching(n, edges, ref.mate,
                                              &ref.total);
    ASSERT_EQ(got.ok, ref.ok) << what;
    ASSERT_EQ(got.total, ref.total) << what;
    ++(got.ok ? stats.perfect : stats.infeasible);
    if (got.mate == ref.mate)
        return;
    ASSERT_TRUE(got.ok) << what;
    const auto w = pairWeights(n, edges);
    ASSERT_EQ(matchingWeight(n, w, got.mate), got.total) << what;
    ASSERT_EQ(matchingWeight(n, w, ref.mate), ref.total) << what;
    ++stats.ties;
}

TEST(SparseBlossom, MatchesReferenceOnRandomMirrorInstances)
{
    Rng rng(0x0ac1e);
    SparseMatcherScratch scratch;
    OracleStats stats;
    constexpr int kTrials = 2400;
    for (int trial = 0; trial < kTrials; ++trial) {
        const int k = 2 + static_cast<int>(rng.below(63)); // 2..64
        expectSameAsReference(2 * k, randomMirrorInstance(rng, k), scratch,
                              stats,
                              "trial " + std::to_string(trial) + " k " +
                                  std::to_string(k));
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(stats.perfect, kTrials / 2u);
    EXPECT_GT(stats.infeasible, 50u)
        << "too few instances without a matching";
    EXPECT_LE(stats.ties, kTrials / 100u)
        << "more mismatches than exact perturbed-weight ties explain";
}

/** Memory-experiment shots of one basis (tag 1 = Z, 0 = X). */
struct MemoryShots
{
    DetectorErrorModel dem;
    uint8_t tag = 1;
    std::vector<std::vector<uint32_t>> shots;
};

MemoryShots
memoryShots(PauliType basis, int d, double p, size_t n_shots)
{
    MemorySpec spec;
    spec.rounds = d;
    spec.basis = basis;
    NoiseParams noise;
    noise.p = p;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(d), spec, noise);
    MemoryShots out;
    out.dem = buildDem(built.circuit, basis);
    out.tag = basis == PauliType::Z ? 1 : 0;
    FrameSimulator sim(built.circuit, n_shots, 0x60d + d);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    for (size_t s = 0; s < sim.shots(); ++s)
        out.shots.emplace_back(syndromes.data(s),
                               syndromes.data(s) + syndromes.count(s));
    return out;
}

/** The memory shots the rows-path oracle and golden tests share. */
std::vector<MemoryShots>
rowsPathShots()
{
    std::vector<MemoryShots> out;
    for (PauliType basis : {PauliType::Z, PauliType::X})
        for (int d : {5, 7, 9})
            for (double p : {1e-3, 5e-3})
                out.push_back(memoryShots(basis, d, p, 256));
    return out;
}

TEST(SparseBlossom, MatchesReferenceOnRowsPathInstances)
{
    // Every mirror instance the rows path solves on memory shots, read
    // back from the scratch after each decode.
    OracleStats stats;
    SparseMatcherScratch scratch;
    for (const MemoryShots &c : rowsPathShots()) {
        MwpmDecoder rows(c.dem, c.tag, nullptr, MatchingBackend::Sparse);
        rows.setBlossomThreshold(SIZE_MAX);
        MwpmScratch sc;
        for (size_t s = 0; s < c.shots.size(); ++s) {
            (void)rows.decode(c.shots[s].data(), c.shots[s].size(), sc);
            const int k = static_cast<int>(sc.defects.size());
            if (k < 3)
                continue; // closed forms: no instance is built
            expectSameAsReference(2 * k, sc.blossom.edges, scratch, stats,
                                  "shot " + std::to_string(s) + " k " +
                                      std::to_string(k));
            if (HasFatalFailure())
                return;
        }
    }
    const size_t instances = stats.perfect + stats.infeasible;
    EXPECT_GT(instances, 2000u);
    EXPECT_LE(stats.ties, instances / 100);
}

/** Minimum-weight perfect matching by exhaustive search (n <= 10):
 *  returns the optimum, or kMatchForbidden when none exists, and counts
 *  the optimal matchings in `n_opt`. */
int64_t
bruteForceMatching(int n, const std::vector<int64_t> &w,
                   std::vector<int> &mate, size_t &n_opt)
{
    std::vector<int> cur(static_cast<size_t>(n), -1);
    int64_t best = kMatchForbidden;
    n_opt = 0;
    auto rec = [&](auto &&self, int64_t acc) -> void {
        int v = 0;
        while (v < n && cur[static_cast<size_t>(v)] != -1)
            ++v;
        if (v == n) {
            if (acc < best) {
                best = acc;
                mate = cur;
                n_opt = 1;
            } else if (acc == best) {
                ++n_opt;
            }
            return;
        }
        for (int u = v + 1; u < n; ++u) {
            const int64_t wu = w[static_cast<size_t>(v) * n + u];
            if (cur[static_cast<size_t>(u)] != -1 || wu == kMatchForbidden)
                continue;
            cur[static_cast<size_t>(v)] = u;
            cur[static_cast<size_t>(u)] = v;
            self(self, acc + wu);
            cur[static_cast<size_t>(v)] = -1;
            cur[static_cast<size_t>(u)] = -1;
        }
    };
    rec(rec, 0);
    return best;
}

TEST(SparseBlossom, MatchesBruteForceOnSmallGraphs)
{
    // Random graphs of up to 10 vertices, parallel edges included, with
    // perturbed weights from a small set: the optimum must equal the
    // exhaustive minimum, and the mate vector the unique optimum's.
    Rng rng(0xb7f0);
    SparseMatcherScratch scratch;
    size_t unique = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const int n = 2 * static_cast<int>(1 + rng.below(5)); // 2..10
        std::vector<SparseMatchEdge> edges;
        const size_t m = rng.below(static_cast<uint64_t>(n * (n - 1)) + 1);
        for (size_t e = 0; e < m; ++e) {
            const int a = static_cast<int>(rng.below(n));
            const int b = static_cast<int>(rng.below(n));
            if (a != b)
                edges.push_back(
                    {a, b,
                     perturbedMatchWeight(
                         0.25 * static_cast<double>(rng.below(5)),
                         static_cast<int>(rng.below(64)),
                         static_cast<int>(rng.below(64)))});
        }
        const auto w = pairWeights(n, edges);
        std::vector<int> bmate;
        size_t n_opt = 0;
        const int64_t best = bruteForceMatching(n, w, bmate, n_opt);
        std::vector<int> mate;
        int64_t total = -1;
        const bool ok =
            sparseMinWeightPerfectMatching(n, edges, scratch, mate, &total);
        ASSERT_EQ(ok, best != kMatchForbidden) << "trial " << trial;
        if (!ok)
            continue;
        ASSERT_EQ(total, best) << "trial " << trial << " n " << n;
        ASSERT_EQ(matchingWeight(n, w, mate), best) << "trial " << trial;
        if (n_opt == 1) {
            ++unique;
            ASSERT_EQ(mate, bmate) << "trial " << trial << " n " << n;
        }
    }
    EXPECT_GT(unique, 1000u);
}

TEST(SparseBlossom, ScratchReuseMatchesFreshScratch)
{
    // One arena serves instances that grow and shrink (n = 4, 120, 6,
    // 60, then 120 straight after 60), then the same sequence again with
    // the stage stamp at its last value before each instance, so every
    // solve wraps at its first stage; the stale allow entries are set to
    // 1, the first stamp after the wrap, as entries allowed in an
    // earlier post-wrap stage would read. Every result, dual vector
    // included, must equal a fresh arena's, with or without a perfect
    // matching.
    Rng rng(0x5c2a7c);
    std::vector<std::pair<int, std::vector<SparseMatchEdge>>> instances;
    for (int n : {4, 120, 6, 60, 120})
        instances.emplace_back(n, randomMirrorInstance(rng, n / 2));
    SparseMatcherScratch shared;
    for (int round = 0; round < 2; ++round)
        for (const auto &[n, edges] : instances) {
            if (round == 1) {
                shared.stamp = UINT32_MAX;
                std::fill(shared.allowEdge.begin(), shared.allowEdge.end(),
                          1u);
            }
            SparseMatcherScratch fresh;
            SolveResult a, b;
            a.ok = sparseMinWeightPerfectMatching(n, edges, shared, a.mate,
                                                  &a.total);
            b.ok = sparseMinWeightPerfectMatching(n, edges, fresh, b.mate,
                                                  &b.total);
            const std::string what =
                "round " + std::to_string(round) + " n " + std::to_string(n);
            EXPECT_EQ(a.ok, b.ok) << what;
            EXPECT_EQ(a.mate, b.mate) << what;
            EXPECT_EQ(a.total, b.total) << what;
            EXPECT_EQ(shared.lastOffset, fresh.lastOffset) << what;
            EXPECT_TRUE(std::equal(fresh.dual.begin(),
                                   fresh.dual.begin() + 2 * n,
                                   shared.dual.begin()))
                << what;
            if (round == 1) {
                EXPECT_LT(shared.stamp, 1000u) << "no wrap at " << what;
            }
        }
}

TEST(SparseMatching, GoldenRowsAndBurstDigest)
{
    // FNV-64 of (prediction, matched weight) per shot: the rows path
    // (dispatch off) on Z and X memory shots at d = 5, 7, 9 and
    // p = 1e-3, 5e-3, then burst clusters at k = 32, 64, 96 on d = 9
    // through the rows path and the matrix-free matcher. Recorded from
    // the solver that scanned every edge per dual update; any solver
    // change must keep it.
    testref::Fnv64 h;
    size_t n_shots = 0;
    for (const MemoryShots &c : rowsPathShots()) {
        MwpmDecoder rows(c.dem, c.tag, nullptr, MatchingBackend::Sparse);
        rows.setBlossomThreshold(SIZE_MAX);
        MwpmScratch sc;
        for (const auto &shot : c.shots) {
            h.add(rows.decode(shot.data(), shot.size(), sc));
            h.add(static_cast<uint64_t>(sc.lastWeight));
            ++n_shots;
        }
    }
    const auto dem = memoryDem(9, 2e-3);
    MwpmDecoder rows(dem, 1, nullptr, MatchingBackend::Sparse);
    rows.setBlossomThreshold(SIZE_MAX);
    const MwpmDecoder matcher(dem, 1, nullptr,
                              MatchingBackend::SparseBlossom);
    Rng rng(0x60d5eed);
    MwpmScratch sr, sm;
    for (size_t k : {32u, 64u, 96u})
        for (int rep = 0; rep < 16; ++rep) {
            const auto b =
                benchutil::burstCluster(dem, rows.graph(), k, rng);
            h.add(rows.decode(b.data(), b.size(), sr));
            h.add(static_cast<uint64_t>(sr.lastWeight));
            h.add(matcher.decode(b.data(), b.size(), sm));
            h.add(static_cast<uint64_t>(sm.lastWeight));
            ++n_shots;
        }
    EXPECT_EQ(n_shots, 12u * 256u + 48u);
    EXPECT_EQ(h.h, 0xf05e0f5180f3ff33ULL) << std::hex << "digest 0x" << h.h;
}

TEST(SparseMatching, DefaultEqualsDenseOnD9MemoryShots)
{
    // d = 9 at p = 5e-3: scattered syndromes of a few dozen defects per
    // tag, the regime the rows path once approximated with a K-nearest
    // truncation. The default decoder, no knobs set, is exact here.
    MemorySpec spec;
    spec.rounds = 9;
    NoiseParams noise;
    noise.p = 5e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(9), spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const MwpmDecoder dense(dem, 1, nullptr, MatchingBackend::Dense);
    const MwpmDecoder sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    FrameSimulator sim(built.circuit, 768, 0x9d5e3);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    std::vector<std::vector<uint32_t>> shots;
    size_t above_old_truncation = 0;
    for (size_t s = 0; s < sim.shots(); ++s) {
        shots.emplace_back(syndromes.data(s),
                           syndromes.data(s) + syndromes.count(s));
        size_t k = 0;
        for (uint32_t det : shots.back())
            k += dense.graph().localOf(det) >= 0;
        above_old_truncation += k > 17;
    }
    EXPECT_GT(above_old_truncation, sim.shots() / 2)
        << "noise too low to reach the high-defect regime";
    EXPECT_EQ(expectSameAsDense(dense, sparse, shots), shots.size());
}

TEST(SparseMatching, DefaultEqualsDenseOnBurstClustersAcrossDispatch)
{
    // Contiguous clusters on both sides of the blossom dispatch floor:
    // the rows path answers below it, the matrix-free matcher at and
    // above it. Both must reproduce the dense pick exactly.
    const auto dem = memoryDem(9, 2e-3);
    const MwpmDecoder dense(dem, 1, nullptr, MatchingBackend::Dense);
    const MwpmDecoder sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    ASSERT_EQ(sparse.blossomThreshold(), kDefaultBlossomDefects);
    Rng rng(0xc1a57e);
    for (size_t target : {24u, 48u, 56u, 64u, 96u}) {
        std::vector<std::vector<uint32_t>> shots;
        for (int rep = 0; rep < 12; ++rep)
            shots.push_back(
                benchutil::burstCluster(dem, dense.graph(), target, rng));
        EXPECT_EQ(expectSameAsDense(dense, sparse, shots), shots.size())
            << "cluster " << target;
    }
}

TEST(SparseMatching, NoPerfectMatchingFallsBackToAllBoundary)
{
    // Detectors 0-1-2 form a chain with no boundary edge; 3-4 reach the
    // boundary through an observable-flipping edge. Firing {0, 1, 2, 3}
    // leaves an odd defect count in the boundary-free component, so no
    // perfect matching exists and both backends must fall back to
    // matching every defect to the boundary.
    DetectorErrorModel dem;
    dem.numDetectors = 5;
    dem.detectorTag.assign(dem.numDetectors, 0);
    const auto edge = [](int a, int b, bool obs) {
        DemEdge e;
        e.a = a;
        e.b = b;
        e.p = 0.01;
        e.flipsObs = obs;
        return e;
    };
    dem.edges[0] = {edge(0, 1, false), edge(1, 2, true), edge(3, 4, false),
                    edge(4, -1, true)};
    const MwpmDecoder dense(dem, 0, nullptr, MatchingBackend::Dense);
    const MwpmDecoder sparse(dem, 0, nullptr, MatchingBackend::Sparse);
    ASSERT_LT(4u, sparse.blossomThreshold()) << "shot must take the rows path";
    const std::vector<uint32_t> fired{0, 1, 2, 3};
    MwpmScratch ds, ss;
    const bool dp = dense.decode(fired.data(), fired.size(), ds);
    const bool sp = sparse.decode(fired.data(), fired.size(), ss);
    // Only defect 3 reaches the boundary: two edges, one flipping.
    EXPECT_TRUE(dp);
    EXPECT_EQ(ds.lastWeight,
              quantizeMatchWeight(2.0 * std::log((1.0 - 0.01) / 0.01)));
    EXPECT_EQ(sp, dp);
    EXPECT_EQ(ss.lastWeight, ds.lastWeight);
}

TEST(SparseMatching, ViaBoundaryTieUsesTheDenseWitness)
{
    // Detectors 0 and 1 are joined by two equally long shortest paths
    // of opposite observable parity: 0-2-1 (wb + wa, not flipping) and
    // 0-B-1 (wa + wb, flipping). The searches rooted at 0 and at 1 each
    // take their cheaper first hop, so the two rows disagree on the
    // witness. Dense stores the 0-rooted path; whenever the pair is
    // matched the rows path must report that parity. With wa < wb the
    // pair is also beyond 0's former 2 d(0, B) row radius. Detector 3
    // reaches the boundary on its own, which puts the shot through the
    // mirror instance (k = 3); unfired padding detectors shift the
    // boundary's node id and so the tie-break hash that decides whether
    // the tied pair is matched.
    size_t pair_matched = 0;
    for (uint32_t pad = 0; pad < 32; ++pad) {
        const double pa = pad % 2 ? 0.05 : 0.01;
        const double pb = pad % 2 ? 0.01 : 0.05;
        DetectorErrorModel dem;
        dem.numDetectors = 4 + pad;
        dem.detectorTag.assign(dem.numDetectors, 0);
        const auto edge = [](int a, int b, double p, bool obs) {
            DemEdge e;
            e.a = a;
            e.b = b;
            e.p = p;
            e.flipsObs = obs;
            return e;
        };
        dem.edges[0] = {edge(0, -1, pa, true), edge(1, -1, pb, false),
                        edge(0, 2, pb, false), edge(2, 1, pa, false),
                        edge(3, -1, 0.02, false)};
        const MwpmDecoder dense(dem, 0, nullptr, MatchingBackend::Dense);
        const MwpmDecoder sparse(dem, 0, nullptr, MatchingBackend::Sparse);
        MwpmScratch ds, ss;
        for (const std::vector<uint32_t> &fired :
             {std::vector<uint32_t>{0, 1}, std::vector<uint32_t>{0, 1, 3}}) {
            const bool dp = dense.decode(fired.data(), fired.size(), ds);
            const bool sp = sparse.decode(fired.data(), fired.size(), ss);
            EXPECT_EQ(sp, dp) << "pad " << pad << " k " << fired.size();
            EXPECT_EQ(ss.lastWeight, ds.lastWeight) << "pad " << pad;
            // With wb < wa, Dense's witness does not flip, so a
            // non-flipping prediction means the pair was matched.
            pair_matched += pb > pa && !dp;
        }
    }
    EXPECT_GT(pair_matched, 0u) << "the tied pair was never matched";
}

TEST(SparseMatching, SharedScratchMatchesFreshScratch)
{
    // One workspace serves every backend and graph size in turn: the
    // rows path and the matrix-free matcher share its edge list and
    // blossom arena, and the dense path its mate buffer. Interleaving
    // them, with and without an armed deadline ladder, must reproduce
    // what a fresh workspace computes for each shot.
    struct Case
    {
        DetectorErrorModel dem;
        std::vector<std::vector<uint32_t>> shots;
    };
    std::vector<Case> cases;
    Rng rng(0x5ca7c4);
    for (int d : {3, 7}) {
        Case c{memoryDem(d, 6e-3), {}};
        const DecodingGraph g(c.dem, 1, nullptr, MatchingBackend::Sparse);
        for (size_t target : {4u, 12u, 40u, 72u})
            c.shots.push_back(benchutil::burstCluster(c.dem, g, target, rng));
        cases.push_back(std::move(c));
    }
    {
        const auto out = applyStrategyChecked(Strategy::SurfDeformer, 5, 2,
                                              {{5, 5}, {6, 6}})
                             .value();
        ASSERT_TRUE(out.alive);
        MemorySpec spec;
        spec.rounds = 5;
        NoiseParams noise;
        noise.p = 1e-2;
        const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
        Case c{buildDem(built.circuit, PauliType::Z), {}};
        FrameSimulator sim(built.circuit, 4, 0x5ca7);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        for (size_t s = 0; s < sim.shots(); ++s)
            c.shots.emplace_back(syndromes.data(s),
                                 syndromes.data(s) + syndromes.count(s));
        cases.push_back(std::move(c));
    }
    std::vector<std::unique_ptr<const MwpmDecoder>> decoders;
    std::vector<size_t> case_of;
    for (size_t ci = 0; ci < cases.size(); ++ci)
        for (MatchingBackend b :
             {MatchingBackend::Dense, MatchingBackend::Sparse,
              MatchingBackend::SparseBlossom}) {
            decoders.push_back(std::make_unique<const MwpmDecoder>(
                cases[ci].dem, 1, nullptr, b));
            case_of.push_back(ci);
        }

    // Ladder configurations: off; armed with ample budget; armed with
    // the blossom stage overrun (bursts fall to rows); both stages
    // overrun (the caller's union-find floor would answer).
    constexpr uint64_t kSoft = 1000;
    const std::array<std::array<uint64_t, kNumDecodeStages>, 4> stalls{{
        {0, 0, 0}, {0, 0, 0}, {2 * kSoft, 0, 0}, {2 * kSoft, 2 * kSoft, 0}}};
    DecodeDeadline deadline;
    MwpmScratch shared;
    for (size_t mode = 0; mode < stalls.size(); ++mode) {
        deadline.configure(mode == 0 ? 0 : kSoft, /*virtualClock=*/true);
        shared.deadline = &deadline;
        shared.stallNs = stalls[mode];
        for (size_t s = 0; s < 4; ++s)
            for (size_t di = 0; di < decoders.size(); ++di) {
                const auto &fired = cases[case_of[di]].shots[s];
                MwpmScratch fresh;
                fresh.deadline = &deadline;
                fresh.stallNs = stalls[mode];
                const bool a =
                    decoders[di]->decode(fired.data(), fired.size(), shared);
                const bool b =
                    decoders[di]->decode(fired.data(), fired.size(), fresh);
                EXPECT_EQ(a, b) << "mode " << mode << " decoder " << di
                                << " shot " << s << " k " << fired.size();
                EXPECT_EQ(shared.lastWeight, fresh.lastWeight)
                    << "mode " << mode << " decoder " << di << " shot " << s;
                EXPECT_EQ(shared.timedOut, fresh.timedOut);
                EXPECT_EQ(shared.ladder.attempted, fresh.ladder.attempted);
                EXPECT_EQ(shared.ladder.answer, fresh.ladder.answer);
            }
    }
}

TEST(SparseMatching, UnionFindUnchangedByBackendChoice)
{
    // The union-find decoder shares no state with the matching backend;
    // its predictions must be identical however the MWPM graphs are
    // built, and across scratch reuse after the workspace rework.
    const auto out =
        applyStrategyChecked(Strategy::SurfDeformer, 5, 2, {{4, 5}}).value();
    ASSERT_TRUE(out.alive);
    MemorySpec spec;
    spec.rounds = 4;
    NoiseParams noise;
    noise.p = 5e-3;
    const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const UnionFindDecoder uf(dem, 1);
    const MwpmDecoder mwpm_dense(dem, 1, nullptr, MatchingBackend::Dense);
    const MwpmDecoder mwpm_sparse(dem, 1, nullptr, MatchingBackend::Sparse);
    FrameSimulator sim(built.circuit, 500, 3);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    UfScratch reused;
    MwpmScratch ms;
    for (size_t s = 0; s < sim.shots(); ++s) {
        UfScratch fresh;
        const bool a =
            uf.decode(syndromes.data(s), syndromes.count(s), reused);
        const bool b =
            uf.decode(syndromes.data(s), syndromes.count(s), fresh);
        ASSERT_EQ(a, b) << "shot " << s;
        // Interleave MWPM decodes of both backends to prove no shared
        // mutable state leaks into the union-find result.
        (void)mwpm_dense.decode(syndromes.data(s), syndromes.count(s), ms);
        (void)mwpm_sparse.decode(syndromes.data(s), syndromes.count(s), ms);
    }
}

TEST(SparseBlossom, SolverMatchesDenseBlossomOnRandomGraphs)
{
    // The adjacency-list blossom solver must be exact: on every random
    // sparse graph it reports a perfect matching iff the dense blossom
    // does, with identical total weight (the matchings themselves may
    // differ among equal-weight optima).
    Rng rng(0xb1055);
    SparseMatcherScratch scratch;
    std::vector<int> smate;
    for (int trial = 0; trial < 400; ++trial) {
        const int n = 2 * static_cast<int>(1 + rng.below(10)); // 2..20
        std::vector<SparseMatchEdge> edges;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, kMatchForbidden);
        // Sparse-ish edge count, duplicates allowed (cheapest wins).
        const size_t m = rng.below(static_cast<uint64_t>(2 * n) + 1);
        for (size_t e = 0; e < m; ++e) {
            const int a = static_cast<int>(rng.below(n));
            const int b = static_cast<int>(rng.below(n));
            if (a == b)
                continue;
            const auto wt = static_cast<int64_t>(rng.below(1000));
            edges.push_back({a, b, wt});
            auto &slot = w[static_cast<size_t>(a) * n + b];
            auto &slot2 = w[static_cast<size_t>(b) * n + a];
            slot = std::min(slot, wt);
            slot2 = std::min(slot2, wt);
        }
        std::vector<int> dmate;
        const bool dok = minWeightPerfectMatching(n, w, dmate);
        int64_t stotal = -1;
        const bool sok = sparseMinWeightPerfectMatching(n, edges, scratch,
                                                        smate, &stotal);
        ASSERT_EQ(dok, sok) << "trial " << trial << " n " << n;
        if (!dok)
            continue;
        int64_t dtotal = 0;
        for (int v = 0; v < n; ++v) {
            ASSERT_GE(smate[static_cast<size_t>(v)], 0);
            ASSERT_EQ(smate[static_cast<size_t>(
                          smate[static_cast<size_t>(v)])],
                      v)
                << "trial " << trial;
            if (dmate[static_cast<size_t>(v)] > v)
                dtotal += w[static_cast<size_t>(v) * n +
                            dmate[static_cast<size_t>(v)]];
        }
        ASSERT_EQ(stotal, dtotal) << "trial " << trial << " n " << n;
    }
}

TEST(SparseBlossom, SolverHandlesDenseTieHeavyGraphs)
{
    // Near-complete graphs with tiny weight ranges produce many blossoms
    // and equal-weight optima — the stress case for contraction and
    // expansion. Weight equality with the dense blossom must still hold.
    Rng rng(0x70505);
    SparseMatcherScratch scratch;
    std::vector<int> smate;
    for (int trial = 0; trial < 150; ++trial) {
        const int n = 2 * static_cast<int>(2 + rng.below(7)); // 4..16
        std::vector<SparseMatchEdge> edges;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, kMatchForbidden);
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b) {
                if (rng.below(5) == 0)
                    continue; // drop ~20% of pairs
                const auto wt = static_cast<int64_t>(rng.below(4));
                edges.push_back({a, b, wt});
                w[static_cast<size_t>(a) * n + b] = wt;
                w[static_cast<size_t>(b) * n + a] = wt;
            }
        std::vector<int> dmate;
        const bool dok = minWeightPerfectMatching(n, w, dmate);
        int64_t stotal = -1;
        const bool sok = sparseMinWeightPerfectMatching(n, edges, scratch,
                                                        smate, &stotal);
        ASSERT_EQ(dok, sok) << "trial " << trial << " n " << n;
        if (!dok)
            continue;
        int64_t dtotal = 0;
        for (int v = 0; v < n; ++v)
            if (dmate[static_cast<size_t>(v)] > v)
                dtotal += w[static_cast<size_t>(v) * n +
                            dmate[static_cast<size_t>(v)]];
        ASSERT_EQ(stotal, dtotal) << "trial " << trial << " n " << n;
    }
}

TEST(SparseBlossom, WeightEqualsDenseOnRandomDems)
{
    // The matrix-free matcher must produce matchings of exactly the
    // dense blossom's total weight on every shot — including graphs
    // with boundary-free islands (forbidden pairs) and boundary-heavy
    // regions. Predictions may differ only among equal-weight optima.
    Rng rng(0xbeefb105);
    size_t checked = 0, pred_diff = 0;
    for (int trial = 0; trial < 30; ++trial) {
        const DetectorErrorModel dem = randomDem(rng);
        for (uint8_t tag : {0, 1}) {
            const MwpmDecoder dense(dem, tag, nullptr,
                                    MatchingBackend::Dense);
            const MwpmDecoder sb(dem, tag, nullptr,
                                 MatchingBackend::SparseBlossom);
            ASSERT_EQ(sb.backend(), MatchingBackend::SparseBlossom);
            MwpmScratch ds, ss;
            for (int shot = 0; shot < 40; ++shot) {
                std::set<uint32_t> fired_set;
                const size_t n = rng.below(14);
                for (size_t i = 0; i < n; ++i)
                    fired_set.insert(
                        static_cast<uint32_t>(rng.below(dem.numDetectors)));
                const std::vector<uint32_t> fired(fired_set.begin(),
                                                  fired_set.end());
                const bool dp = dense.decode(fired.data(), fired.size(), ds);
                const bool sp = sb.decode(fired.data(), fired.size(), ss);
                ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                    << "trial " << trial << " tag " << int(tag) << " shot "
                    << shot << " k " << fired.size();
                ++checked;
                pred_diff += dp != sp;
            }
        }
    }
    // Differing predictions can only come from equal-weight optima with
    // different parity; they must stay rare even on random weights.
    EXPECT_LE(pred_diff, checked / 20)
        << "matcher diverges from dense far more often than equal-weight "
           "ties can explain";
}

TEST(SparseBlossom, WeightEqualsDenseOnDeformedPatchBothBases)
{
    const auto out = applyStrategyChecked(Strategy::SurfDeformer, 5, 2,
                                          {{5, 5}, {6, 6}})
                         .value();
    ASSERT_TRUE(out.alive);
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        MemorySpec spec;
        spec.rounds = 5;
        spec.basis = basis;
        NoiseParams noise;
        noise.p = 4e-3;
        const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
        const auto dem = buildDem(built.circuit, basis);
        const uint8_t tag = (basis == PauliType::Z) ? 1 : 0;
        const MwpmDecoder dense(dem, tag, nullptr, MatchingBackend::Dense);
        const MwpmDecoder sb(dem, tag, nullptr,
                             MatchingBackend::SparseBlossom);
        FrameSimulator sim(built.circuit, 1200, 0xc0de);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        MwpmScratch ds, ss;
        size_t pred_diff = 0;
        for (size_t s = 0; s < sim.shots(); ++s) {
            const bool dp =
                dense.decode(syndromes.data(s), syndromes.count(s), ds);
            const bool sp =
                sb.decode(syndromes.data(s), syndromes.count(s), ss);
            ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                << "basis " << (basis == PauliType::Z ? "Z" : "X")
                << " shot " << s << " k " << syndromes.count(s);
            pred_diff += dp != sp;
        }
        // Real surface-code weights rarely tie: predictions should
        // agree essentially always.
        EXPECT_LE(pred_diff, sim.shots() / 100);
    }
}

TEST(SparseBlossom, BurstSyndromeWeightEqualityAtHighDefectCounts)
{
    // High-defect burst syndromes on a deformed d=9 patch: clusters of
    // 16..96 fired detectors (the paper's cosmic-ray events light up
    // whole regions). Weight equality with the dense blossom must hold
    // at every size, through the Sparse backend's dispatch as well.
    const auto out =
        applyStrategyChecked(Strategy::SurfDeformer, 9, 2, {{8, 9}}).value();
    ASSERT_TRUE(out.alive);
    MemorySpec spec;
    spec.rounds = 9;
    NoiseParams noise;
    noise.p = 2e-3;
    const BuiltCircuit built = buildMemoryCircuit(out.patch, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    const MwpmDecoder dense(dem, 1, nullptr, MatchingBackend::Dense);
    const MwpmDecoder sb(dem, 1, nullptr, MatchingBackend::SparseBlossom);
    MwpmDecoder dispatch(dem, 1, nullptr, MatchingBackend::Sparse);
    dispatch.setBlossomThreshold(8);
    Rng rng(0xbadc0de);
    MwpmScratch ds, ss, ps;
    for (size_t target : {16u, 32u, 64u, 96u}) {
        for (int rep = 0; rep < 8; ++rep) {
            const std::vector<uint32_t> fired =
                benchutil::burstCluster(dem, dense.graph(), target, rng);
            ASSERT_GE(fired.size(), target / 2);
            (void)dense.decode(fired.data(), fired.size(), ds);
            (void)sb.decode(fired.data(), fired.size(), ss);
            (void)dispatch.decode(fired.data(), fired.size(), ps);
            ASSERT_EQ(ds.lastWeight, ss.lastWeight)
                << "cluster " << target << " rep " << rep << " k "
                << fired.size();
            ASSERT_EQ(ds.lastWeight, ps.lastWeight)
                << "dispatch path, cluster " << target << " rep " << rep;
        }
    }
}

TEST(SparseBlossom, ScenarioFailureCountsIdenticalAcrossBackends)
{
    // The cosmic-ray scenario workload decoded with each of the three
    // matching backends: identical failure counts and per-epoch
    // mismatch tallies. (Weight equality is exact; on this workload the
    // equal-weight tie-breaks happen to agree as well.)
    ScenarioConfig cfg;
    cfg.timeline.strategy = Strategy::SurfDeformer;
    cfg.timeline.d = 5;
    cfg.timeline.deltaD = 2;
    cfg.timeline.horizonRounds = 60;
    cfg.timeline.windowRounds = 10;
    cfg.timeline.maxEpochRounds = 10;
    cfg.defectModel.durationSec = 20e-6;
    cfg.defectModel.regionDiameter = 2;
    cfg.eventRateScale = 100000.0;
    cfg.numTimelines = 4;
    cfg.noise.p = 4e-3;
    cfg.maxShotsPerTimeline = 96;
    cfg.batchShots = 96;
    cfg.seed = 0x5ce7a210;
    cfg.decoder = DecoderKind::Mwpm;

    bool have_ref = false;
    uint64_t ref_failures = 0;
    std::vector<uint64_t> ref_mism;
    for (MatchingBackend b :
         {MatchingBackend::Dense, MatchingBackend::Sparse,
          MatchingBackend::SparseBlossom}) {
        cfg.matching = b;
        const ScenarioResult res = runScenarioExperimentChecked(cfg).value();
        EXPECT_GT(res.shots, 0u);
        std::vector<uint64_t> mism;
        for (const auto &tl : res.timelines)
            for (const auto &ep : tl.epochs)
                mism.push_back(ep.mismatches);
        if (!have_ref) {
            ref_failures = res.failures;
            ref_mism = mism;
            have_ref = true;
            EXPECT_GT(res.failures, 0u)
                << "workload too quiet to distinguish backends";
        } else {
            EXPECT_EQ(res.failures, ref_failures)
                << "backend " << static_cast<int>(b);
            EXPECT_EQ(mism, ref_mism) << "backend " << static_cast<int>(b);
        }
    }
}

TEST(SparseMatching, D13MemoryExperimentSmoke)
{
    // d = 13: the dense backend's per-shape APSP build (triangular
    // tables over ~1200 nodes per tag) makes scenario-scale sweeps
    // impractical; the sparse backend runs it directly. Smoke-check the
    // full pipeline end to end at the default (sparse) backend.
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = 13;
    cfg.noise.p = 1e-3;
    cfg.maxShots = 256;
    cfg.batchShots = 128;
    cfg.targetFailures = 1u << 30;
    cfg.threads = 2;
    cfg.decoder = DecoderKind::Mwpm;
    const auto res = runMemoryExperiment(squarePatch(13), cfg);
    EXPECT_EQ(res.shots, 256u);
    EXPECT_LT(res.pShot, 0.1);
    EXPECT_GT(res.numDetectors, 1000u);
}

} // namespace
} // namespace surf
