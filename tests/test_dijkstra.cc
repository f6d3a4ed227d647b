/**
 * @file
 * Oracle tests for DecodingGraph's Dijkstra kernel. Every (source,
 * target) cell of the memoized rows and of the Dense all-pairs tables
 * must equal the binary-heap search in tests/dijkstra_reference.hh in
 * its float bits and its parity witness, on pristine memory graphs at
 * d = 3..13 in both bases, on an untreated defective patch, on
 * Surf-Deformer-deformed, fab-adapted and stitched-segment graphs, and on random DEMs with exact weight ties,
 * parallel edges of opposite parity, unreachable nodes and weights at
 * both clamp ends. Also: one scratch reused across graphs that grow and
 * shrink and across the generation-stamp wrap gives a fresh scratch's
 * rows and leaves every bucket empty, a warm scratch does not grow, and
 * the constructor's weights stay finite and positive for any p.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/strategies.hh"
#include "decode/graph.hh"
#include "defects/defect_sampler.hh"
#include "defects/fab_defects.hh"
#include "dijkstra_reference.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/segment.hh"
#include "sim/syndrome_circuit.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace surf {
namespace {

uint32_t
bitsOf(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof b);
    return b;
}

/**
 * Compare every row of a Sparse graph and every cell of a Dense graph
 * over `dem` at `tag` with the reference search; stops at the first
 * mismatch. Returns the number of cells compared.
 */
size_t
expectMatchesReference(const DetectorErrorModel &dem, uint8_t tag,
                       ThreadPool &pool, const std::string &what)
{
    const DecodingGraph sparse(dem, tag, nullptr, MatchingBackend::Sparse);
    const DecodingGraph dense(dem, tag, &pool, MatchingBackend::Dense);
    EXPECT_EQ(sparse.csrDigest(), dense.csrDigest()) << what;
    const int n = static_cast<int>(sparse.numNodes());
    DijkstraScratch sc;
    size_t cells = 0;
    for (int src = 0; src <= n; ++src) {
        const testref::ReferenceRow ref = testref::referenceSearch(sparse,
                                                                   src);
        if (src < n) { // the boundary has no row
            const DecodingGraph::Row &row = sparse.row(src, sc);
            for (int t = 0; t <= n; ++t, ++cells) {
                const auto ti = static_cast<size_t>(t);
                if (bitsOf(row.dist[ti]) != bitsOf(ref.dist[ti]) ||
                    row.par[ti] != ref.par[ti]) {
                    ADD_FAILURE() << what << " tag " << int(tag) << ": row "
                                  << src << " target " << t << " has ("
                                  << row.dist[ti] << ", " << int(row.par[ti])
                                  << "), reference (" << ref.dist[ti] << ", "
                                  << int(ref.par[ti]) << ")";
                    return cells;
                }
            }
        }
        // The Dense table stores the src-rooted search for targets >= src.
        for (int t = src; t <= n; ++t, ++cells) {
            const auto ti = static_cast<size_t>(t);
            const auto dd = static_cast<float>(dense.dist(src, t));
            if (bitsOf(dd) != bitsOf(ref.dist[ti]) ||
                dense.obsParity(src, t) != (ref.par[ti] != 0)) {
                ADD_FAILURE() << what << " tag " << int(tag)
                              << ": dense cell (" << src << ", " << t
                              << ") has (" << dd << ", "
                              << dense.obsParity(src, t) << "), reference ("
                              << ref.dist[ti] << ", " << int(ref.par[ti])
                              << ")";
                return cells;
            }
        }
    }
    return cells;
}

/** Both tags of one DEM; returns the number of cells compared. */
size_t
expectBothTagsMatch(const DetectorErrorModel &dem, ThreadPool &pool,
                    const std::string &what)
{
    return expectMatchesReference(dem, 0, pool, what) +
           expectMatchesReference(dem, 1, pool, what);
}

DetectorErrorModel
memoryDem(const CodePatch &patch, PauliType basis, int rounds,
          const NoiseParams &noise)
{
    MemorySpec spec;
    spec.basis = basis;
    spec.rounds = rounds;
    return buildDem(buildMemoryCircuit(patch, spec, noise).circuit, basis);
}

TEST(DijkstraOracle, PristineMemoryBothBases)
{
    ThreadPool pool(2);
    NoiseParams noise;
    noise.p = 1e-3;
    for (int d = 3; d <= 13; d += 2)
        for (PauliType basis : {PauliType::Z, PauliType::X}) {
            const std::string what =
                "d=" + std::to_string(d) +
                (basis == PauliType::Z ? " Z" : " X");
            EXPECT_GT(expectBothTagsMatch(
                          memoryDem(squarePatch(d), basis, d, noise), pool,
                          what),
                      0u)
                << what;
        }
}

TEST(DijkstraOracle, DefectiveDeformedAndFabAdaptedPatches)
{
    ThreadPool pool(2);
    // An untreated d=7 patch with a burst region at the saturated rate:
    // its edges at p = 0.5 sit at the upper clamp end.
    const std::set<Coord> burst = DefectSampler::regionSites({7, 7}, 2);
    NoiseParams untreated;
    untreated.p = 3e-3;
    untreated.defectiveSites = burst;
    for (PauliType basis : {PauliType::Z, PauliType::X})
        expectBothTagsMatch(memoryDem(squarePatch(7), basis, 5, untreated),
                            pool, "untreated d=7");

    // Surf-Deformer removal + enlargement around burst regions.
    struct Case
    {
        int d;
        std::set<Coord> sites;
    };
    const Case cases[] = {
        {5, {{5, 5}, {6, 6}}},
        {7, burst},
    };
    for (const Case &c : cases) {
        const auto out =
            applyStrategyChecked(Strategy::SurfDeformer, c.d, 2, c.sites)
                .value();
        ASSERT_TRUE(out.alive);
        NoiseParams noise;
        noise.p = 3e-3;
        noise.defectiveSites = out.residualDefects;
        for (PauliType basis : {PauliType::Z, PauliType::X})
            expectBothTagsMatch(memoryDem(out.patch, basis, 5, noise), pool,
                                "deformed d=" + std::to_string(c.d));
    }

    // Bandage-adapted fabrication defects.
    int adapted = 0;
    for (uint64_t seed = 1; seed <= 20 && adapted < 3; ++seed) {
        FabDefectModel m;
        m.qubitRate = 0.08;
        m.couplerRate = 0.04;
        m.seed = seed;
        const auto sample = sampleFabDefectsChecked(squarePatch(5), m);
        ASSERT_TRUE(sample.ok());
        if (sample->empty())
            continue;
        const auto adapt = adaptFabDefectsChecked(Strategy::SurfDeformer, 5,
                                                  2, *sample);
        ASSERT_TRUE(adapt.ok());
        if (!adapt->outcome.alive)
            continue;
        NoiseParams noise;
        noise.p = 2e-3;
        noise.defectiveSites = adapt->outcome.residualDefects;
        for (PauliType basis : {PauliType::Z, PauliType::X})
            expectBothTagsMatch(memoryDem(adapt->outcome.patch, basis, 4,
                                          noise),
                                pool, "fab seed " + std::to_string(seed));
        ++adapted;
    }
    EXPECT_GE(adapted, 2);
}

TEST(DijkstraOracle, StitchedTimelineAndStandaloneSegments)
{
    // A 3-epoch d=5 timeline with a strike in the middle epoch: the
    // stitched circuit and each epoch's standalone decoder segment.
    ThreadPool pool(2);
    const std::set<Coord> strike = DefectSampler::regionSites({5, 5}, 2);
    const uint64_t bounds[4] = {0, 4, 9, 13};
    const std::set<Coord> active[3] = {{}, strike, {}};
    std::vector<StrategyOutcome> outcomes;
    for (const auto &sites : active) {
        outcomes.push_back(
            applyStrategyChecked(Strategy::SurfDeformer, 5, 2, sites)
                .value());
        ASSERT_TRUE(outcomes.back().alive);
    }
    NoiseParams noise;
    noise.p = 4e-3;
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        Circuit stitched;
        std::map<Coord, uint32_t> qubit_id;
        SeamState carry;
        const CodePatch *prev = nullptr;
        std::vector<Coord> tracked;
        for (size_t e = 0; e < 3; ++e) {
            const CodePatch &patch = outcomes[e].patch;
            SegmentSpec spec;
            spec.basis = basis;
            spec.rounds = static_cast<int>(bounds[e + 1] - bounds[e]);
            spec.startRound = bounds[e];
            spec.first = e == 0;
            spec.last = e == 2;
            const SeamPlan seam =
                computeSeamPlan(prev, patch, basis, active[e], bounds[e],
                                e ? &tracked : nullptr);
            tracked = seam.trackedLogical;
            NoiseParams samp = noise;
            samp.defectiveSites = outcomes[e].residualDefects;
            for (const Coord &q : seam.removed)
                if (active[e].count(q))
                    samp.defectiveSites.insert(q);
            carry = appendSegment(stitched, qubit_id, patch, spec, samp,
                                  seam, e ? &carry : nullptr, false)
                        .carry;
            expectBothTagsMatch(
                buildDem(buildStandaloneSegment(patch, spec, samp, seam,
                                                prev),
                         basis),
                pool, "segment " + std::to_string(e));
            prev = &patch;
        }
        expectBothTagsMatch(buildDem(stitched, basis), pool, "stitched");
    }
}

/**
 * Random graphlike DEM built to stress the pop order: weights from a few
 * repeated probabilities (exact distance ties), both clamp ends (p at or
 * past 1e-14 and 0.499999), parallel twins of opposite parity, detectors
 * with no edge, and islands that may lack a boundary edge.
 */
DetectorErrorModel
tieHeavyDem(Rng &rng)
{
    static const double kProbs[] = {1e-3, 1e-3, 1e-3, 2e-2,
                                    0.499999, 0.7, 1e-14, 0.0};
    DetectorErrorModel dem;
    dem.numDetectors = 8 + rng.below(48);
    dem.detectorTag.resize(dem.numDetectors);
    std::vector<int> by_tag[2];
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        dem.detectorTag[d] = static_cast<uint8_t>(rng.below(2));
        // About one detector in eight never gets an edge.
        if (rng.below(8) != 0)
            by_tag[dem.detectorTag[d]].push_back(static_cast<int>(d));
    }
    for (int tag = 0; tag < 2; ++tag) {
        const auto &dets = by_tag[tag];
        if (dets.empty())
            continue;
        const size_t n_edges = dets.size() + rng.below(2 * dets.size() + 1);
        for (size_t i = 0; i < n_edges; ++i) {
            DemEdge e;
            e.a = dets[rng.below(dets.size())];
            e.b = rng.below(6) == 0 ? -1 : dets[rng.below(dets.size())];
            if (e.a == e.b)
                continue;
            e.p = kProbs[rng.below(std::size(kProbs))];
            e.flipsObs = rng.below(2) == 0;
            dem.edges[tag].push_back(e);
            if (rng.below(4) == 0) {
                DemEdge twin = e;
                std::swap(twin.a, twin.b);
                twin.flipsObs = !e.flipsObs;
                dem.edges[tag].push_back(twin);
            }
        }
    }
    return dem;
}

TEST(DijkstraOracle, RandomTieHeavyDems)
{
    ThreadPool pool(2);
    Rng rng(0xd15'7a11ULL);
    for (int trial = 0; trial < 300; ++trial)
        expectBothTagsMatch(tieHeavyDem(rng), pool,
                            "trial " + std::to_string(trial));
}

void
expectBucketsEmpty(const DijkstraScratch &sc, const std::string &what)
{
    for (size_t b = 0; b < sc.buckets.size(); ++b)
        ASSERT_TRUE(sc.buckets[b].empty()) << what << ": bucket " << b;
}

TEST(DijkstraScratch, ReuseMatchesFreshScratchAcrossSizesAndWrap)
{
    // One scratch over graphs that grow, shrink and grow again, with the
    // generation stamp wrapping on the first search of the fourth graph.
    NoiseParams noise;
    noise.p = 5e-3;
    Rng rng(77);
    std::vector<DetectorErrorModel> dems;
    for (int d : {3, 7, 5, 9, 3})
        dems.push_back(memoryDem(squarePatch(d), PauliType::Z, d, noise));
    dems.push_back(tieHeavyDem(rng));
    dems.push_back(memoryDem(squarePatch(7), PauliType::X, 7, noise));
    DijkstraScratch shared;
    for (size_t g = 0; g < dems.size(); ++g) {
        if (g == 3) {
            // The state of a scratch about to wrap whose nodes were last
            // reached by search 1 (later searches ran on graphs that
            // never reached them): a wrap that kept these stamps would
            // take every node for visited at a stale distance.
            std::fill(shared.gen.begin(), shared.gen.end(), 1u);
            shared.cur = UINT32_MAX;
        }
        for (uint8_t tag : {0, 1}) {
            const DecodingGraph reused(dems[g], tag, nullptr,
                                       MatchingBackend::Sparse);
            const DecodingGraph fresh(dems[g], tag, nullptr,
                                      MatchingBackend::Sparse);
            for (int src = 0; src < static_cast<int>(reused.numNodes());
                 ++src) {
                const std::string what = "graph " + std::to_string(g) +
                                         " tag " + std::to_string(tag) +
                                         " src " + std::to_string(src);
                const DecodingGraph::Row &a = reused.row(src, shared);
                expectBucketsEmpty(shared, what);
                DijkstraScratch own;
                const DecodingGraph::Row &b = fresh.row(src, own);
                ASSERT_EQ(a.dist.size(), b.dist.size()) << what;
                ASSERT_EQ(std::memcmp(a.dist.data(), b.dist.data(),
                                      a.dist.size() * sizeof(float)),
                          0)
                    << what;
                ASSERT_EQ(a.par, b.par) << what;
            }
        }
    }
    EXPECT_LT(shared.cur, 10000u) << "the stamp never wrapped";
}

TEST(DijkstraScratch, WarmScratchDoesNotGrow)
{
    NoiseParams noise;
    noise.p = 5e-3;
    const DetectorErrorModel dem =
        memoryDem(squarePatch(7), PauliType::Z, 7, noise);
    DijkstraScratch sc;
    auto capacities = [&sc] {
        std::vector<size_t> out;
        for (const auto &b : sc.buckets)
            out.push_back(b.capacity());
        out.push_back(sc.dist.capacity());
        return out;
    };
    auto allRows = [&] {
        const DecodingGraph g(dem, 1, nullptr, MatchingBackend::Sparse);
        for (int src = 0; src < static_cast<int>(g.numNodes()); ++src)
            (void)g.row(src, sc);
    };
    allRows();
    const std::vector<size_t> warm = capacities();
    allRows();
    EXPECT_EQ(capacities(), warm);
}

/** One-tag DEM whose edges carry the given probabilities: a path
 *  0-1-2-... plus a boundary edge at each end. */
DetectorErrorModel
pathDem(const std::vector<double> &probs)
{
    DetectorErrorModel dem;
    dem.numDetectors = static_cast<uint32_t>(probs.size()) - 1;
    dem.detectorTag.assign(dem.numDetectors, 0);
    for (size_t i = 0; i < probs.size(); ++i) {
        DemEdge e;
        e.a = i == 0 ? -1 : static_cast<int>(i) - 1;
        e.b = i + 1 == probs.size() ? -1 : static_cast<int>(i);
        e.p = probs[i];
        dem.edges[0].push_back(e);
    }
    return dem;
}

TEST(DecodingGraph, ExtremeProbabilitiesGiveFinitePositiveWeights)
{
    const DetectorErrorModel dem = pathDem({0.0, 1e-300, 0.5, 1.0});
    for (MatchingBackend backend :
         {MatchingBackend::Sparse, MatchingBackend::Dense}) {
        const DecodingGraph g(dem, 0, nullptr, backend);
        ASSERT_EQ(g.csrWeights().size(), 8u);
        for (double w : g.csrWeights()) {
            EXPECT_TRUE(std::isfinite(w)) << w;
            EXPECT_GT(w, 0.0);
        }
    }
}

TEST(DecodingGraphDeathTest, NanProbabilityIsRejected)
{
    const DetectorErrorModel dem = pathDem({1e-3, std::nan(""), 1e-3});
    EXPECT_DEATH(DecodingGraph(dem, 0, nullptr, MatchingBackend::Sparse),
                 "edge weight");
}

} // namespace
} // namespace surf
