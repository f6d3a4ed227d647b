// Union-find decoder: equivalence with the full-scan reference oracle
// (memory experiments and random graphs), termination on boundary-free
// components, scratch reuse across decoders of different sizes, and one
// decoder shared by several threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/strategies.hh"
#include "decode/union_find.hh"
#include "defects/fab_defects.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "uf_reference.hh"
#include "util/rng.hh"

namespace surf {
namespace {

using testref::ReferenceUnionFind;
using Shot = std::vector<uint32_t>;

/** One decoder graph plus the shots it is fuzzed with. */
struct Case
{
    std::string name;
    DetectorErrorModel dem;
    uint8_t tag = 1;
    std::vector<Shot> shots;
};

uint8_t
tagOf(PauliType basis)
{
    return basis == PauliType::Z ? 1 : 0;
}

/**
 * A memory experiment on `patch`: sampled shots at noise `p`, variants of
 * some of them with duplicated ids appended and the order shuffled (the
 * duplicates cancel), and bursts of contiguous detector ids.
 */
Case
memoryCase(const std::string &name, const CodePatch &patch, PauliType basis,
           int rounds, double p, size_t shots, uint64_t seed)
{
    MemorySpec spec;
    spec.basis = basis;
    spec.rounds = rounds;
    NoiseParams noise;
    noise.p = p;
    const BuiltCircuit built = buildMemoryCircuit(patch, spec, noise);
    Case c;
    c.name = name + (basis == PauliType::Z ? " Z" : " X");
    c.dem = buildDem(built.circuit, basis);
    c.tag = tagOf(basis);
    FrameSimulator sim(built.circuit, shots, seed);
    const SparseSyndromes syn = sim.sparseFiredDetectors();
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const uint64_t nd = c.dem.numDetectors;
    for (size_t s = 0; s < syn.shots(); ++s) {
        c.shots.push_back(syn.shotVector(s));
        if (s % 4 == 0) {
            Shot dup = syn.shotVector(s);
            for (int i = 0; i < 3; ++i) {
                const uint32_t id = static_cast<uint32_t>(rng.below(nd));
                dup.push_back(id);
                dup.push_back(id);
            }
            if (!dup.empty())
                dup.push_back(dup.front()); // cancels one real defect
            for (size_t i = dup.size(); i > 1; --i)
                std::swap(dup[i - 1], dup[rng.below(i)]);
            c.shots.push_back(std::move(dup));
        }
    }
    for (int b = 0; b < 16; ++b) {
        const uint64_t len = 1 + rng.below(std::min<uint64_t>(nd, 96));
        const uint64_t start = rng.below(nd - len + 1);
        Shot burst;
        for (uint64_t d = start; d < start + len; ++d)
            burst.push_back(static_cast<uint32_t>(d));
        c.shots.push_back(std::move(burst));
    }
    return c;
}

/** A copy of `dem` whose edges flip the observable at random, so that
 *  a prediction acts as a hash of the correction's edge set. */
DetectorErrorModel
withRandomObs(DetectorErrorModel dem, uint64_t seed)
{
    Rng rng(seed);
    for (auto &edges : dem.edges)
        for (DemEdge &e : edges)
            e.flipsObs = rng.bernoulli(0.5);
    return dem;
}

/** Shot-by-shot mismatches of the decoder against the oracle on the
 *  case's DEM and on `copies` randomized-observable copies of it. */
size_t
oracleMismatches(const Case &c, int copies, UfScratch &sc)
{
    size_t mismatches = 0;
    for (int k = 0; k <= copies; ++k) {
        const DetectorErrorModel dem =
            k == 0 ? c.dem : withRandomObs(c.dem, 1000 + k);
        const UnionFindDecoder uf(dem, c.tag);
        const ReferenceUnionFind ref(dem, c.tag);
        for (size_t s = 0; s < c.shots.size(); ++s) {
            const Shot &shot = c.shots[s];
            const bool got = uf.decode(shot.data(), shot.size(), sc);
            const bool want = ref.decode(shot.data(), shot.size());
            if (got != want) {
                ++mismatches;
                ADD_FAILURE() << c.name << " copy " << k << " shot " << s
                              << " (" << shot.size() << " ids)";
            }
        }
    }
    return mismatches;
}

std::vector<Case>
oracleCorpus()
{
    std::vector<Case> corpus;
    for (PauliType basis : {PauliType::Z, PauliType::X}) {
        for (int d = 3; d <= 13; d += 2)
            corpus.push_back(memoryCase("pristine d=" + std::to_string(d),
                                        squarePatch(d), basis,
                                        std::min(d, 7), 8e-3, 96,
                                        static_cast<uint64_t>(d)));
        const std::vector<std::set<Coord>> strikes = {
            {{6, 7}}, {{4, 5}, {8, 9}}, {{7, 6}, {7, 8}, {5, 6}}};
        for (size_t i = 0; i < strikes.size(); ++i) {
            const auto out =
                applyStrategyChecked(Strategy::SurfDeformer, 7, 2, strikes[i])
                    .value();
            EXPECT_TRUE(out.alive) << "strike set " << i;
            if (out.alive)
                corpus.push_back(memoryCase(
                    "deformed d=7 #" + std::to_string(i), out.patch, basis,
                    5, 8e-3, 96, 40 + i));
        }
        for (uint64_t seed : {3, 6, 11}) {
            FabDefectModel m;
            m.qubitRate = seed == 6 ? 0.34 : 0.08;
            m.couplerRate = 0.05;
            m.seed = seed;
            const int d = seed == 6 ? 7 : 5;
            const FabAdaptation fab =
                adaptFabDefectsChecked(
                    Strategy::SurfDeformer, d, seed == 6 ? 0 : 2,
                    sampleFabDefectsChecked(squarePatch(d), m).value())
                    .value();
            if (fab.outcome.alive)
                corpus.push_back(memoryCase(
                    "fab chip seed " + std::to_string(seed),
                    fab.outcome.patch, basis, 4, 8e-3, 96, 70 + seed));
        }
        // The union-find benchmark point (k p50 ~176 over both bases),
        // and a dense point where many unions land in one round.
        corpus.push_back(memoryCase("workload d=13 p=5e-3", squarePatch(13),
                                    basis, 13, 5e-3, 64, 130));
        corpus.push_back(memoryCase("dense d=9 p=1.5e-2", squarePatch(9),
                                    basis, 9, 1.5e-2, 96, 150));
    }
    return corpus;
}

TEST(UnionFind, MatchesFullScanReferenceOnEveryShot)
{
    // The event-driven decoder must reproduce the full-scan growth
    // exactly: the same clusters, the same forest, the same peeling. One
    // scratch serves the whole corpus, as on a worker thread.
    const std::vector<Case> corpus = oracleCorpus();
    ASSERT_GE(corpus.size(), 20u);
    UfScratch sc;
    size_t shots = 0, mismatches = 0;
    for (const Case &c : corpus) {
        mismatches += oracleMismatches(c, 3, sc);
        shots += 4 * c.shots.size();
        EXPECT_TRUE(sc.clean()) << c.name;
    }
    EXPECT_EQ(mismatches, 0u) << "over " << shots << " decodes";
    EXPECT_GT(shots, 10000u);
}

/** The edge probability whose quantized weight is `units` growth units
 *  (the decoders round 4 ln((1 - p) / p) and clamp p to [1e-14, 0.5)). */
double
probOfUnits(int units)
{
    return 1.0 / (1.0 + std::exp(units / 4.0));
}

/**
 * A random graph of `n` detectors (some of the other tag, which the
 * decoder must ignore) split into a few components, each a random
 * spanning tree plus extra and parallel edges. Only some components get
 * boundary edges. Weights come from a handful of values in [1, 129], so
 * many edges tie and fuse in the same round.
 */
DetectorErrorModel
randomGraphDem(Rng &rng, int n)
{
    DetectorErrorModel dem;
    dem.numDetectors = static_cast<size_t>(n);
    for (int d = 0; d < n; ++d)
        dem.detectorTag.push_back(rng.bernoulli(0.1) ? 0 : 1);
    std::vector<int> nodes;
    for (int d = 0; d < n; ++d)
        if (dem.detectorTag[static_cast<size_t>(d)] == 1)
            nodes.push_back(d);
    for (size_t i = nodes.size(); i > 1; --i)
        std::swap(nodes[i - 1], nodes[rng.below(i)]);

    std::vector<int> weights(1 + rng.below(4));
    for (int &w : weights)
        w = 1 + static_cast<int>(rng.below(rng.bernoulli(0.3) ? 129 : 12));
    const auto edge = [&](int a, int b) {
        const int units = weights[rng.below(weights.size())];
        dem.edges[1].push_back(
            {a, b, probOfUnits(units), rng.bernoulli(0.5)});
    };
    const size_t comps = 1 + rng.below(4);
    size_t begin = 0;
    for (size_t c = 0; c < comps && begin < nodes.size(); ++c) {
        const size_t end = c + 1 == comps
                               ? nodes.size()
                               : begin + 1 + rng.below(nodes.size() - begin);
        const std::vector<int> comp(nodes.begin() + static_cast<long>(begin),
                                    nodes.begin() + static_cast<long>(end));
        for (size_t i = 1; i < comp.size(); ++i)
            edge(comp[rng.below(i)], comp[i]);
        const size_t extra = rng.below(2 * comp.size() + 1);
        for (size_t i = 0; comp.size() > 1 && i < extra; ++i) {
            const int a = comp[rng.below(comp.size())];
            const int b = comp[rng.below(comp.size())];
            if (a != b)
                edge(a, b);
        }
        if (rng.bernoulli(0.7)) {
            const size_t nb = 1 + rng.below(comp.size());
            for (size_t i = 0; i < nb; ++i)
                edge(rng.bernoulli(0.5) ? -1 : comp[rng.below(comp.size())],
                     rng.bernoulli(0.5) ? -1 : comp[rng.below(comp.size())]);
        }
        begin = end;
    }
    // Shuffle so that edge ids do not follow the construction order.
    std::vector<DemEdge> &es = dem.edges[1];
    for (size_t i = es.size(); i > 1; --i)
        std::swap(es[i - 1], es[rng.below(i)]);
    return dem;
}

TEST(UnionFind, MatchesReferenceOnRandomGraphs)
{
    // Small random graphs reach corners the memory experiments rarely
    // do: several fusions in one round, an even cluster absorbed mid-round
    // with open edges on both sides of the fusing edge's id, weights up to
    // the 129-unit maximum, and odd clusters trapped in components with no
    // boundary edge.
    Rng rng(2026);
    UfScratch sc;
    size_t decodes = 0, mismatches = 0;
    for (int g = 0; g < 400; ++g) {
        const int n = 8 + static_cast<int>(rng.below(53));
        const DetectorErrorModel dem = randomGraphDem(rng, n);
        const UnionFindDecoder uf(dem, 1);
        const ReferenceUnionFind ref(dem, 1);
        for (int s = 0; s < 40; ++s) {
            const double density = (1 + rng.below(8)) / 16.0;
            Shot shot;
            for (int d = 0; d < n; ++d)
                if (rng.bernoulli(density))
                    shot.push_back(static_cast<uint32_t>(d));
            const bool got = uf.decode(shot.data(), shot.size(), sc);
            const bool want = ref.decode(shot.data(), shot.size());
            if (got != want) {
                ++mismatches;
                ADD_FAILURE() << "graph " << g << " (" << n << " detectors)"
                              << " shot " << s;
            }
            ASSERT_TRUE(sc.clean()) << "graph " << g << " shot " << s;
            ++decodes;
        }
    }
    EXPECT_EQ(mismatches, 0u) << "over " << decodes << " decodes";
}

TEST(UnionFind, SharedDecoderAcrossThreadsMatchesSerial)
{
    // The decoder is immutable: four threads, each with its own scratch,
    // decode every shot of one shared decoder and must reproduce the
    // serial predictions.
    const Case c = memoryCase("d=9 p=1e-2", squarePatch(9), PauliType::Z, 9,
                              1e-2, 256, 9);
    const UnionFindDecoder uf(c.dem, c.tag);
    UfScratch serial_sc;
    std::vector<uint8_t> serial;
    for (const Shot &shot : c.shots)
        serial.push_back(uf.decode(shot.data(), shot.size(), serial_sc));

    constexpr size_t kThreads = 4;
    std::vector<std::vector<uint8_t>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            UfScratch sc;
            // Each thread walks the shots from its own offset, so the
            // threads decode different shots at the same time.
            const size_t n = c.shots.size();
            got[t].assign(n, 2);
            for (size_t i = 0; i < n; ++i) {
                const size_t s = (i + t * n / kThreads) % n;
                const Shot &shot = c.shots[s];
                got[t][s] = uf.decode(shot.data(), shot.size(), sc);
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], serial) << "thread " << t;
}

TEST(UnionFind, HaltsOnOddDefectsWithoutBoundaryEdge)
{
    // Two detectors joined by one edge and no boundary edge: a single
    // fired detector leaves an odd cluster that can never neutralize.
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.detectorTag = {1, 1};
    dem.edges[1].push_back({0, 1, 0.01, true});
    const UnionFindDecoder uf(dem, 1);
    const ReferenceUnionFind ref(dem, 1);
    UfScratch sc;
    for (const Shot &shot : std::vector<Shot>{{0}, {1}, {0, 1}, {1, 0, 1}}) {
        EXPECT_EQ(uf.decode(shot.data(), shot.size(), sc),
                  ref.decode(shot.data(), shot.size()));
        EXPECT_TRUE(sc.clean());
    }
    const Shot both = {0, 1};
    EXPECT_TRUE(uf.decode(both.data(), both.size(), sc));
}

TEST(UnionFind, HaltsOnBoundaryFreeComponentOfAFabricatedChip)
{
    // A heavily broken d=7 chip adapted without growth leaves detectors
    // in the X-basis graph whose component has no boundary edge. Fire
    // odd subsets of such a component (contiguous ids, as a burst fault
    // does): the decoder must answer, and agree with the oracle.
    FabDefectModel m;
    m.qubitRate = 0.34;
    m.couplerRate = 0.05;
    m.seed = 6;
    const FabAdaptation fab =
        adaptFabDefectsChecked(
            Strategy::SurfDeformer, 7, 0,
            sampleFabDefectsChecked(squarePatch(7), m).value())
            .value();
    ASSERT_TRUE(fab.outcome.alive);
    MemorySpec spec;
    spec.basis = PauliType::X;
    spec.rounds = 7;
    NoiseParams noise;
    noise.p = 1e-3;
    const BuiltCircuit built =
        buildMemoryCircuit(fab.outcome.patch, spec, noise);
    const DetectorErrorModel dem = buildDem(built.circuit, PauliType::X);
    const uint8_t tag = 0;

    // Components of the tag's detector graph; mark those with a boundary.
    std::vector<int> comp(dem.numDetectors);
    for (size_t d = 0; d < comp.size(); ++d)
        comp[d] = static_cast<int>(d);
    const auto root = [&](int v) {
        while (comp[static_cast<size_t>(v)] != v)
            v = comp[static_cast<size_t>(v)];
        return v;
    };
    for (const DemEdge &e : dem.edges[tag])
        if (e.a >= 0 && e.b >= 0)
            comp[static_cast<size_t>(root(e.a))] = root(e.b);
    std::set<int> bounded;
    for (const DemEdge &e : dem.edges[tag])
        if ((e.a < 0) != (e.b < 0))
            bounded.insert(root(e.a < 0 ? e.b : e.a));
    std::vector<uint32_t> trapped;
    for (uint32_t d = 0; d < dem.numDetectors; ++d)
        if (dem.detectorTag[d] == tag && !bounded.count(root(int(d))))
            trapped.push_back(d);
    ASSERT_FALSE(trapped.empty())
        << "chip no longer has a boundary-free component";

    const UnionFindDecoder uf(dem, tag);
    const ReferenceUnionFind ref(dem, tag);
    UfScratch sc;
    size_t odd = 0;
    for (size_t i = 0; i < trapped.size(); ++i) {
        // Single trapped detectors, and bursts of contiguous ids that
        // start at one.
        for (uint32_t len : {1u, 2u, 5u, 17u}) {
            Shot burst;
            for (uint32_t d = trapped[i];
                 d < trapped[i] + len && d < dem.numDetectors; ++d)
                burst.push_back(d);
            size_t hits = 0;
            for (uint32_t d : burst)
                hits += root(int(d)) == root(int(trapped[i]));
            odd += hits % 2;
            EXPECT_EQ(uf.decode(burst.data(), burst.size(), sc),
                      ref.decode(burst.data(), burst.size()))
                << "burst at " << trapped[i] << " length " << len;
            EXPECT_TRUE(sc.clean());
        }
    }
    EXPECT_GT(odd, 0u);
}

TEST(UnionFind, SharedScratchAcrossDecoderSizesMatchesFreshScratch)
{
    // The scenario engine gives each worker one scratch and hands it
    // every epoch's decoder in turn. Interleave d=3, d=5 and a deformed
    // patch shot by shot: each result must equal a fresh scratch's, and
    // the shared scratch must be clean after every decode.
    const auto deformed =
        applyStrategyChecked(Strategy::SurfDeformer, 5, 2, {{4, 5}}).value();
    ASSERT_TRUE(deformed.alive);
    const std::vector<Case> cases = {
        memoryCase("d=3", squarePatch(3), PauliType::Z, 3, 1e-2, 150, 1),
        memoryCase("d=5", squarePatch(5), PauliType::Z, 5, 1e-2, 150, 2),
        memoryCase("deformed d=5", deformed.patch, PauliType::X, 4, 1e-2,
                   150, 3)};
    std::vector<UnionFindDecoder> decoders;
    for (const Case &c : cases)
        decoders.emplace_back(c.dem, c.tag);
    UfScratch shared;
    size_t compared = 0;
    for (size_t s = 0;; ++s) {
        bool any = false;
        // Forward and backward sweeps make the scratch shrink and grow.
        for (size_t j = 0; j < 2 * cases.size(); ++j) {
            const size_t i = j < cases.size() ? j : 2 * cases.size() - 1 - j;
            if (s >= cases[i].shots.size())
                continue;
            any = true;
            const Shot &shot = cases[i].shots[s];
            UfScratch fresh;
            EXPECT_EQ(decoders[i].decode(shot.data(), shot.size(), shared),
                      decoders[i].decode(shot.data(), shot.size(), fresh))
                << cases[i].name << " shot " << s;
            ASSERT_TRUE(shared.clean()) << cases[i].name << " shot " << s;
            ++compared;
        }
        if (!any)
            break;
    }
    EXPECT_GT(compared, 900u);

    // The zero-defect early exits leave the scratch clean too: no ids,
    // ids of the other basis only, and ids that cancel pairwise.
    const Case &c = cases[1];
    std::vector<uint32_t> other;
    for (uint32_t d = 0; d < c.dem.numDetectors; ++d)
        if (c.dem.detectorTag[d] != c.tag && other.size() < 6)
            other.push_back(d);
    ASSERT_FALSE(other.empty());
    std::vector<uint32_t> cancel;
    for (uint32_t d = 0; d < c.dem.numDetectors && cancel.size() < 8; ++d)
        if (c.dem.detectorTag[d] == c.tag) {
            cancel.push_back(d);
            cancel.push_back(d);
        }
    for (const Shot &shot : {Shot{}, other, cancel}) {
        EXPECT_FALSE(decoders[1].decode(shot.data(), shot.size(), shared));
        EXPECT_TRUE(shared.clean());
    }
}

} // namespace
} // namespace surf
