/**
 * @file
 * Golden digests of the circuit layer: the detector error model and the
 * frame-sampled detector / observable / probe bits of a fixed set of
 * circuits, pinned as FNV-64 constants recorded from the one-gate-at-a-
 * time builder. The fused-layer builder, the flat frame table and the
 * per-instruction noise setup must reproduce every bit of them. Also
 * checks that layer fusion actually happened, and that streamed sampling
 * (runUntil plus ranged extraction) equals the one-call run.
 */

#include <gtest/gtest.h>

#include <string>

#include "baselines/strategies.hh"
#include "defects/defect_sampler.hh"
#include "fnv64.hh"
#include "lattice/rotated.hh"
#include "scenario/epoch_plan.hh"
#include "scenario/patch_signature.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/segment.hh"
#include "util/rng.hh"

namespace surf {
namespace {

using testref::Fnv64;

uint64_t
demDigest(const Circuit &ckt, PauliType basis)
{
    const DetectorErrorModel dem = buildDem(ckt, basis);
    Fnv64 f;
    f.add(dem.numDetectors);
    for (uint8_t t : dem.detectorTag)
        f.add(t);
    for (int tag = 0; tag < 2; ++tag) {
        f.add(dem.edges[tag].size());
        for (const DemEdge &e : dem.edges[tag]) {
            f.add(static_cast<uint64_t>(static_cast<int64_t>(e.a)));
            f.add(static_cast<uint64_t>(static_cast<int64_t>(e.b)));
            f.addDouble(e.p);
            f.add(e.flipsObs ? 1 : 0);
        }
    }
    f.addDouble(dem.undetectableObsProb);
    f.add(dem.decomposedComponents);
    return f.h;
}

void
addBits(Fnv64 &f, const BitVec &bits, size_t shots)
{
    for (size_t s = 0; s < shots; ++s)
        f.add(bits.get(s) ? 1 : 0);
}

/** Detector, observable and probe bits of a fresh simulator at six batch
 *  sizes (one, sub-word, word edges, many words). */
uint64_t
frameDigest(const Circuit &ckt)
{
    Fnv64 f;
    for (size_t shots : {1, 16, 63, 64, 65, 1024}) {
        FrameSimulator sim(ckt, shots, 1000 + shots);
        f.add(shots);
        f.add(sim.numDetectors());
        for (size_t d = 0; d < sim.numDetectors(); ++d)
            addBits(f, sim.detectorBits(d), shots);
        for (size_t o = 0; o < ckt.numObservables(); ++o)
            addBits(f, sim.observableBits(o), shots);
        f.add(sim.numProbes());
        for (size_t p = 0; p < sim.numProbes(); ++p)
            addBits(f, sim.probeBits(p), shots);
    }
    return f.h;
}

NoiseParams
baseNoise()
{
    NoiseParams noise;
    noise.p = 4e-3;
    return noise;
}

Circuit
memory(int d, PauliType basis, const NoiseParams &noise, int rounds)
{
    MemorySpec spec;
    spec.basis = basis;
    spec.rounds = rounds;
    return buildMemoryCircuit(squarePatch(d), spec, noise).circuit;
}

/** A d=5 pristine -> struck -> recovered Surf-Deformer plan. */
ScenarioPlan
strikePlan()
{
    const std::set<Coord> strike = DefectSampler::regionSites({5, 5}, 2);
    ScenarioPlan plan;
    const uint64_t bounds[4] = {0, 4, 9, 13};
    const std::set<Coord> active[3] = {{}, strike, {}};
    for (int e = 0; e < 3; ++e) {
        const StrategyOutcome oc =
            applyStrategyChecked(Strategy::SurfDeformer, 5, 2, active[e])
                .value();
        EXPECT_TRUE(oc.alive);
        Epoch ep;
        ep.startRound = bounds[e];
        ep.rounds = bounds[e + 1] - bounds[e];
        ep.deformed.patch = oc.patch;
        ep.deformed.alive = oc.alive;
        ep.residualDefects = oc.residualDefects;
        ep.activeSites = active[e];
        ep.structSig = patchSignature(oc.patch);
        plan.epochs.push_back(std::move(ep));
    }
    return plan;
}

/** The concatenated sampling circuit of the plan (with epoch probes) and
 *  each epoch's standalone decoder segment. */
std::vector<Circuit>
timelineCircuits(PauliType basis)
{
    const ScenarioPlan plan = strikePlan();
    EXPECT_NE(plan.epochs[0].structSig, plan.epochs[1].structSig);
    const NoiseParams noise = baseNoise();
    std::vector<Circuit> out(1);
    std::map<Coord, uint32_t> qubit_id;
    SeamState carry;
    const CodePatch *prev = nullptr;
    std::vector<Coord> tracked;
    for (size_t e = 0; e < plan.epochs.size(); ++e) {
        const Epoch &ep = plan.epochs[e];
        SegmentSpec spec;
        spec.basis = basis;
        spec.rounds = static_cast<int>(ep.rounds);
        spec.startRound = ep.startRound;
        spec.first = e == 0;
        spec.last = e + 1 == plan.epochs.size();
        spec.epochProbes = true;
        const SeamPlan seam =
            computeSeamPlan(prev, ep.deformed.patch, basis, ep.activeSites,
                            ep.startRound, e ? &tracked : nullptr);
        EXPECT_TRUE(seam.obsCarryValid);
        tracked = seam.trackedLogical;
        NoiseParams samp = noise;
        samp.defectiveSites = ep.residualDefects;
        for (const Coord &q : seam.removed)
            if (ep.activeSites.count(q))
                samp.defectiveSites.insert(q);
        carry = appendSegment(out[0], qubit_id, ep.deformed.patch, spec, samp,
                              seam, e ? &carry : nullptr, false)
                    .carry;
        SegmentSpec standalone = spec;
        standalone.epochProbes = false;
        out.push_back(buildStandaloneSegment(ep.deformed.patch, standalone,
                                             samp, seam, prev));
        prev = &ep.deformed.patch;
    }
    return out;
}

struct Golden
{
    const char *name;
    uint64_t dem;
    uint64_t frame;
};

/** Recorded from the one-gate-at-a-time builder and per-record BitVec
 *  frame simulator; any change here is a change of the physics. */
constexpr Golden kGolden[] = {
    {"mem-d3-Z", 9648145549082943712ULL,
     13286466959118849776ULL},
    {"mem-d3-X", 14860490061962940384ULL,
     4252994775226014032ULL},
    {"mem-d5-Z", 116098696304870956ULL,
     11416133769072950864ULL},
    {"mem-d5-X", 16968525256230662490ULL,
     5787866179250171248ULL},
    {"mem-d7-Z", 605875671858200512ULL,
     16150621979869787429ULL},
    {"mem-d7-X", 11369279149035067690ULL,
     8870081649939782016ULL},
    {"mem-d5-Z-defective", 18297370601493413959ULL,
     1145397316857422961ULL},
    {"mem-d5-X-defective", 15689915327592823984ULL,
     4198610973220852817ULL},
    {"mem-d5-Z-correlated", 12751729446502010420ULL,
     8014908123111790993ULL},
    {"mem-d5-Z-defective-correlated", 710303808063911343ULL,
     11449618881843769104ULL},
    {"timeline-Z", 13044679811230560878ULL,
     18414771572937673596ULL},
    {"timeline-Z-seg0", 16561336315161893426ULL,
     5255396784963746609ULL},
    {"timeline-Z-seg1", 3124144077062913079ULL,
     8476955723159078513ULL},
    {"timeline-Z-seg2", 1481156978897168049ULL,
     14876386227688828673ULL},
    {"timeline-X", 14670468640305058461ULL,
     8347050418036016408ULL},
    {"timeline-X-seg0", 14327465200512336885ULL,
     13595460914915372304ULL},
    {"timeline-X-seg1", 8023427619834916802ULL,
     6230239269013623089ULL},
    {"timeline-X-seg2", 7274941697092682823ULL,
     13675578009066993921ULL},
};

std::vector<std::pair<std::string, std::pair<Circuit, PauliType>>>
goldenCircuits()
{
    std::vector<std::pair<std::string, std::pair<Circuit, PauliType>>> out;
    for (int d : {3, 5, 7})
        for (PauliType b : {PauliType::Z, PauliType::X})
            out.push_back({"mem-d" + std::to_string(d) +
                               (b == PauliType::Z ? "-Z" : "-X"),
                           {memory(d, b, baseNoise(), d), b}});

    // Defective sites: two data qubits and one ancilla at pDefect 0.5.
    const CodePatch patch = squarePatch(5);
    NoiseParams defective = baseNoise();
    defective.pDefect = 0.5;
    defective.defectiveSites = {patch.dataList()[6], patch.dataList()[12]};
    for (const Check &c : patch.checks())
        if (c.ancilla) {
            defective.defectiveSites.insert(*c.ancilla);
            break;
        }
    NoiseParams correlated = baseNoise();
    correlated.pCorrelated2q = 1e-3;
    NoiseParams both = defective;
    both.pCorrelated2q = 1e-3;
    out.push_back({"mem-d5-Z-defective",
                   {memory(5, PauliType::Z, defective, 5), PauliType::Z}});
    out.push_back({"mem-d5-X-defective",
                   {memory(5, PauliType::X, defective, 5), PauliType::X}});
    out.push_back({"mem-d5-Z-correlated",
                   {memory(5, PauliType::Z, correlated, 5), PauliType::Z}});
    out.push_back({"mem-d5-Z-defective-correlated",
                   {memory(5, PauliType::Z, both, 5), PauliType::Z}});

    for (PauliType b : {PauliType::Z, PauliType::X}) {
        const std::string base =
            std::string("timeline-") + (b == PauliType::Z ? "Z" : "X");
        std::vector<Circuit> tl = timelineCircuits(b);
        out.push_back({base, {std::move(tl[0]), b}});
        for (size_t s = 1; s < tl.size(); ++s)
            out.push_back({base + "-seg" + std::to_string(s - 1),
                           {std::move(tl[s]), b}});
    }
    return out;
}

TEST(CircuitLayout, GoldenDemAndFrameDigests)
{
    const auto circuits = goldenCircuits();
    ASSERT_EQ(circuits.size(), std::size(kGolden));
    for (size_t i = 0; i < circuits.size(); ++i) {
        const auto &[name, ckt_basis] = circuits[i];
        ASSERT_EQ(name, kGolden[i].name);
        EXPECT_EQ(demDigest(ckt_basis.first, ckt_basis.second),
                  kGolden[i].dem)
            << name << " DEM";
        EXPECT_EQ(frameDigest(ckt_basis.first), kGolden[i].frame)
            << name << " frame samples";
    }
}

TEST(CircuitLayout, ResetAndRerunReproducesFreshSamples)
{
    const Circuit ckt = timelineCircuits(PauliType::Z)[0];
    for (size_t shots : {16, 65}) {
        FrameSimulator fresh(ckt, shots, 5);
        FrameSimulator reused(ckt, shots, 99);
        reused.reset(5);
        reused.run();
        for (size_t d = 0; d < fresh.numDetectors(); ++d)
            ASSERT_EQ(reused.detectorBits(d), fresh.detectorBits(d));
        ASSERT_EQ(reused.observableBits(0), fresh.observableBits(0));
        for (size_t p = 0; p < fresh.numProbes(); ++p)
            ASSERT_EQ(reused.probeBits(p), fresh.probeBits(p));
    }
}

/** Streams `sim` (already reset) through all `total` detectors in
 *  random steps, extracting each step's range, and checks every range
 *  against the slice of the whole-batch extraction `whole`. */
void
expectStreamMatches(FrameSimulator &sim, size_t total,
                    const SparseSyndromes &whole, Rng &rng,
                    const std::string &what)
{
    SparseSyndromes part;
    for (size_t begin = 0; begin < total;) {
        const size_t target = begin + rng.below(40);
        sim.runUntil(target);
        const size_t end = sim.numDetectors();
        ASSERT_EQ(end, std::min(target, total)) << what;
        sim.sparseFiredDetectors(part, begin, end);
        ASSERT_EQ(part.shots(), whole.shots()) << what;
        for (size_t s = 0; s < whole.shots(); ++s) {
            std::vector<uint32_t> expect;
            for (uint32_t id : whole.shotVector(s))
                if (id >= begin && id < end)
                    expect.push_back(static_cast<uint32_t>(id - begin));
            ASSERT_EQ(part.shotVector(s), expect)
                << what << " detectors [" << begin << ", " << end
                << ") shot " << s;
        }
        begin = end;
    }
    sim.run();
}

TEST(CircuitLayout, StreamedSamplingMatchesWholeRun)
{
    // runUntil in random detector-count steps with ranged extraction per
    // step equals run() plus the whole-batch extraction, sliced; the
    // observable and probes come out equal too. Covers a memory circuit
    // and the stitched 3-epoch timeline, and a reset() issued mid-run.
    const std::pair<const char *, Circuit> circuits[] = {
        {"mem-d5-Z", memory(5, PauliType::Z, baseNoise(), 5)},
        {"timeline-Z", timelineCircuits(PauliType::Z)[0]},
    };
    Rng rng(2025);
    for (const auto &[name, ckt] : circuits)
        for (size_t shots : {1, 16, 63, 64, 65, 4096}) {
            const std::string what =
                std::string(name) + " shots=" + std::to_string(shots);
            const uint64_t seed = 7 + shots;
            FrameSimulator ref(ckt, shots, seed);
            const SparseSyndromes whole = ref.sparseFiredDetectors();

            FrameSimulator streamed(ckt, shots);
            EXPECT_EQ(streamed.numDetectors(), 0u) << what;
            // Abandon a partial run of another seed first: reset() must
            // rewind the cursor, records and frames from mid-circuit.
            streamed.reset(seed + 1000);
            streamed.runUntil(ckt.numDetectors() / 3);
            streamed.reset(seed);
            expectStreamMatches(streamed, ckt.numDetectors(), whole, rng,
                                what);
            ASSERT_EQ(streamed.numDetectors(), ckt.numDetectors()) << what;
            EXPECT_EQ(streamed.observableBits(0), ref.observableBits(0))
                << what;
            ASSERT_EQ(streamed.numProbes(), ref.numProbes()) << what;
            for (size_t p = 0; p < ref.numProbes(); ++p)
                EXPECT_EQ(streamed.probeBits(p), ref.probeBits(p))
                    << what << " probe " << p;
        }
}

TEST(CircuitLayout, SegmentsEmitFusedLayers)
{
    // The scenario's 160-round d=7 memory circuit: one instruction per
    // gate or noise site would be ~115k instructions.
    const Circuit ckt = memory(7, PauliType::Z, baseNoise(), 160);
    EXPECT_LE(ckt.instructions().size(), 12000u);
}

} // namespace
} // namespace surf
