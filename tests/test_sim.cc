/**
 * @file
 * Tests for the simulation stack: tableau simulator gate/measurement
 * semantics, frame-vs-tableau agreement on injected errors, circuit
 * builder determinism (every detector of a noiseless syndrome circuit
 * must be deterministic — the Appendix-A logical-preservation property),
 * and DEM structure sanity.
 */

#include <gtest/gtest.h>

#include "core/instructions.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "tableau.hh"

namespace surf {
namespace {

TEST(Tableau, BellPairCorrelations)
{
    TableauSimulator sim(2, 7);
    sim.h(0);
    sim.cx(0, 1);
    // ZZ and XX are stabilizers with +1 expectation; single Z is random.
    EXPECT_EQ(sim.expectation(PauliString::parse("ZZ").value()), 1);
    EXPECT_EQ(sim.expectation(PauliString::parse("XX").value()), 1);
    EXPECT_EQ(sim.expectation(PauliString::parse("ZI").value()), 0);
    EXPECT_EQ(sim.expectation(PauliString::parse("YY").value()), -1);
    const bool a = sim.measureZ(0);
    const bool b = sim.measureZ(1);
    EXPECT_EQ(a, b);
}

TEST(Tableau, DeterministicMeasurements)
{
    TableauSimulator sim(1, 3);
    EXPECT_TRUE(sim.isDeterministicZ(0));
    EXPECT_FALSE(sim.isDeterministicX(0));
    EXPECT_FALSE(sim.measureZ(0));
    sim.x(0);
    EXPECT_TRUE(sim.measureZ(0));
    sim.h(0);
    EXPECT_TRUE(sim.isDeterministicX(0));
}

TEST(Tableau, ResetForcesState)
{
    TableauSimulator sim(1, 5);
    sim.h(0);
    sim.resetZ(0);
    EXPECT_TRUE(sim.isDeterministicZ(0));
    EXPECT_FALSE(sim.measureZ(0));
    sim.resetX(0);
    EXPECT_TRUE(sim.isDeterministicX(0));
    EXPECT_FALSE(sim.measureX(0));
}

TEST(Tableau, RepetitionCodeParityTracksErrors)
{
    // 3-qubit repetition code: X error on qubit 1 flips both ZZ checks.
    TableauSimulator sim(5, 11);
    // Qubits 0,1,2 data; 3,4 ancilla.
    auto measure_zz = [&](uint32_t a, uint32_t b, uint32_t anc) {
        sim.resetZ(anc);
        sim.cx(a, anc);
        sim.cx(b, anc);
        return sim.measureZ(anc);
    };
    EXPECT_FALSE(measure_zz(0, 1, 3));
    EXPECT_FALSE(measure_zz(1, 2, 4));
    sim.x(1);
    EXPECT_TRUE(measure_zz(0, 1, 3));
    EXPECT_TRUE(measure_zz(1, 2, 4));
}

/**
 * The key integration property (paper Appendix A / Stim's detector
 * property): every detector of a noiseless memory circuit is
 * deterministic 0 and the observable parity is 0, for pristine AND
 * deformed patches, in both bases.
 */
class NoiselessDeterminism
    : public ::testing::TestWithParam<std::tuple<int, PauliType>>
{
};

TEST_P(NoiselessDeterminism, AllDetectorsZero)
{
    const auto [variant, basis] = GetParam();
    CodePatch p = squarePatch(5);
    switch (variant) {
      case 0:
        break; // pristine
      case 1:
        dataQRm(p, {5, 5});
        break;
      case 2:
        syndromeQRm(p, {4, 4});
        break;
      case 3:
        pinData(p, {5, 1}, PauliType::X);
        break;
      case 4: // combined pattern
        dataQRm(p, {5, 5});
        syndromeQRm(p, {6, 8});
        break;
      case 5: // syndrome removal of a Z-type check
        syndromeQRm(p, {4, 6});
        break;
    }
    p.recomputeSupers();
    refreshLogicals(p);
    ASSERT_TRUE(p.validate().ok);

    MemorySpec spec;
    spec.basis = basis;
    spec.rounds = 5;
    NoiseParams noise;
    noise.p = 0.0; // noiseless
    const BuiltCircuit built = buildMemoryCircuit(p, spec, noise);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        const auto run =
            TableauSimulator::runCircuit(built.circuit, seed, false);
        for (size_t d = 0; d < run.detectors.size(); ++d)
            ASSERT_FALSE(run.detectors[d])
                << "variant " << variant << " basis " << typeChar(basis)
                << " detector " << d << " fired without noise (seed "
                << seed << ")";
        ASSERT_FALSE(run.observables.at(0))
            << "variant " << variant << ": logical observable flipped";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, NoiselessDeterminism,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(PauliType::Z, PauliType::X)));

TEST(FrameSim, MatchesTableauOnInjectedErrors)
{
    // Inject a deterministic X error (p = 1) mid-circuit; frame and
    // tableau simulations must agree on every detector.
    CodePatch p = squarePatch(3);
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams quiet;
    quiet.p = 0.0;
    BuiltCircuit base = buildMemoryCircuit(p, spec, quiet);

    // Rebuild with a single forced error on one data qubit after round 1:
    // easiest route: append an X_ERROR(1.0) right after the first Tick.
    Circuit &ckt = base.circuit;
    Circuit forced;
    bool injected = false;
    int ticks_seen = 0;
    for (const auto &ins : ckt.instructions()) {
        if (ins.op == Op::Detector) {
            forced.appendDetector(
                std::vector<uint32_t>(ins.targets.begin(), ins.targets.end()),
                ins.aux == 1 ? PauliType::Z : PauliType::X);
            continue;
        }
        if (ins.op == Op::ObservableInclude) {
            forced.appendObservable(ins.aux,
                                    std::vector<uint32_t>(ins.targets.begin(),
                                                          ins.targets.end()));
            continue;
        }
        forced.append(ins.op, ins.targets, ins.arg);
        if (ins.op == Op::Tick && ++ticks_seen == 2 && !injected) {
            forced.append(Op::XError, {0}, 1.0);
            injected = true;
        }
    }
    ASSERT_TRUE(injected);

    const auto tab = TableauSimulator::runCircuit(forced, 3, true);
    FrameSimulator frame(forced, 16, 3);
    for (size_t d = 0; d < tab.detectors.size(); ++d)
        for (size_t s = 0; s < 16; ++s)
            ASSERT_EQ(frame.detectorBits(d).get(s), tab.detectors[d])
                << "detector " << d;
    for (size_t s = 0; s < 16; ++s)
        ASSERT_EQ(frame.observableBits(0).get(s), tab.observables.at(0));
}

TEST(Dem, PristineD3StructureSane)
{
    CodePatch p = squarePatch(3);
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 1e-3;
    const BuiltCircuit built = buildMemoryCircuit(p, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    EXPECT_GT(dem.numDetectors, 0u);
    EXPECT_GT(dem.edges[0].size(), 0u);
    EXPECT_GT(dem.edges[1].size(), 0u);
    // No single fault may flip the observable undetectably at d = 3.
    EXPECT_EQ(dem.undetectableObsProb, 0.0);
    for (int tag = 0; tag < 2; ++tag)
        for (const auto &e : dem.edges[tag]) {
            EXPECT_GT(e.p, 0.0);
            EXPECT_LT(e.p, 0.2);
            if (e.a >= 0) {
                EXPECT_EQ(dem.detectorTag[static_cast<size_t>(e.a)], tag);
            }
            if (e.b >= 0) {
                EXPECT_EQ(dem.detectorTag[static_cast<size_t>(e.b)], tag);
            }
        }
}

TEST(Dem, ObservableEdgesExistOnObsSide)
{
    CodePatch p = squarePatch(3);
    MemorySpec spec;
    spec.rounds = 2;
    NoiseParams noise;
    noise.p = 1e-3;
    const BuiltCircuit built = buildMemoryCircuit(p, spec, noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    int obs_edges_z = 0, obs_edges_x = 0;
    for (const auto &e : dem.edges[1])
        obs_edges_z += e.flipsObs;
    for (const auto &e : dem.edges[0])
        obs_edges_x += e.flipsObs;
    EXPECT_GT(obs_edges_z, 0); // X errors cross the Z-logical
    EXPECT_EQ(obs_edges_x, 0); // Z errors never flip a Z observable
}

TEST(FrameSim, NearZeroAndCertainNoiseChannels)
{
    // 10^6 draws of X_ERROR(1e-30) must never fire (the geometric skip
    // saturates instead of overflowing to 0), and X_ERROR(1) flips every
    // shot of every target.
    constexpr uint32_t kQubits = 1000;
    std::vector<uint32_t> all(kQubits);
    for (uint32_t q = 0; q < kQubits; ++q)
        all[q] = q;
    for (double p : {1e-30, 1.0}) {
        Circuit ckt;
        ckt.append(Op::ResetZ, all);
        for (int rep = 0; rep < (p < 1.0 ? 1000 : 1); ++rep)
            ckt.append(Op::XError, all, p);
        const size_t first = ckt.append(Op::MeasureZ, all);
        for (uint32_t q = 0; q < kQubits; ++q)
            ckt.appendDetector({static_cast<uint32_t>(first + q)},
                               PauliType::Z);
        FrameSimulator sim(ckt, 4096, 11);
        for (size_t d = 0; d < sim.numDetectors(); ++d)
            ASSERT_EQ(sim.detectorBits(d).popcount(), p < 1.0 ? 0u : 4096u)
                << "p " << p << " detector " << d;
    }
}

TEST(FrameSim, DetectorRateMatchesNoiseScale)
{
    // Detector firing frequency grows with the physical rate.
    CodePatch p = squarePatch(3);
    MemorySpec spec;
    spec.rounds = 3;
    auto fired_fraction = [&](double phys) {
        NoiseParams noise;
        noise.p = phys;
        const BuiltCircuit built = buildMemoryCircuit(p, spec, noise);
        FrameSimulator sim(built.circuit, 2048, 5);
        uint64_t fired = 0;
        for (size_t d = 0; d < sim.numDetectors(); ++d)
            fired += sim.detectorBits(d).popcount();
        return static_cast<double>(fired) /
               (2048.0 * static_cast<double>(sim.numDetectors()));
    };
    const double lo = fired_fraction(1e-4);
    const double hi = fired_fraction(1e-2);
    EXPECT_LT(lo, hi);
    EXPECT_GT(hi, 10 * lo);
}

} // namespace
} // namespace surf
