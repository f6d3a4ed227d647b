/**
 * @file
 * Tests for the algebraic subsystem-code layer: Theorem-1 validation,
 * Definition-4 measurement-set validation, and the exact coset oracle.
 */

#include <gtest/gtest.h>

#include "coset.hh"
#include "subsystem_code.hh"

namespace surf {
namespace {

/**
 * The [[4,1,2]] surface code (smallest planar code, k=1): qubits indexed
 * as the 2x2 rotated patch (1,1),(1,3),(3,1),(3,3).
 */
SubsystemCode
fourQubitCode()
{
    SubsystemCode code(4);
    code.addStabilizer(PauliString::fromString("XXXX"));
    code.addStabilizer(PauliString::fromString("ZIZI"));
    code.addStabilizer(PauliString::fromString("IZIZ"));
    code.addLogicalPair(PauliString::fromString("XIXI"),
                        PauliString::fromString("ZZII"));
    return code;
}

TEST(SubsystemCode, FourQubitCodeValidates)
{
    const auto code = fourQubitCode();
    const auto r = code.validate();
    EXPECT_TRUE(r.ok) << r.reason;
}

TEST(SubsystemCode, DetectsNonCommutingStabilizers)
{
    SubsystemCode code(2);
    code.addStabilizer(PauliString::fromString("XI"));
    code.addLogicalPair(PauliString::fromString("IX"),
                        PauliString::fromString("IZ"));
    EXPECT_TRUE(code.validate().ok);

    SubsystemCode bad(2);
    bad.addStabilizer(PauliString::fromString("XX"));
    bad.addLogicalPair(PauliString::fromString("XI"),
                       PauliString::fromString("ZI"));
    const auto r = bad.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, DetectsDependentGenerators)
{
    SubsystemCode code(3);
    code.addStabilizer(PauliString::fromString("ZZI"));
    code.addStabilizer(PauliString::fromString("IZZ"));
    // The product of the two above: dependent.
    code.addStabilizer(PauliString::fromString("ZIZ"));
    // Make counting work: n-k-l = 3 requires k=l=0... with k=0 there is no
    // logical pair; validation must flag dependence (or counting).
    const auto r = code.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, DetectsBadLogicalPair)
{
    SubsystemCode code(2);
    code.addStabilizer(PauliString::fromString("ZZ"));
    // XI commutes with ZI? No: XI vs ZI anti-commute -- but the pair
    // below COMMUTES with each other, which is the failure mode tested.
    code.addLogicalPair(PauliString::fromString("XX"),
                        PauliString::fromString("XX"));
    const auto r = code.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, BaconShorStyleGaugeCode)
{
    // A 2x2 Bacon-Shor-like subsystem code: 4 qubits, 1 logical, 1 gauge.
    // Stabilizers: XXXX, ZZZZ. Gauge pair: XXII / ZIZI.
    SubsystemCode code(4);
    code.addStabilizer(PauliString::fromString("XXXX"));
    code.addStabilizer(PauliString::fromString("ZZZZ"));
    code.addLogicalPair(PauliString::fromString("XIXI"),
                        PauliString::fromString("ZZII"));
    code.addGaugePair(PauliString::fromString("XXII"),
                      PauliString::fromString("ZIZI"));
    const auto r = code.validate();
    EXPECT_TRUE(r.ok) << r.reason;

    // Measurement set: measure the gauge operators; stabilizers inferred.
    const auto meas = code.validateMeasurementSet(
        {},
        {PauliString::fromString("XXII"), PauliString::fromString("IIXX"),
         PauliString::fromString("ZIZI"), PauliString::fromString("IZIZ")});
    EXPECT_TRUE(meas.ok) << meas.reason;
}

TEST(SubsystemCode, MeasurementSetRejectsLogicalLeak)
{
    const auto code = fourQubitCode();
    // Measuring the logical Z would destroy the superposition: Definition 4
    // condition (2) must reject it (it is not in the gauge group).
    const auto r = code.validateMeasurementSet(
        {}, {PauliString::fromString("ZZII")});
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, MeasurementSetRequiresRecoverability)
{
    const auto code = fourQubitCode();
    // Measuring only one stabilizer leaves the others unrecoverable.
    const auto r = code.validateMeasurementSet(
        {PauliString::fromString("XXXX")}, {});
    EXPECT_FALSE(r.ok);
    // Measuring all generators passes.
    const auto ok = code.validateMeasurementSet(
        {PauliString::fromString("XXXX"), PauliString::fromString("ZIZI"),
         PauliString::fromString("IZIZ")},
        {});
    EXPECT_TRUE(ok.ok) << ok.reason;
}

TEST(SubsystemCode, GroupMembership)
{
    const auto code = fourQubitCode();
    EXPECT_TRUE(code.inStabilizerGroup(PauliString::fromString("ZZZZ")));
    EXPECT_FALSE(code.inStabilizerGroup(PauliString::fromString("ZIIZ")));
    EXPECT_TRUE(code.inCentralizerOfStabilizers(
        PauliString::fromString("ZIIZ")));
    EXPECT_FALSE(code.inCentralizerOfStabilizers(
        PauliString::fromString("ZIII")));
}

TEST(SubsystemCode, ExactCssDistanceFourQubit)
{
    const auto code = fourQubitCode();
    EXPECT_EQ(code.distanceExactCss(PauliType::X), 2u);
    EXPECT_EQ(code.distanceExactCss(PauliType::Z), 2u);
}

TEST(CosetOracle, MatchesHandComputedCase)
{
    // Basis {1100, 0110}, offset 1111: coset {1111, 0011, 1001, 0101}.
    auto mk = [](std::initializer_list<int> bits) {
        BitVec v(bits.size());
        size_t i = 0;
        for (int b : bits)
            v.set(i++, b != 0);
        return v;
    };
    const size_t w = minCosetWeight({mk({1, 1, 0, 0}), mk({0, 1, 1, 0})},
                                    mk({1, 1, 1, 1}));
    EXPECT_EQ(w, 2u);
}

TEST(CosetOracle, HandlesDependentBasis)
{
    auto mk = [](std::initializer_list<int> bits) {
        BitVec v(bits.size());
        size_t i = 0;
        for (int b : bits)
            v.set(i++, b != 0);
        return v;
    };
    // Three vectors with rank 2.
    const size_t w = minCosetWeight(
        {mk({1, 1, 0}), mk({0, 1, 1}), mk({1, 0, 1})}, mk({1, 1, 1}));
    EXPECT_EQ(w, 1u);
}

} // namespace
} // namespace surf
