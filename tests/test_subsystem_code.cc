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
    code.addStabilizer(PauliString::parse("XXXX").value());
    code.addStabilizer(PauliString::parse("ZIZI").value());
    code.addStabilizer(PauliString::parse("IZIZ").value());
    code.addLogicalPair(PauliString::parse("XIXI").value(),
                        PauliString::parse("ZZII").value());
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
    code.addStabilizer(PauliString::parse("XI").value());
    code.addLogicalPair(PauliString::parse("IX").value(),
                        PauliString::parse("IZ").value());
    EXPECT_TRUE(code.validate().ok);

    SubsystemCode bad(2);
    bad.addStabilizer(PauliString::parse("XX").value());
    bad.addLogicalPair(PauliString::parse("XI").value(),
                       PauliString::parse("ZI").value());
    const auto r = bad.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, DetectsDependentGenerators)
{
    SubsystemCode code(3);
    code.addStabilizer(PauliString::parse("ZZI").value());
    code.addStabilizer(PauliString::parse("IZZ").value());
    // The product of the two above: dependent.
    code.addStabilizer(PauliString::parse("ZIZ").value());
    // Make counting work: n-k-l = 3 requires k=l=0... with k=0 there is no
    // logical pair; validation must flag dependence (or counting).
    const auto r = code.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, DetectsBadLogicalPair)
{
    SubsystemCode code(2);
    code.addStabilizer(PauliString::parse("ZZ").value());
    // XI commutes with ZI? No: XI vs ZI anti-commute -- but the pair
    // below COMMUTES with each other, which is the failure mode tested.
    code.addLogicalPair(PauliString::parse("XX").value(),
                        PauliString::parse("XX").value());
    const auto r = code.validate();
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, BaconShorStyleGaugeCode)
{
    // A 2x2 Bacon-Shor-like subsystem code: 4 qubits, 1 logical, 1 gauge.
    // Stabilizers: XXXX, ZZZZ. Gauge pair: XXII / ZIZI.
    SubsystemCode code(4);
    code.addStabilizer(PauliString::parse("XXXX").value());
    code.addStabilizer(PauliString::parse("ZZZZ").value());
    code.addLogicalPair(PauliString::parse("XIXI").value(),
                        PauliString::parse("ZZII").value());
    code.addGaugePair(PauliString::parse("XXII").value(),
                      PauliString::parse("ZIZI").value());
    const auto r = code.validate();
    EXPECT_TRUE(r.ok) << r.reason;

    // Measurement set: measure the gauge operators; stabilizers inferred.
    const auto meas = code.validateMeasurementSet(
        {},
        {PauliString::parse("XXII").value(),
         PauliString::parse("IIXX").value(),
         PauliString::parse("ZIZI").value(),
         PauliString::parse("IZIZ").value()});
    EXPECT_TRUE(meas.ok) << meas.reason;
}

TEST(SubsystemCode, MeasurementSetRejectsLogicalLeak)
{
    const auto code = fourQubitCode();
    // Measuring the logical Z would destroy the superposition: Definition 4
    // condition (2) must reject it (it is not in the gauge group).
    const auto r = code.validateMeasurementSet(
        {}, {PauliString::parse("ZZII").value()});
    EXPECT_FALSE(r.ok);
}

TEST(SubsystemCode, MeasurementSetRequiresRecoverability)
{
    const auto code = fourQubitCode();
    // Measuring only one stabilizer leaves the others unrecoverable.
    const auto r = code.validateMeasurementSet(
        {PauliString::parse("XXXX").value()}, {});
    EXPECT_FALSE(r.ok);
    // Measuring all generators passes.
    const auto ok = code.validateMeasurementSet(
        {PauliString::parse("XXXX").value(),
         PauliString::parse("ZIZI").value(),
         PauliString::parse("IZIZ").value()},
        {});
    EXPECT_TRUE(ok.ok) << ok.reason;
}

TEST(SubsystemCode, GroupMembership)
{
    const auto code = fourQubitCode();
    EXPECT_TRUE(code.inStabilizerGroup(PauliString::parse("ZZZZ").value()));
    EXPECT_FALSE(code.inStabilizerGroup(PauliString::parse("ZIIZ").value()));
    EXPECT_TRUE(code.inCentralizerOfStabilizers(
        PauliString::parse("ZIIZ").value()));
    EXPECT_FALSE(code.inCentralizerOfStabilizers(
        PauliString::parse("ZIII").value()));
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
