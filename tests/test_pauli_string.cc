/**
 * @file
 * Unit tests for Pauli string algebra: products, phases, commutation.
 */

#include <gtest/gtest.h>

#include "pauli/pauli_string.hh"
#include "util/rng.hh"

namespace surf {
namespace {

TEST(PauliString, FromStringRoundTrip)
{
    const auto p = PauliString::parse("+XIZY").value();
    EXPECT_EQ(p.numQubits(), 4u);
    EXPECT_EQ(p.pauliAt(0), Pauli::X);
    EXPECT_EQ(p.pauliAt(1), Pauli::I);
    EXPECT_EQ(p.pauliAt(2), Pauli::Z);
    EXPECT_EQ(p.pauliAt(3), Pauli::Y);
    EXPECT_EQ(p.str(), "+XIZY");
    EXPECT_EQ(p.weight(), 3u);
}

TEST(PauliString, NegativeSign)
{
    const auto p = PauliString::parse("-ZZ").value();
    EXPECT_EQ(p.str(), "-ZZ");
}

TEST(PauliString, SingleQubitProducts)
{
    const auto X = PauliString::parse("X").value();
    const auto Y = PauliString::parse("Y").value();
    const auto Z = PauliString::parse("Z").value();
    // XY = iZ, YX = -iZ, ZX = iY, XZ = -iY, YZ = iX, ZY = -iX.
    EXPECT_EQ((X * Y).str(), "+iZ");
    EXPECT_EQ((Y * X).str(), "-iZ");
    EXPECT_EQ((Z * X).str(), "+iY");
    EXPECT_EQ((X * Z).str(), "-iY");
    EXPECT_EQ((Y * Z).str(), "+iX");
    EXPECT_EQ((Z * Y).str(), "-iX");
    // Squares are identity.
    EXPECT_EQ((X * X).str(), "+I");
    EXPECT_EQ((Y * Y).str(), "+I");
    EXPECT_EQ((Z * Z).str(), "+I");
}

TEST(PauliString, CommutationRules)
{
    const auto X = PauliString::parse("X").value();
    const auto Y = PauliString::parse("Y").value();
    const auto Z = PauliString::parse("Z").value();
    EXPECT_FALSE(X.commutesWith(Z));
    EXPECT_FALSE(X.commutesWith(Y));
    EXPECT_FALSE(Y.commutesWith(Z));
    EXPECT_TRUE(X.commutesWith(X));

    // Two overlapping weight-2 operators sharing two anti-commuting slots
    // commute overall.
    const auto xx = PauliString::parse("XX").value();
    const auto zz = PauliString::parse("ZZ").value();
    EXPECT_TRUE(xx.commutesWith(zz));
}

TEST(PauliString, ProductAssociativityRandomized)
{
    Rng rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        const size_t n = 6;
        auto random_pauli = [&] {
            PauliString p(n);
            for (size_t q = 0; q < n; ++q)
                p.setPauli(q, static_cast<Pauli>(rng.below(4)));
            if (rng.bernoulli(0.5))
                p.setPhase(p.phase() + 2);
            return p;
        };
        const auto a = random_pauli();
        const auto b = random_pauli();
        const auto c = random_pauli();
        EXPECT_EQ(((a * b) * c), (a * (b * c)));
    }
}

TEST(PauliString, CommutationMatchesPhaseDifference)
{
    Rng rng(43);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = 5;
        auto random_pauli = [&] {
            PauliString p(n);
            for (size_t q = 0; q < n; ++q)
                p.setPauli(q, static_cast<Pauli>(rng.below(4)));
            return p;
        };
        const auto a = random_pauli();
        const auto b = random_pauli();
        const auto ab = a * b;
        const auto ba = b * a;
        EXPECT_TRUE(ab.equalsUpToPhase(ba));
        const bool commute = (ab == ba);
        EXPECT_EQ(commute, a.commutesWith(b));
        if (!commute) {
            EXPECT_EQ((ab.phase() + 2) & 3, ba.phase());
        }
    }
}

TEST(PauliString, CssTypePredicates)
{
    EXPECT_TRUE(PauliString::parse("XXIX").value().isCssType(PauliType::X));
    EXPECT_FALSE(PauliString::parse("XXIX").value().isCssType(PauliType::Z));
    EXPECT_TRUE(PauliString::parse("ZIZ").value().isCssType(PauliType::Z));
    EXPECT_FALSE(PauliString::parse("YZ").value().isCssType(PauliType::Z));
    // Identity is both.
    EXPECT_TRUE(PauliString(3).isCssType(PauliType::X));
    EXPECT_TRUE(PauliString(3).isCssType(PauliType::Z));
}

TEST(PauliString, ParseRejectsBadCharactersAsStatus)
{
    // Malformed text comes back as INVALID_ARGUMENT.
    StatusOr<PauliString> ok = PauliString::parse("-XIZZY");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok->str(), "-XIZZY");

    for (const char *bad : {"XQZ", "xz", "+X Z", "ZZ?"}) {
        StatusOr<PauliString> p = PauliString::parse(bad);
        ASSERT_FALSE(p.ok()) << bad;
        EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << bad;
    }
}

TEST(PauliString, SetPauliAdjustsYPhaseCorrectly)
{
    PauliString p(2);
    p.setPauli(0, Pauli::Y);
    p.setPauli(0, Pauli::Y); // overwrite with Y again: phase must not drift
    PauliString q(2);
    q.setPauli(0, Pauli::Y);
    EXPECT_EQ(p, q);
    p.setPauli(0, Pauli::X); // replacing Y by X removes the Y phase
    PauliString r(2);
    r.setPauli(0, Pauli::X);
    EXPECT_EQ(p, r);
}

} // namespace
} // namespace surf
