/**
 * @file
 * Unit tests for GF(2) matrix operations: rank, span membership with
 * certificates, batched span tests, and kernel bases.
 */

#include <gtest/gtest.h>

#include "pauli/bitmatrix.hh"
#include "util/rng.hh"

namespace surf {
namespace {

BitVec
fromBits(std::initializer_list<int> bits)
{
    BitVec v(bits.size());
    size_t i = 0;
    for (int b : bits)
        v.set(i++, b != 0);
    return v;
}

TEST(BitMatrix, RankOfIndependentRows)
{
    BitMatrix m(4);
    m.addRow(fromBits({1, 0, 0, 0}));
    m.addRow(fromBits({1, 1, 0, 0}));
    m.addRow(fromBits({0, 0, 1, 1}));
    EXPECT_EQ(m.rank(), 3u);
    EXPECT_TRUE(m.rowsIndependent());
}

TEST(BitMatrix, RankDetectsDependence)
{
    BitMatrix m(4);
    m.addRow(fromBits({1, 1, 0, 0}));
    m.addRow(fromBits({0, 1, 1, 0}));
    m.addRow(fromBits({1, 0, 1, 0}));
    EXPECT_EQ(m.rank(), 2u);
    EXPECT_FALSE(m.rowsIndependent());
}

TEST(BitMatrix, SolveCombinationFindsCertificate)
{
    BitMatrix m(5);
    m.addRow(fromBits({1, 1, 0, 0, 0}));
    m.addRow(fromBits({0, 1, 1, 0, 0}));
    m.addRow(fromBits({0, 0, 0, 1, 1}));
    const BitVec target = fromBits({1, 0, 1, 1, 1});
    auto combo = m.solveCombination(target);
    ASSERT_TRUE(combo.has_value());
    // Verify the certificate reproduces the target.
    BitVec sum(5);
    for (size_t r = 0; r < m.rows(); ++r)
        if (combo->get(r))
            sum ^= m.row(r);
    EXPECT_EQ(sum, target);
}

TEST(BitMatrix, SolveCombinationRejectsOutside)
{
    BitMatrix m(3);
    m.addRow(fromBits({1, 1, 0}));
    EXPECT_FALSE(m.inSpan(fromBits({0, 0, 1})));
    EXPECT_TRUE(m.inSpan(fromBits({1, 1, 0})));
    EXPECT_TRUE(m.inSpan(fromBits({0, 0, 0})));
}

TEST(BitMatrix, KernelVectorsAnnihilate)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t cols = 12;
        BitMatrix m(cols);
        for (int r = 0; r < 7; ++r) {
            BitVec row(cols);
            for (size_t c = 0; c < cols; ++c)
                row.set(c, rng.bernoulli(0.4));
            m.addRow(row);
        }
        const auto kernel = m.kernelBasis();
        EXPECT_EQ(kernel.size(), cols - m.rank());
        for (const auto &k : kernel) {
            for (size_t r = 0; r < m.rows(); ++r)
                EXPECT_FALSE(m.row(r).andParity(k))
                    << "kernel vector fails row " << r;
        }
    }
}

TEST(BitMatrix, RandomizedSpanConsistency)
{
    Rng rng(1234);
    for (int trial = 0; trial < 30; ++trial) {
        const size_t cols = 16;
        BitMatrix m(cols);
        std::vector<BitVec> rows;
        for (int r = 0; r < 6; ++r) {
            BitVec row(cols);
            for (size_t c = 0; c < cols; ++c)
                row.set(c, rng.bernoulli(0.5));
            rows.push_back(row);
            m.addRow(row);
        }
        // Random combination must be in span.
        BitVec combo(cols);
        for (const auto &r : rows)
            if (rng.bernoulli(0.5))
                combo ^= r;
        EXPECT_TRUE(m.inSpan(combo));
    }
}

TEST(BitMatrix, FirstOutsideSpanMatchesPerCandidateSolve)
{
    // Random matrices, many rank-deficient (later rows are sums of earlier
    // ones), widths that cross word boundaries, and candidate lists mixing
    // in-span combinations with random vectors. The batched answer must be
    // the first candidate solveCombination rejects.
    Rng rng(2024);
    size_t outside_found = 0, all_inside = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const size_t cols = 1 + rng.below(140);
        const size_t independent = rng.below(12);
        const size_t dependent = rng.below(6);
        BitMatrix m(cols);
        std::vector<BitVec> rows;
        for (size_t r = 0; r < independent; ++r) {
            BitVec row(cols);
            for (size_t c = 0; c < cols; ++c)
                row.set(c, rng.bernoulli(0.3));
            rows.push_back(row);
        }
        for (size_t r = 0; r < dependent && !rows.empty(); ++r) {
            BitVec row(cols);
            for (const auto &base : rows)
                if (rng.bernoulli(0.5))
                    row ^= base;
            rows.push_back(row);
        }
        for (const auto &row : rows)
            m.addRow(row);

        std::vector<BitVec> candidates;
        const size_t n_cand = rng.below(10);
        const double p_random = (trial % 4 == 0) ? 0.0 : 0.25;
        for (size_t i = 0; i < n_cand; ++i) {
            BitVec v(cols);
            if (rng.bernoulli(p_random)) {
                for (size_t c = 0; c < cols; ++c)
                    v.set(c, rng.bernoulli(0.5));
            } else {
                for (const auto &row : rows)
                    if (rng.bernoulli(0.5))
                        v ^= row;
            }
            candidates.push_back(v);
        }

        size_t expected = candidates.size();
        for (size_t i = 0; i < candidates.size(); ++i) {
            const bool inside = m.solveCombination(candidates[i]).has_value();
            EXPECT_EQ(m.inSpan(candidates[i]), inside);
            if (!inside && expected == candidates.size())
                expected = i;
        }
        EXPECT_EQ(m.firstOutsideSpan(candidates), expected)
            << "trial " << trial << " cols " << cols << " rows " << m.rows();
        if (expected < candidates.size())
            ++outside_found;
        else if (!candidates.empty())
            ++all_inside;
    }
    EXPECT_GT(outside_found, 50u);
    EXPECT_GT(all_inside, 50u);
}

TEST(BitMatrix, FirstOutsideSpanEdgeCases)
{
    BitMatrix empty(3);
    EXPECT_EQ(empty.firstOutsideSpan({}), 0u);
    EXPECT_EQ(empty.firstOutsideSpan({fromBits({0, 0, 0}),
                                      fromBits({0, 1, 0})}),
              1u);
    BitMatrix m(3);
    m.addRow(fromBits({1, 1, 0}));
    m.addRow(fromBits({1, 1, 0}));
    EXPECT_EQ(m.firstOutsideSpan({fromBits({1, 1, 0}), fromBits({0, 0, 0})}),
              2u);
    EXPECT_EQ(m.firstOutsideSpan({fromBits({0, 0, 0}), fromBits({1, 0, 0}),
                                  fromBits({0, 0, 1})}),
              1u);
}

} // namespace
} // namespace surf
