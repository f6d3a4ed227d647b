/**
 * @file
 * Row-major matrix over GF(2) with Gaussian elimination utilities: rank,
 * reduced row echelon form, span membership (batched, or with a
 * certificate), and kernel basis. Used for code-validity checks
 * (independence of generators), detector-continuity solving across
 * deformation epochs, and test oracles.
 */

#ifndef SURF_PAULI_BITMATRIX_HH
#define SURF_PAULI_BITMATRIX_HH

#include <optional>
#include <vector>

#include "pauli/bitvec.hh"

namespace surf {

/** Dense GF(2) matrix; rows are BitVec of a common width. */
class BitMatrix
{
  public:
    BitMatrix() : cols_(0) {}
    explicit BitMatrix(size_t cols) : cols_(cols) {}

    size_t rows() const { return rows_.size(); }
    size_t cols() const { return cols_; }

    void addRow(const BitVec &row);
    const BitVec &row(size_t r) const { return rows_[r]; }
    BitVec &row(size_t r) { return rows_[r]; }

    /** Rank via elimination on a copy. */
    size_t rank() const;

    /** True if all rows are linearly independent. */
    bool rowsIndependent() const { return rank() == rows(); }

    /**
     * Test whether `target` lies in the row span. If so, return the
     * combination as a BitVec over row indices (bit r set means row r is
     * part of the combination); otherwise std::nullopt.
     */
    std::optional<BitVec> solveCombination(const BitVec &target) const;

    /** True if `target` is in the row span. */
    bool inSpan(const BitVec &target) const;

    /**
     * Index of the first candidate outside the row span, or
     * candidates.size() when every candidate lies inside it. Reduces the
     * matrix to echelon form once for all candidates.
     */
    size_t firstOutsideSpan(const std::vector<BitVec> &candidates) const;

    /** Basis of the null space {v : M v = 0} (column-kernel). */
    std::vector<BitVec> kernelBasis() const;

    /**
     * Solve M x = b for x (length cols()); b has one bit per row.
     * Returns one particular solution or std::nullopt when inconsistent.
     */
    std::optional<BitVec> solveSystem(const BitVec &b) const;

  private:
    size_t cols_;
    std::vector<BitVec> rows_;
};

} // namespace surf

#endif // SURF_PAULI_BITMATRIX_HH
