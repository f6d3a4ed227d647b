#include "pauli/bitmatrix.hh"

#include "util/logging.hh"

namespace surf {

namespace {

/**
 * Gaussian elimination of `work` in place. Returns the pivot column of
 * each of the leading rank rows; every other row ends up zero. The
 * pivots are cleared below (row echelon form) or, with `reduced`, also
 * above (reduced row echelon form).
 */
std::vector<size_t>
eliminate(std::vector<BitVec> &work, size_t cols, bool reduced)
{
    std::vector<size_t> pivot_col;
    for (size_t col = 0; col < cols && pivot_col.size() < work.size();
         ++col) {
        const size_t rank = pivot_col.size();
        size_t pivot = rank;
        while (pivot < work.size() && !work[pivot].get(col))
            ++pivot;
        if (pivot == work.size())
            continue;
        std::swap(work[rank], work[pivot]);
        for (size_t r = reduced ? 0 : rank + 1; r < work.size(); ++r)
            if (r != rank && work[r].get(col))
                work[r] ^= work[rank];
        pivot_col.push_back(col);
    }
    return pivot_col;
}

} // namespace

void
BitMatrix::addRow(const BitVec &row)
{
    SURF_ASSERT(row.size() == cols_, "row width mismatch");
    rows_.push_back(row);
}

size_t
BitMatrix::rank() const
{
    std::vector<BitVec> work = rows_;
    return eliminate(work, cols_, false).size();
}

std::optional<BitVec>
BitMatrix::solveCombination(const BitVec &target) const
{
    SURF_ASSERT(target.size() == cols_, "target width mismatch");
    // Augment every row with an identity tag tracking the combination.
    const size_t nr = rows_.size();
    std::vector<BitVec> work;
    std::vector<BitVec> tags;
    work.reserve(nr);
    tags.reserve(nr);
    for (size_t r = 0; r < nr; ++r) {
        work.push_back(rows_[r]);
        BitVec tag(nr);
        tag.set(r, true);
        tags.push_back(tag);
    }
    BitVec residual = target;
    BitVec combo(nr);
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < nr; ++col) {
        size_t pivot = rank;
        while (pivot < nr && !work[pivot].get(col))
            ++pivot;
        if (pivot == nr)
            continue;
        std::swap(work[rank], work[pivot]);
        std::swap(tags[rank], tags[pivot]);
        for (size_t r = 0; r < nr; ++r) {
            if (r != rank && work[r].get(col)) {
                work[r] ^= work[rank];
                tags[r] ^= tags[rank];
            }
        }
        if (residual.get(col)) {
            residual ^= work[rank];
            combo ^= tags[rank];
        }
        ++rank;
    }
    if (!residual.isZero())
        return std::nullopt;
    return combo;
}

bool
BitMatrix::inSpan(const BitVec &target) const
{
    return firstOutsideSpan({target}) != 0;
}

size_t
BitMatrix::firstOutsideSpan(const std::vector<BitVec> &candidates) const
{
    // Row r of the echelon form is zero left of its pivot, so reducing a
    // candidate in pivot order clears each pivot column for good.
    std::vector<BitVec> work = rows_;
    const std::vector<size_t> pivot_col = eliminate(work, cols_, false);
    BitVec residual(cols_);
    for (size_t i = 0; i < candidates.size(); ++i) {
        SURF_ASSERT(candidates[i].size() == cols_, "target width mismatch");
        residual = candidates[i];
        for (size_t r = 0; r < pivot_col.size(); ++r)
            if (residual.get(pivot_col[r]))
                residual ^= work[r];
        if (!residual.isZero())
            return i;
    }
    return candidates.size();
}

std::optional<BitVec>
BitMatrix::solveSystem(const BitVec &b) const
{
    SURF_ASSERT(b.size() == rows(), "rhs length mismatch");
    // RREF on [M | b] with pivot-column bookkeeping.
    std::vector<BitVec> work = rows_;
    BitVec rhs = b;
    std::vector<size_t> pivot_col;
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < work.size(); ++col) {
        size_t pivot = rank;
        while (pivot < work.size() && !work[pivot].get(col))
            ++pivot;
        if (pivot == work.size())
            continue;
        std::swap(work[rank], work[pivot]);
        {
            const bool tmp = rhs.get(rank);
            rhs.set(rank, rhs.get(pivot));
            rhs.set(pivot, tmp);
        }
        for (size_t r = 0; r < work.size(); ++r) {
            if (r != rank && work[r].get(col)) {
                work[r] ^= work[rank];
                rhs.set(r, rhs.get(r) ^ rhs.get(rank));
            }
        }
        pivot_col.push_back(col);
        ++rank;
    }
    // Inconsistent when a zero row has rhs 1.
    for (size_t r = rank; r < work.size(); ++r)
        if (rhs.get(r))
            return std::nullopt;
    BitVec x(cols_);
    for (size_t r = 0; r < rank; ++r)
        if (rhs.get(r))
            x.set(pivot_col[r], true);
    return x;
}

std::vector<BitVec>
BitMatrix::kernelBasis() const
{
    // RREF, then one basis vector per free column.
    std::vector<BitVec> work = rows_;
    const std::vector<size_t> pivot_col = eliminate(work, cols_, true);
    const size_t rank = pivot_col.size();
    std::vector<bool> is_pivot(cols_, false);
    for (size_t c : pivot_col)
        is_pivot[c] = true;

    std::vector<BitVec> basis;
    for (size_t free_col = 0; free_col < cols_; ++free_col) {
        if (is_pivot[free_col])
            continue;
        BitVec v(cols_);
        v.set(free_col, true);
        for (size_t r = 0; r < rank; ++r)
            if (work[r].get(free_col))
                v.set(pivot_col[r], true);
        basis.push_back(v);
    }
    return basis;
}

} // namespace surf
