#include "coset.hh"

#include <bit>

#include "util/logging.hh"

namespace surf {

size_t
minCosetWeight(const std::vector<BitVec> &basis, const BitVec &offset,
               size_t max_rank)
{
    // Reduce to an independent basis (forward elimination).
    std::vector<BitVec> reduced;
    for (const BitVec &b : basis) {
        BitVec v = b;
        for (const BitVec &r : reduced) {
            size_t lead = r.lowestSetBit();
            if (lead < v.size() && v.get(lead))
                v ^= r;
        }
        if (!v.isZero())
            reduced.push_back(v);
    }
    const size_t m = reduced.size();
    SURF_ASSERT(m <= max_rank,
                "coset enumeration too large: rank ", m, " > ", max_rank);

    BitVec current = offset;
    size_t best = current.popcount();
    const uint64_t total = uint64_t{1} << m;
    for (uint64_t i = 1; i < total; ++i) {
        // Gray code: the bit that flips between i-1 and i.
        const int flip = std::countr_zero(i);
        current ^= reduced[static_cast<size_t>(flip)];
        const size_t w = current.popcount();
        if (w < best)
            best = w;
    }
    return best;
}

} // namespace surf
