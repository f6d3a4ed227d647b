/**
 * @file
 * Exact minimum-weight coset-leader search over GF(2): the test oracle for
 * code-distance computations. Enumerates offset + span(basis) with a Gray
 * code so each step touches one basis vector.
 */

#ifndef SURF_TESTS_COSET_HH
#define SURF_TESTS_COSET_HH

#include <vector>

#include "pauli/bitvec.hh"

namespace surf {

/**
 * Minimum Hamming weight over the coset {offset + sum S : S subset of basis}.
 *
 * The basis is first reduced to an independent set. Intended for test-size
 * instances; panics if the reduced basis exceeds `max_rank` (cost 2^rank).
 *
 * @param basis generating vectors of the subspace
 * @param offset coset representative (e.g. a logical operator)
 * @param max_rank safety cap on the enumeration exponent
 * @return the minimum weight found
 */
size_t minCosetWeight(const std::vector<BitVec> &basis, const BitVec &offset,
                      size_t max_rank = 26);

} // namespace surf

#endif // SURF_TESTS_COSET_HH
