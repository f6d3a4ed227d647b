/**
 * @file
 * Conversion from the geometric CodePatch to the algebraic SubsystemCode
 * (generator representation of the paper's Appendix A), plus the exact
 * distance oracle used to validate the graph-based distance.
 */

#ifndef SURF_TESTS_CONVERT_HH
#define SURF_TESTS_CONVERT_HH

#include <map>
#include <vector>

#include "lattice/patch.hh"
#include "subsystem_code.hh"

namespace surf {

/** A patch's algebraic view with the qubit indexing that produced it. */
struct PatchAlgebra
{
    std::vector<Coord> qubits;     ///< index -> data coordinate (sorted)
    std::map<Coord, int> index;    ///< data coordinate -> index
    SubsystemCode code;            ///< full generator representation

    PatchAlgebra() : code(0) {}
};

/**
 * Build the generator representation of a patch: stabilizer generators
 * (plain checks plus super-stabilizer products), the logical pair from the
 * stored representatives, and gauge pairs extracted from the measured
 * gauge checks by symplectic Gram-Schmidt.
 */
PatchAlgebra toAlgebra(const CodePatch &patch);

/**
 * Exact dressed distance oracle for type t: minimum Hamming weight over
 * logical_t multiplied by any product of type-t stabilizer generators and
 * type-t gauge checks. Exponential in the generator count; use on
 * test-size patches only.
 */
size_t exactDistance(const CodePatch &patch, PauliType t);

} // namespace surf

#endif // SURF_TESTS_CONVERT_HH
