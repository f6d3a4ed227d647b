/**
 * @file
 * Code-distance computation for (deformed) surface code patches, plus
 * extraction of minimum-weight logical operator representatives.
 *
 * Method: a type-t logical operator is a set of data qubits C such that
 * (i) every opposite-type stabilizer generator overlaps C evenly (C is
 * undetectable) and (ii) C anti-commutes with a reference opposite-type
 * logical (C acts on the encoded qubit). A reference logical is computed
 * algebraically as a GF(2) kernel vector outside the gauge group; the
 * minimum-weight C is then a shortest path on a parity-doubled
 * check-adjacency graph, where each data qubit is an edge between the
 * (at most two) opposite-type generators containing it (a shared virtual
 * boundary node absorbs deficient qubits) and crossing between the parity
 * copies exactly on the reference's support. Verified against the exact
 * GF(2) coset oracle in the test suite.
 *
 * Cost: one flat kernel per thread indexes the patch once per call,
 * writing every generator and gauge check as a row of one uint64_t
 * table. Each Pauli type's rows are reduced to RREF once per patch; a
 * reference logical reads the constraint type's RREF, generating kernel
 * vectors one free column at a time until one falls outside the span of
 * the other type's RREF. The BFS runs on flat arrays (CSR adjacency,
 * index queue) linear in the patch. Buffers are reused across calls, so
 * a warm query allocates only its result. graphDistances answers both
 * types from one indexing and the same two RREFs; callers that need both
 * the distances and the bare representatives (DeformState::build) pass
 * them on to refreshLogicals instead of recomputing them.
 */

#ifndef SURF_LATTICE_DISTANCE_HH
#define SURF_LATTICE_DISTANCE_HH

#include <vector>

#include "lattice/patch.hh"

namespace surf {

/** Result of a graph-distance query. */
struct DistanceResult
{
    /** Minimum logical-operator weight; 0 means no logical operator of
     *  this type exists (the encoded qubit is destroyed). */
    size_t distance = 0;
    /** Support of one minimum-weight (dressed) logical representative. */
    std::vector<Coord> path;
    /** Qubits contained in three or more detecting generators (possible
     *  only under extreme defect density, where the region is no longer
     *  matching-graph-like). Such qubits are excluded from the search, so
     *  a non-zero count makes the distance an upper bound. */
    size_t congestedQubits = 0;
};

/**
 * A valid *bare* type-t logical representative computed algebraically:
 * a pure-type-t operator commuting with every opposite-type stabilizer
 * generator and gauge check, outside the span of same-type generators and
 * gauge checks. Returns an empty vector when none exists (code destroyed).
 * Not minimum-weight; used as the crossing-parity reference.
 */
std::vector<Coord> algebraicLogical(const CodePatch &patch, PauliType t);

/** Minimum weight of a type-t logical operator of the patch. */
DistanceResult graphDistance(const CodePatch &patch, PauliType t);

/** graphDistance of both logical types. */
struct DistanceResults
{
    DistanceResult x;
    DistanceResult z;
};

/** graphDistance(patch, X) and (patch, Z) from one indexing of the patch. */
DistanceResults graphDistances(const CodePatch &patch);

/** Convenience: min(X-distance, Z-distance). */
size_t codeDistance(const CodePatch &patch);

/**
 * A bare minimum-weight-ish logical representative of type t: starts from
 * the graph path and, if the path is only dressed (anti-commutes with
 * some measured gauge check), fixes it up by a GF(2) commutation solve
 * over same-type generators and gauge checks.
 */
std::vector<Coord> bareLogicalRep(const CodePatch &patch, PauliType t);

/** bareLogicalRep starting from an already computed graphDistance(patch,
 *  t) of the same patch. */
std::vector<Coord> bareLogicalRep(const CodePatch &patch, PauliType t,
                                  const DistanceResult &dist);

/**
 * Refresh the patch's stored logical representatives with bare
 * minimum-weight ones that are guaranteed to anti-commute with each other
 * (called after deformations).
 */
void refreshLogicals(CodePatch &patch);

/** refreshLogicals reusing graphDistance(patch, X) and (patch, Z). */
void refreshLogicals(CodePatch &patch, const DistanceResult &x,
                     const DistanceResult &z);

} // namespace surf

#endif // SURF_LATTICE_DISTANCE_HH
