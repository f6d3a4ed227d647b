/**
 * @file
 * Reference bare-logical search for the tests: the plain form of
 * algebraicLogical, kept as an oracle. Qubits are indexed through an
 * ordered map, and every kernel vector of the commutation constraints is
 * tested for membership in the same-type group by its own full tagged
 * elimination (BitMatrix::solveCombination). The first vector outside
 * the group is the representative.
 */

#ifndef SURF_TESTS_DISTANCE_REFERENCE_HH
#define SURF_TESTS_DISTANCE_REFERENCE_HH

#include <map>
#include <vector>

#include "lattice/patch.hh"
#include "pauli/bitmatrix.hh"

namespace surf::testref {

inline std::vector<Coord>
referenceAlgebraicLogical(const CodePatch &patch, PauliType t)
{
    const std::vector<Coord> list = patch.dataList();
    const size_t n = list.size();
    if (n == 0)
        return {};
    std::map<Coord, size_t> index;
    for (size_t i = 0; i < n; ++i)
        index[list[i]] = i;
    const auto bits = [&](const std::vector<Coord> &support) {
        BitVec v(n);
        for (const Coord &q : support)
            v.set(index.at(q), true);
        return v;
    };

    BitMatrix constraints(n), trivial(n);
    for (const auto &g : patch.stabilizerGenerators())
        (g.type == t ? trivial : constraints).addRow(bits(g.support));
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge)
            (c.type == t ? trivial : constraints).addRow(bits(c.support));

    for (const BitVec &v : constraints.kernelBasis()) {
        if (trivial.solveCombination(v).has_value())
            continue;
        std::vector<Coord> out;
        for (size_t i : v.onesPositions())
            out.push_back(list[i]);
        return out;
    }
    return {};
}

} // namespace surf::testref

#endif // SURF_TESTS_DISTANCE_REFERENCE_HH
