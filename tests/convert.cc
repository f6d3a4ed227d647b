#include "convert.hh"

#include <algorithm>

#include "coset.hh"
#include "util/logging.hh"

namespace surf {

namespace {

PauliString
supportToPauli(const std::vector<Coord> &support, PauliType t,
               const std::map<Coord, int> &index, size_t n)
{
    PauliString p(n);
    for (const Coord &q : support) {
        auto it = index.find(q);
        SURF_ASSERT(it != index.end(), "support coordinate ", q.str(),
                    " is not a live data qubit");
        p.setPauli(static_cast<size_t>(it->second),
                   t == PauliType::X ? Pauli::X : Pauli::Z);
    }
    return p;
}

/** Rebuild a Pauli operator from its (x|z) symplectic row. */
PauliString
pauliFromSymplectic(const BitVec &row, size_t n)
{
    PauliString p(n);
    for (size_t q = 0; q < n; ++q) {
        const bool x = row.get(q), z = row.get(n + q);
        if (x && z)
            p.setPauli(q, Pauli::Y);
        else if (x)
            p.setPauli(q, Pauli::X);
        else if (z)
            p.setPauli(q, Pauli::Z);
    }
    return p;
}

/** Swap the x and z halves: inner(a, b) == dual(a) . b. */
BitVec
dualRow(const BitVec &row)
{
    const size_t n = row.size() / 2;
    BitVec out(2 * n);
    for (size_t q = 0; q < n; ++q) {
        out.set(q, row.get(n + q));
        out.set(n + q, row.get(q));
    }
    return out;
}

} // namespace

PatchAlgebra
toAlgebra(const CodePatch &patch)
{
    PatchAlgebra out;
    out.qubits = patch.dataList();
    for (size_t i = 0; i < out.qubits.size(); ++i)
        out.index[out.qubits[i]] = static_cast<int>(i);
    const size_t n = out.qubits.size();
    out.code = SubsystemCode(n);

    for (const auto &g : patch.stabilizerGenerators())
        out.code.addStabilizer(supportToPauli(g.support, g.type, out.index, n));

    out.code.addLogicalPair(
        supportToPauli(patch.logicalX(), PauliType::X, out.index, n),
        supportToPauli(patch.logicalZ(), PauliType::Z, out.index, n));

    // Gauge pairs from the measured gauge checks via symplectic
    // Gram-Schmidt. Each super-stabilizer cluster of m gauge checks
    // contributes m-1 independent gauge operators modulo the stabilizer
    // group; clusters of opposite type pair up region by region.
    std::vector<PauliString> work;
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge)
            work.push_back(supportToPauli(c.support, c.type, out.index, n));

    std::vector<PauliString> leftovers;
    while (!work.empty()) {
        PauliString a = work.back();
        work.pop_back();
        // Find a partner anti-commuting with a.
        int partner = -1;
        for (size_t i = 0; i < work.size(); ++i) {
            if (!a.commutesWith(work[i])) {
                partner = static_cast<int>(i);
                break;
            }
        }
        if (partner < 0) {
            // Central among the remaining operators: either redundant or
            // the measured half of a gauge pair whose partner is not
            // measured; resolved below.
            leftovers.push_back(a);
            continue;
        }
        PauliString b = work[static_cast<size_t>(partner)];
        work.erase(work.begin() + partner);
        // Symplectic reduction of the remaining operators.
        for (auto &w : work) {
            const bool hit_a = !w.commutesWith(a);
            const bool hit_b = !w.commutesWith(b);
            if (hit_a)
                w *= b;
            if (hit_b)
                w *= a;
        }
        // Order the pair so the X-like operator comes first when pure.
        if (a.isCssType(PauliType::Z) && b.isCssType(PauliType::X))
            std::swap(a, b);
        out.code.addGaugePair(a, b);
    }

    // Unpaired measured gauge DOFs: synthesize the missing partner so the
    // generator representation is complete (Theorem 1 requires pairs).
    auto current_gens = [&] {
        std::vector<PauliString> gens(out.code.stabilizers());
        for (size_t i = 0; i < out.code.numLogical(); ++i) {
            gens.push_back(out.code.logicalX(i));
            gens.push_back(out.code.logicalZ(i));
        }
        for (size_t i = 0; i < out.code.numGauge(); ++i) {
            gens.push_back(out.code.gaugeXs()[i]);
            gens.push_back(out.code.gaugeZs()[i]);
        }
        return gens;
    };
    // Partner p for operator c: commutes with every current generator,
    // anti-commutes with c (constraints dual(g).p = 0, dual(c).p = 1).
    auto add_synthesized_pair = [&](const PauliString &c) {
        const auto gens = current_gens();
        BitMatrix constraints(2 * n);
        for (const auto &g : gens)
            constraints.addRow(dualRow(SubsystemCode::symplecticRow(g)));
        constraints.addRow(dualRow(SubsystemCode::symplecticRow(c)));
        BitVec rhs(constraints.rows());
        rhs.set(constraints.rows() - 1, true);
        const auto x = constraints.solveSystem(rhs);
        SURF_ASSERT(x.has_value(), "no symplectic partner for unpaired "
                                   "gauge operator");
        PauliString p = pauliFromSymplectic(*x, n);
        if (c.isCssType(PauliType::Z) && p.isCssType(PauliType::X))
            out.code.addGaugePair(p, c);
        else
            out.code.addGaugePair(c, p);
    };

    for (const PauliString &c : leftovers) {
        BitMatrix span(2 * n);
        for (const auto &g : current_gens())
            span.addRow(SubsystemCode::symplecticRow(g));
        if (span.inSpan(SubsystemCode::symplecticRow(c)))
            continue; // genuinely redundant
        add_synthesized_pair(c);
    }

    // Fully-unmeasured DOFs: heavy defect patterns can leave a region
    // where a former super-stabilizer is no longer inferable and neither
    // half of the corresponding gauge pair is measured. Complete the
    // representation by synthesizing independent centralizer pairs until
    // the counting identity #stabs + k + l == n holds.
    while (out.code.numStabilizers() + out.code.numLogical() +
               out.code.numGauge() <
           n) {
        const auto gens = current_gens();
        BitMatrix span(2 * n);
        BitMatrix duals(2 * n);
        for (const auto &g : gens) {
            span.addRow(SubsystemCode::symplecticRow(g));
            duals.addRow(dualRow(SubsystemCode::symplecticRow(g)));
        }
        const std::vector<BitVec> centralizer = duals.kernelBasis();
        const size_t first = span.firstOutsideSpan(centralizer);
        SURF_ASSERT(first < centralizer.size(),
                    "missing stabilizer DOF but centralizer exhausted");
        add_synthesized_pair(pauliFromSymplectic(centralizer[first], n));
    }
    return out;
}

size_t
exactDistance(const CodePatch &patch, PauliType t)
{
    const auto qubits = patch.dataList();
    std::map<Coord, int> index;
    for (size_t i = 0; i < qubits.size(); ++i)
        index[qubits[i]] = static_cast<int>(i);
    const size_t n = qubits.size();

    auto to_bits = [&](const std::vector<Coord> &support) {
        BitVec v(n);
        for (const Coord &q : support) {
            auto it = index.find(q);
            SURF_ASSERT(it != index.end());
            v.set(static_cast<size_t>(it->second), true);
        }
        return v;
    };

    std::vector<BitVec> basis;
    for (const auto &g : patch.stabilizerGenerators())
        if (g.type == t)
            basis.push_back(to_bits(g.support));
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == t)
            basis.push_back(to_bits(c.support));

    const auto &logical =
        (t == PauliType::X) ? patch.logicalX() : patch.logicalZ();
    return minCosetWeight(basis, to_bits(logical));
}

} // namespace surf
