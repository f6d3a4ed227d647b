#include "subsystem_code.hh"

#include "coset.hh"
#include "util/logging.hh"

namespace surf {

void
SubsystemCode::addStabilizer(const PauliString &s)
{
    SURF_ASSERT(s.numQubits() == n_);
    stabilizers_.push_back(s);
}

void
SubsystemCode::addLogicalPair(const PauliString &x, const PauliString &z)
{
    SURF_ASSERT(x.numQubits() == n_ && z.numQubits() == n_);
    logicalX_.push_back(x);
    logicalZ_.push_back(z);
}

void
SubsystemCode::addGaugePair(const PauliString &x, const PauliString &z)
{
    SURF_ASSERT(x.numQubits() == n_ && z.numQubits() == n_);
    gaugeX_.push_back(x);
    gaugeZ_.push_back(z);
}

BitVec
SubsystemCode::symplecticRow(const PauliString &p)
{
    const size_t n = p.numQubits();
    BitVec row(2 * n);
    for (size_t q = 0; q < n; ++q) {
        if (p.xBits().get(q))
            row.set(q, true);
        if (p.zBits().get(q))
            row.set(n + q, true);
    }
    return row;
}

ValidationResult
SubsystemCode::validate() const
{
    // Gather every generator with a role label for error messages.
    struct Gen { const PauliString *p; std::string name; };
    std::vector<Gen> gens;
    // Appended, not `"LX" + ...`: GCC 12 at -O3 flags the inlined
    // literal-plus-temporary insert as an overlapping copy (-Wrestrict).
    auto label = [](const char *role, size_t i) {
        return std::string(role).append(std::to_string(i));
    };
    for (size_t i = 0; i < stabilizers_.size(); ++i)
        gens.push_back({&stabilizers_[i], label("s", i)});
    for (size_t i = 0; i < logicalX_.size(); ++i) {
        gens.push_back({&logicalX_[i], label("LX", i)});
        gens.push_back({&logicalZ_[i], label("LZ", i)});
    }
    for (size_t i = 0; i < gaugeX_.size(); ++i) {
        gens.push_back({&gaugeX_[i], label("GX", i)});
        gens.push_back({&gaugeZ_[i], label("GZ", i)});
    }

    // Counting identity: n - k - l stabilizers.
    const size_t expect_stabs = n_ - logicalX_.size() - gaugeX_.size();
    if (stabilizers_.size() != expect_stabs) {
        return ValidationResult::fail(
            "stabilizer count " + std::to_string(stabilizers_.size()) +
            " != n-k-l = " + std::to_string(expect_stabs));
    }

    // Condition (1): independence as group elements == GF(2) independence.
    BitMatrix mat(2 * n_);
    for (const auto &g : gens)
        mat.addRow(symplecticRow(*g.p));
    if (!mat.rowsIndependent())
        return ValidationResult::fail("generators are not independent");

    // Conditions (2) and (3): pairwise commutation structure.
    auto pair_anticommutes = [](const PauliString &a, const PauliString &b) {
        return !a.commutesWith(b);
    };
    for (size_t i = 0; i < logicalX_.size(); ++i) {
        if (!pair_anticommutes(logicalX_[i], logicalZ_[i]))
            return ValidationResult::fail(
                "logical pair " + std::to_string(i) + " fails to anti-commute");
    }
    for (size_t i = 0; i < gaugeX_.size(); ++i) {
        if (!pair_anticommutes(gaugeX_[i], gaugeZ_[i]))
            return ValidationResult::fail(
                "gauge pair " + std::to_string(i) + " fails to anti-commute");
    }
    // All non-paired combinations must commute. Identify pairs by pointer.
    auto paired = [&](const PauliString *a, const PauliString *b) {
        for (size_t i = 0; i < logicalX_.size(); ++i)
            if ((a == &logicalX_[i] && b == &logicalZ_[i]) ||
                (b == &logicalX_[i] && a == &logicalZ_[i]))
                return true;
        for (size_t i = 0; i < gaugeX_.size(); ++i)
            if ((a == &gaugeX_[i] && b == &gaugeZ_[i]) ||
                (b == &gaugeX_[i] && a == &gaugeZ_[i]))
                return true;
        return false;
    };
    for (size_t i = 0; i < gens.size(); ++i) {
        for (size_t j = i + 1; j < gens.size(); ++j) {
            if (paired(gens[i].p, gens[j].p))
                continue;
            if (!gens[i].p->commutesWith(*gens[j].p))
                return ValidationResult::fail(
                    gens[i].name + " and " + gens[j].name +
                    " anti-commute but are not a pair");
        }
    }
    return ValidationResult::pass();
}

ValidationResult
SubsystemCode::validateMeasurementSet(
    const std::vector<PauliString> &stab_meas,
    const std::vector<PauliString> &gauge_meas) const
{
    // Span of the stabilizer generators.
    BitMatrix stab_span(2 * n_);
    for (const auto &s : stabilizers_)
        stab_span.addRow(symplecticRow(s));

    // Span of stabilizers plus gauge operators.
    BitMatrix gauge_span(2 * n_);
    for (const auto &s : stabilizers_)
        gauge_span.addRow(symplecticRow(s));
    for (const auto &g : gaugeX_)
        gauge_span.addRow(symplecticRow(g));
    for (const auto &g : gaugeZ_)
        gauge_span.addRow(symplecticRow(g));

    // Condition (1).
    for (size_t i = 0; i < stab_meas.size(); ++i) {
        if (!stab_span.inSpan(symplecticRow(stab_meas[i])))
            return ValidationResult::fail(
                "measured stabilizer " + std::to_string(i) +
                " is outside <s_1..s_m>");
    }
    // Condition (2).
    for (size_t i = 0; i < gauge_meas.size(); ++i) {
        const BitVec row = symplecticRow(gauge_meas[i]);
        if (!gauge_span.inSpan(row))
            return ValidationResult::fail(
                "measured gauge " + std::to_string(i) +
                " is outside the gauge group");
        if (stab_span.inSpan(row))
            return ValidationResult::fail(
                "measured gauge " + std::to_string(i) +
                " is actually a stabilizer");
    }
    // Condition (3): each s_i recoverable from the measured set.
    BitMatrix meas_span(2 * n_);
    for (const auto &m : stab_meas)
        meas_span.addRow(symplecticRow(m));
    for (const auto &m : gauge_meas)
        meas_span.addRow(symplecticRow(m));
    for (size_t i = 0; i < stabilizers_.size(); ++i) {
        if (!meas_span.inSpan(symplecticRow(stabilizers_[i])))
            return ValidationResult::fail(
                "stabilizer generator " + std::to_string(i) +
                " is not recoverable from the measurement set");
    }
    return ValidationResult::pass();
}

bool
SubsystemCode::inStabilizerGroup(const PauliString &p) const
{
    BitMatrix mat(2 * n_);
    for (const auto &s : stabilizers_)
        mat.addRow(symplecticRow(s));
    return mat.inSpan(symplecticRow(p));
}

bool
SubsystemCode::inGaugeGroup(const PauliString &p) const
{
    BitMatrix mat(2 * n_);
    for (const auto &s : stabilizers_)
        mat.addRow(symplecticRow(s));
    for (const auto &g : gaugeX_)
        mat.addRow(symplecticRow(g));
    for (const auto &g : gaugeZ_)
        mat.addRow(symplecticRow(g));
    return mat.inSpan(symplecticRow(p));
}

bool
SubsystemCode::inCentralizerOfStabilizers(const PauliString &p) const
{
    for (const auto &s : stabilizers_)
        if (!p.commutesWith(s))
            return false;
    return true;
}

size_t
SubsystemCode::distanceExactCss(PauliType t, size_t which) const
{
    SURF_ASSERT(which < logicalX_.size());
    const PauliString &logical =
        (t == PauliType::X) ? logicalX_[which] : logicalZ_[which];
    SURF_ASSERT(logical.isCssType(t), "logical operator is not pure-type");

    // The type-t bit-plane of a pure-type operator.
    auto plane = [&](const PauliString &p) {
        return t == PauliType::X ? p.xBits() : p.zBits();
    };

    std::vector<BitVec> basis;
    for (const auto &s : stabilizers_) {
        if (s.isCssType(t))
            basis.push_back(plane(s));
        else
            SURF_ASSERT(s.isCssType(oppositeType(t)),
                        "non-CSS stabilizer in distanceExactCss");
    }
    const auto &gauges = (t == PauliType::X) ? gaugeX_ : gaugeZ_;
    for (const auto &g : gauges) {
        SURF_ASSERT(g.isCssType(t), "non-CSS gauge operator");
        basis.push_back(plane(g));
    }
    return minCosetWeight(basis, plane(logical));
}

} // namespace surf
