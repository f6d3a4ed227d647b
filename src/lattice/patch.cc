#include "lattice/patch.hh"

#include <algorithm>
#include <numeric>

#include "pauli/bitmatrix.hh"
#include "util/logging.hh"

namespace surf {

bool
Check::contains(Coord q) const
{
    return std::binary_search(support.begin(), support.end(), q);
}

bool
supportsAnticommute(const std::vector<Coord> &a, const std::vector<Coord> &b)
{
    // Parity of |a intersect b| via a merge walk (both sorted).
    size_t i = 0, j = 0;
    bool parity = false;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            parity = !parity;
            ++i;
            ++j;
        }
    }
    return parity;
}

std::vector<Coord>
supportXor(const std::vector<Coord> &a, const std::vector<Coord> &b)
{
    std::vector<Coord> out;
    out.reserve(a.size() + b.size());
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
            out.push_back(a[i++]);
        } else if (i == a.size() || b[j] < a[i]) {
            out.push_back(b[j++]);
        } else {
            ++i;
            ++j;
        }
    }
    return out;
}

std::vector<int>
CodePatch::checksOn(Coord q, PauliType t) const
{
    std::vector<int> out;
    for (size_t i = 0; i < checks_.size(); ++i)
        if (checks_[i].type == t && checks_[i].contains(q))
            out.push_back(static_cast<int>(i));
    return out;
}

std::vector<int>
CodePatch::checksOn(Coord q) const
{
    std::vector<int> out;
    for (size_t i = 0; i < checks_.size(); ++i)
        if (checks_[i].contains(q))
            out.push_back(static_cast<int>(i));
    return out;
}

std::vector<StabGen>
CodePatch::stabilizerGenerators() const
{
    std::vector<StabGen> gens;
    for (size_t i = 0; i < checks_.size(); ++i) {
        if (checks_[i].role == CheckRole::Stabilizer) {
            StabGen g;
            g.type = checks_[i].type;
            g.support = checks_[i].support;
            g.sourceCheck = static_cast<int>(i);
            gens.push_back(std::move(g));
        }
    }
    for (size_t s = 0; s < supers_.size(); ++s) {
        StabGen g;
        g.type = supers_[s].type;
        for (int m : supers_[s].members)
            g.support = supportXor(g.support, checks_[m].support);
        g.isSuper = true;
        g.sourceSuper = static_cast<int>(s);
        gens.push_back(std::move(g));
    }
    return gens;
}

std::vector<Coord>
CodePatch::dataList() const
{
    return {data_.begin(), data_.end()};
}

size_t
CodePatch::numPhysicalQubits() const
{
    std::set<Coord> ancillas;
    for (const auto &c : checks_)
        if (c.ancilla)
            ancillas.insert(*c.ancilla);
    return data_.size() + ancillas.size();
}

void
CodePatch::setBounds(int x0, int x1, int y0, int y1)
{
    xMin_ = x0;
    xMax_ = x1;
    yMin_ = y0;
    yMax_ = y1;
}

void
CodePatch::addData(Coord q)
{
    SURF_ASSERT(q.isDataSite(), "not a data site: ", q.str());
    data_.insert(q);
}

void
CodePatch::removeData(Coord q)
{
    data_.erase(q);
}

int
CodePatch::addCheck(Check c)
{
    std::sort(c.support.begin(), c.support.end());
    checks_.push_back(std::move(c));
    return static_cast<int>(checks_.size()) - 1;
}

void
CodePatch::compactChecks(const std::vector<bool> &dead)
{
    SURF_ASSERT(dead.size() == checks_.size());
    std::vector<Check> kept;
    kept.reserve(checks_.size());
    for (size_t i = 0; i < checks_.size(); ++i)
        if (!dead[i])
            kept.push_back(std::move(checks_[i]));
    checks_ = std::move(kept);
    supers_.clear(); // caller must recomputeSupers()
}

void
CodePatch::recomputeSupers()
{
    supers_.clear();
    for (auto &c : checks_)
        c.cluster = -1;

    // Promote any gauge check commuting with every opposite-type gauge
    // check back to a plain stabilizer (same-type pure operators always
    // commute with each other).
    std::vector<int> gauge_idx;
    for (size_t i = 0; i < checks_.size(); ++i)
        if (checks_[i].role == CheckRole::Gauge)
            gauge_idx.push_back(static_cast<int>(i));
    for (int g : gauge_idx) {
        bool clashes = false;
        for (int h : gauge_idx) {
            if (h == g || checks_[h].type == checks_[g].type)
                continue;
            if (supportsAnticommute(checks_[g].support, checks_[h].support)) {
                clashes = true;
                break;
            }
        }
        if (!clashes) {
            checks_[g].role = CheckRole::Stabilizer;
            checks_[g].phase = 0;
        }
    }

    // Kernel formulation per type: subsets of type-t gauge checks whose
    // product commutes with every opposite-type gauge check.
    for (const PauliType t : {PauliType::Z, PauliType::X}) {
        std::vector<int> own, opp;
        for (size_t i = 0; i < checks_.size(); ++i) {
            if (checks_[i].role != CheckRole::Gauge)
                continue;
            (checks_[i].type == t ? own : opp).push_back(static_cast<int>(i));
            if (checks_[i].type == t)
                checks_[i].phase = (t == PauliType::Z) ? 0 : 1;
        }
        if (own.empty())
            continue;
        // M[e][i] = 1 when own[i] anti-commutes with opp[e]. Kernel
        // vectors v (over own-indices, M v = 0) are exactly the subsets of
        // own gauges whose product commutes with every opposite gauge.
        BitMatrix mat(own.size());
        for (int h : opp) {
            BitVec row(own.size());
            for (size_t i = 0; i < own.size(); ++i)
                if (supportsAnticommute(checks_[own[i]].support,
                                        checks_[h].support))
                    row.set(i, true);
            mat.addRow(row);
        }
        auto kernel = mat.kernelBasis();
        // Localize the basis: greedily reduce vectors against lighter ones
        // so region-disjoint defects produce region-local supers.
        std::sort(kernel.begin(), kernel.end(),
                  [](const BitVec &a, const BitVec &b) {
                      return a.popcount() < b.popcount();
                  });
        for (size_t j = 0; j < kernel.size(); ++j) {
            for (size_t i = 0; i < j; ++i) {
                BitVec candidate = kernel[j];
                candidate ^= kernel[i];
                if (candidate.popcount() < kernel[j].popcount())
                    kernel[j] = candidate;
            }
        }
        for (const BitVec &subset : kernel) {
            SuperStab ss;
            ss.type = t;
            for (size_t i = 0; i < own.size(); ++i)
                if (subset.get(i))
                    ss.members.push_back(own[i]);
            SURF_ASSERT(!ss.members.empty());
            const int id = static_cast<int>(supers_.size());
            for (int m : ss.members)
                if (checks_[m].cluster < 0)
                    checks_[m].cluster = id;
            supers_.push_back(std::move(ss));
        }
    }
}

ValidationResult
CodePatch::validate() const
{
    // Supports refer to live data sites and are sorted.
    for (size_t i = 0; i < checks_.size(); ++i) {
        const Check &c = checks_[i];
        if (c.support.empty())
            return ValidationResult::fail("check " + std::to_string(i) +
                                          " has empty support");
        if (!std::is_sorted(c.support.begin(), c.support.end()))
            return ValidationResult::fail("check " + std::to_string(i) +
                                          " support not sorted");
        for (const Coord &q : c.support) {
            if (!q.isDataSite())
                return ValidationResult::fail("check " + std::to_string(i) +
                                              " touches non-data site " +
                                              q.str());
            if (!data_.count(q))
                return ValidationResult::fail("check " + std::to_string(i) +
                                              " touches dead qubit " +
                                              q.str());
        }
        if (c.ancilla && !c.ancilla->isCheckSite())
            return ValidationResult::fail("check " + std::to_string(i) +
                                          " ancilla not on a check site");
    }

    const auto gens = stabilizerGenerators();
    // Stabilizer generators commute pairwise.
    for (size_t i = 0; i < gens.size(); ++i) {
        if (gens[i].support.empty())
            return ValidationResult::fail("empty stabilizer generator");
        for (size_t j = i + 1; j < gens.size(); ++j) {
            if (gens[i].type == gens[j].type)
                continue;
            if (supportsAnticommute(gens[i].support, gens[j].support))
                return ValidationResult::fail(
                    "stabilizer generators " + std::to_string(i) + " and " +
                    std::to_string(j) + " anti-commute");
        }
    }
    // Stabilizer generators commute with every measured gauge check.
    for (size_t i = 0; i < gens.size(); ++i) {
        for (size_t c = 0; c < checks_.size(); ++c) {
            if (checks_[c].role != CheckRole::Gauge)
                continue;
            if (gens[i].type == checks_[c].type)
                continue;
            if (supportsAnticommute(gens[i].support, checks_[c].support))
                return ValidationResult::fail(
                    "stabilizer generator " + std::to_string(i) +
                    " anti-commutes with gauge check " + std::to_string(c));
        }
    }
    // Logical representatives.
    auto check_logical = [&](const std::vector<Coord> &rep, PauliType t,
                             const char *name) -> ValidationResult {
        if (rep.empty())
            return ValidationResult::fail(std::string(name) + " is empty");
        for (const Coord &q : rep)
            if (!data_.count(q))
                return ValidationResult::fail(std::string(name) +
                                              " touches dead qubit " + q.str());
        for (size_t i = 0; i < gens.size(); ++i) {
            if (gens[i].type == t)
                continue;
            if (supportsAnticommute(rep, gens[i].support))
                return ValidationResult::fail(
                    std::string(name) + " anti-commutes with generator " +
                    std::to_string(i));
        }
        for (size_t c = 0; c < checks_.size(); ++c) {
            if (checks_[c].role != CheckRole::Gauge || checks_[c].type == t)
                continue;
            if (supportsAnticommute(rep, checks_[c].support))
                return ValidationResult::fail(
                    std::string(name) + " anti-commutes with gauge check " +
                    std::to_string(c));
        }
        return ValidationResult::pass();
    };
    if (auto r = check_logical(logicalX_, PauliType::X, "logicalX"); !r.ok)
        return r;
    if (auto r = check_logical(logicalZ_, PauliType::Z, "logicalZ"); !r.ok)
        return r;
    std::vector<Coord> lx = logicalX_, lz = logicalZ_;
    std::sort(lx.begin(), lx.end());
    std::sort(lz.begin(), lz.end());
    if (!supportsAnticommute(lx, lz))
        return ValidationResult::fail("logical X and Z fail to anti-commute");

    return ValidationResult::pass();
}

std::string
CodePatch::render() const
{
    if (data_.empty())
        return "(empty patch)\n";
    int x0 = xMin_ - 1, x1 = xMax_ + 1, y0 = yMin_ - 1, y1 = yMax_ + 1;
    const int w = x1 - x0 + 1;
    const int h = y1 - y0 + 1;
    std::vector<std::string> grid(h, std::string(w, ' '));
    auto put = [&](Coord c, char ch) {
        if (c.x >= x0 && c.x <= x1 && c.y >= y0 && c.y <= y1)
            grid[c.y - y0][c.x - x0] = ch;
    };
    for (int y = yMin_; y <= yMax_; y += 2)
        for (int x = xMin_; x <= xMax_; x += 2)
            put({x, y}, '.');
    for (const Coord &q : data_)
        put(q, 'o');
    for (const auto &c : checks_) {
        if (!c.ancilla)
            continue;
        char ch;
        if (c.role == CheckRole::Stabilizer)
            ch = (c.type == PauliType::X) ? 'X' : 'Z';
        else
            ch = (c.type == PauliType::X) ? 'x' : 'z';
        put(*c.ancilla, ch);
    }
    std::string out;
    for (const auto &row : grid)
        out += row + "\n";
    return out;
}

} // namespace surf
