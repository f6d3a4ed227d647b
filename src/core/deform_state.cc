#include "core/deform_state.hh"

#include <algorithm>

#include "core/instructions.hh"
#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "util/logging.hh"

namespace surf {

namespace {

/** Distances of a candidate patch (consumed; supers recomputed first). */
std::pair<size_t, size_t>
candidateDistances(CodePatch &&p)
{
    p.recomputeSupers();
    const DistanceResults d = graphDistances(p);
    return {d.x.distance, d.z.distance};
}

/** Ranking tuple for boundary-removal candidates. */
struct CandidateScore
{
    size_t min_dist;
    size_t balance_penalty; // |dX - dZ|
    size_t removed;

    /** Surf-Deformer: maximize min distance, then balance, then thrift. */
    bool
    betterBalanced(const CandidateScore &o) const
    {
        if (min_dist != o.min_dist)
            return min_dist > o.min_dist;
        if (balance_penalty != o.balance_penalty)
            return balance_penalty < o.balance_penalty;
        return removed < o.removed;
    }

    /** ASC-S: minimize the number of disabled qubits only. */
    bool
    betterMinimalDisable(const CandidateScore &o) const
    {
        return removed < o.removed;
    }
};

} // namespace

void
DeformState::grow(Side side)
{
    switch (side) {
      case Side::North:
        origin.y -= 2;
        dz += 1;
        break;
      case Side::South:
        dz += 1;
        break;
      case Side::West:
        origin.x -= 2;
        dx += 1;
        break;
      case Side::East:
        dx += 1;
        break;
    }
}

int
DeformState::defectsInNextLayer(Side side) const
{
    // Band of lattice sites the prospective layer would occupy.
    int x0 = origin.x, x1 = origin.x + 2 * dx;
    int y0 = origin.y, y1 = origin.y + 2 * dz;
    switch (side) {
      case Side::North:
        y1 = y0;
        y0 -= 2;
        break;
      case Side::South:
        y0 = y1;
        y1 += 2;
        break;
      case Side::West:
        x1 = x0;
        x0 -= 2;
        break;
      case Side::East:
        x0 = x1;
        x1 += 2;
        break;
    }
    int count = 0;
    for (const Coord &s : defects)
        if (s.x >= x0 && s.x <= x1 && s.y >= y0 && s.y <= y1)
            ++count;
    return count;
}

DeformedPatch
DeformState::build(DeformTrace *trace) const
{
    DeformedPatch out;
    CodePatch p = rectangularPatch(dx, dz, origin);

    // Partition the in-footprint defects by site kind and location.
    std::vector<Coord> interior_syn, boundary_syn, interior_data;
    std::set<Coord> boundary_data;
    for (const Coord &s : defects) {
        if (s.isDataSite()) {
            if (!p.hasData(s))
                continue;
            if (isInteriorData(p, s))
                interior_data.push_back(s);
            else
                boundary_data.insert(s);
        } else if (s.isCheckSite()) {
            if (checkAt(p, s) < 0)
                continue;
            if (isInteriorSyndrome(p, s))
                interior_syn.push_back(s);
            else
                boundary_syn.push_back(s);
        }
    }

    // --- Defect Removal subroutine (paper Alg. 1) -----------------------
    // Interior syndrome defects.
    for (const Coord &a : interior_syn) {
        const int idx = checkAt(p, a);
        if (idx < 0)
            continue; // consumed by an earlier removal
        if (syndromeViaDataRemoval) {
            // ASC-S: remove all adjacent data qubits with DataQ_RM even
            // though they are intact (paper Sec. V-A comparison).
            const auto support = p.checks()[static_cast<size_t>(idx)].support;
            for (const Coord &q : support) {
                if (!p.hasData(q))
                    continue;
                if (isInteriorData(p, q))
                    dataQRm(p, q, trace);
                else
                    boundary_data.insert(q);
            }
            // The defective ancilla's check may survive with shrunk
            // support; drop it if it is still present.
            if (const int left = checkAt(p, a); left >= 0) {
                std::vector<bool> dead(p.checks().size(), false);
                dead[static_cast<size_t>(left)] = true;
                p.compactChecks(dead);
            }
        } else {
            syndromeQRm(p, a, trace);
        }
    }
    // Interior data defects (commute with syndrome removals).
    for (const Coord &q : interior_data)
        if (p.hasData(q))
            dataQRm(p, q, trace);

    // Boundary syndrome defects: delete the check, pin one support qubit.
    for (const Coord &a : boundary_syn) {
        const int idx = checkAt(p, a);
        if (idx < 0)
            continue;
        const auto support = p.checks()[static_cast<size_t>(idx)].support;
        const CandidateScore worst{0, ~size_t{0}, ~size_t{0}};
        CandidateScore best = worst;
        Coord best_pin = support.front();
        for (const Coord &pin : support) {
            CodePatch cand = p;
            DeformTrace scratch;
            const auto removed = removeBoundaryCheck(cand, a, pin, &scratch);
            const auto [dxc, dzc] = candidateDistances(std::move(cand));
            const CandidateScore score{
                std::min(dxc, dzc),
                dxc > dzc ? dxc - dzc : dzc - dxc,
                removed.size()};
            const bool better = (policy == RemovalPolicy::Balanced)
                                    ? score.betterBalanced(best)
                                    : score.betterMinimalDisable(best);
            if (best.removed == worst.removed || better) {
                best = score;
                best_pin = pin;
            }
        }
        removeBoundaryCheck(p, a, best_pin, trace);
    }

    // Boundary data defects: PatchQ_RM with the policy's fix choice.
    for (const Coord &q : boundary_data) {
        if (!p.hasData(q))
            continue;
        const CandidateScore worst{0, ~size_t{0}, ~size_t{0}};
        CandidateScore best = worst;
        PauliType best_fix = PauliType::Z;
        // ASC-S's deterministic preference (paper fig. 8a) is encoded by
        // evaluating Z first and breaking ties toward the earlier entry.
        for (const PauliType fix : {PauliType::Z, PauliType::X}) {
            CodePatch cand = p;
            DeformTrace scratch;
            const auto removed = pinData(cand, q, fix, &scratch);
            const auto [dxc, dzc] = candidateDistances(std::move(cand));
            const CandidateScore score{
                std::min(dxc, dzc),
                dxc > dzc ? dxc - dzc : dzc - dxc,
                removed.size()};
            const bool better = (policy == RemovalPolicy::Balanced)
                                    ? score.betterBalanced(best)
                                    : score.betterMinimalDisable(best);
            if (best.removed == worst.removed || better) {
                best = score;
                best_fix = fix;
            }
        }
        pinData(p, q, best_fix, trace);
    }

    p.recomputeSupers();
    const DistanceResults res = graphDistances(p);
    out.distX = res.x.distance;
    out.distZ = res.z.distance;
    out.alive = out.distX > 0 && out.distZ > 0;
    if (out.alive)
        refreshLogicals(p, res.x, res.z);
    out.patch = std::move(p);
    return out;
}

} // namespace surf
