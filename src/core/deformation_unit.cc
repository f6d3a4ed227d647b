#include "core/deformation_unit.hh"

#include "util/logging.hh"

namespace surf {

DeformOutcome
DeformationUnit::apply(const std::set<Coord> &defects) const
{
    DeformOutcome out;
    DeformState state;
    state.origin = config_.origin;
    state.dx = config_.d;
    state.dz = config_.d;
    state.defects = defects;
    state.policy = config_.policy;
    state.syndromeViaDataRemoval = config_.syndromeViaDataRemoval;

    // --- Defect Removal subroutine (Alg. 1) ---
    out.result = state.build(&out.trace);

    if (!config_.enlargement) {
        out.restored = out.result.distX >= static_cast<size_t>(config_.d) &&
                       out.result.distZ >= static_cast<size_t>(config_.d);
        return out;
    }

    // --- Adaptive Enlargement subroutine (Alg. 2) ---
    // Each footprint is built once. The trace reports the removals of the
    // final footprint only (not those of intermediate rebuilds), followed
    // by the PatchQ_ADD records in growth order.
    DeformTrace add_records;
    const auto side_index = [](Side s) { return static_cast<size_t>(s); };
    auto grow_axis = [&](Side a, Side b) -> bool {
        // find_layer: among the sides still within the Delta_d budget,
        // prefer the prospective layer containing fewer defects.
        const bool can_a = out.grown[side_index(a)] < config_.deltaD;
        const bool can_b = out.grown[side_index(b)] < config_.deltaD;
        if (!can_a && !can_b)
            return false;
        Side pick;
        if (can_a && can_b) {
            pick = (state.defectsInNextLayer(b) < state.defectsInNextLayer(a))
                       ? b
                       : a;
        } else {
            pick = can_a ? a : b;
        }
        state.grow(pick);
        out.grown[side_index(pick)] += 1;
        // The layer introduces one check per data qubit along its side: a
        // North/South layer is dx long, an East/West layer dz long.
        const bool north_south = pick == Side::North || pick == Side::South;
        add_records.add({std::string("PatchQ_ADD layer ") + sideName(pick),
                         0, north_south ? state.dx : state.dz, 0, 0});
        return true;
    };

    const auto target = static_cast<size_t>(config_.d);
    bool progress = true;
    while (progress && (out.result.distX < target ||
                        out.result.distZ < target)) {
        progress = false;
        if (out.result.distX < target)
            progress |= grow_axis(Side::East, Side::West);
        if (out.result.distZ < target)
            progress |= grow_axis(Side::South, Side::North);
        if (progress) {
            out.trace.clear();
            out.result = state.build(&out.trace);
        }
    }
    for (const auto &r : add_records.records())
        out.trace.add(r);
    out.restored = out.result.distX >= target && out.result.distZ >= target;
    return out;
}

} // namespace surf
