#include "core/layout_gen.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/stats.hh"

namespace surf {

double
DefectModelParams::lambdaForPatch(int d) const
{
    // A distance-d patch holds roughly 2 d^2 physical qubits.
    return 2.0 * d * d * eventRatePerQubitSec * durationSec;
}

double
LayoutGenerator::blockProbability(int d, int delta_d) const
{
    SURF_ASSERT(delta_d >= 0);
    const double lambda = model_.lambdaForPatch(d);
    const unsigned absorbable =
        static_cast<unsigned>(delta_d / model_.regionDiameter);
    return poissonTail(lambda, absorbable);
}

StatusOr<int>
LayoutGenerator::chooseDeltaDChecked(int d, double alpha_block) const
{
    if (d < 3)
        return Status::invalidArgument("code distance d = " +
                                       std::to_string(d) + " < 3");
    if (!(alpha_block > 0.0 && alpha_block <= 1.0))
        return Status::invalidArgument(
            "alpha_block = " + std::to_string(alpha_block) +
            " outside (0, 1]");
    for (int delta = 0; delta <= 64 * model_.regionDiameter; ++delta)
        if (blockProbability(d, delta) <= alpha_block)
            return delta;
    return Status::invalidArgument(
        "no Delta_d below 64 regions satisfies alpha_block = " +
        std::to_string(alpha_block));
}

int
LayoutGenerator::interspace(int d, int delta_d, InterspaceScheme scheme)
{
    switch (scheme) {
      case InterspaceScheme::LatticeSurgery:
      case InterspaceScheme::Q3de:
        return d;
      case InterspaceScheme::Q3deRevised:
        return 2 * d;
      case InterspaceScheme::SurfDeformer:
        return d + delta_d;
    }
    return d;
}

StatusOr<LayoutPlan>
LayoutGenerator::planChecked(int num_logical, int d, InterspaceScheme scheme,
                             double alpha_block) const
{
    if (num_logical < 1)
        return Status::invalidArgument("num_logical = " +
                                       std::to_string(num_logical) + " < 1");
    if (d < 3)
        return Status::invalidArgument("code distance d = " +
                                       std::to_string(d) + " < 3");
    LayoutPlan out;
    out.numLogical = num_logical;
    out.d = d;
    out.scheme = scheme;
    if (scheme == InterspaceScheme::SurfDeformer) {
        StatusOr<int> delta = chooseDeltaDChecked(d, alpha_block);
        if (!delta.ok())
            return delta.status();
        out.deltaD = *delta;
    } else {
        out.deltaD = 0;
    }
    out.pBlock = (scheme == InterspaceScheme::SurfDeformer)
                     ? blockProbability(d, out.deltaD)
                     : blockProbability(d, 0);

    out.gridCols = static_cast<int>(std::ceil(std::sqrt(num_logical)));
    out.gridRows =
        (num_logical + out.gridCols - 1) / out.gridCols;

    const int s = interspace(d, out.deltaD, scheme);
    // Enclosed area in data-site units, with an inter-space margin all
    // around so boundary qubits can route as well; two physical qubits
    // (data + measurement) per site.
    const long w = static_cast<long>(out.gridCols) * (d + s) + s;
    const long h = static_cast<long>(out.gridRows) * (d + s) + s;
    out.physicalQubits = static_cast<size_t>(2L * w * h);
    return out;
}

} // namespace surf
