#include "baselines/strategies.hh"

#include "lattice/distance.hh"
#include "lattice/rotated.hh"
#include "util/logging.hh"

namespace surf {

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::LatticeSurgery: return "Lattice Surgery";
      case Strategy::Ascs:           return "ASC-S";
      case Strategy::Q3de:           return "Q3DE";
      case Strategy::Q3deRevised:    return "Q3DE*";
      case Strategy::SurfDeformer:   return "Surf-Deformer";
    }
    return "?";
}

InterspaceScheme
schemeOf(Strategy s)
{
    switch (s) {
      case Strategy::LatticeSurgery: return InterspaceScheme::LatticeSurgery;
      case Strategy::Ascs:           return InterspaceScheme::LatticeSurgery;
      case Strategy::Q3de:           return InterspaceScheme::Q3de;
      case Strategy::Q3deRevised:    return InterspaceScheme::Q3deRevised;
      case Strategy::SurfDeformer:   return InterspaceScheme::SurfDeformer;
    }
    return InterspaceScheme::LatticeSurgery;
}

StatusOr<StrategyOutcome>
applyStrategyChecked(Strategy s, int d, int delta_d,
                     const std::set<Coord> &defects)
{
    if (d < 2 || d > 512)
        return Status::invalidArgument(
            "applyStrategy: code distance d=" + std::to_string(d) +
            " out of range [2, 512]");
    if (delta_d < 0)
        return Status::invalidArgument(
            "applyStrategy: delta_d must be >= 0, got " +
            std::to_string(delta_d));
    StrategyOutcome out;
    switch (s) {
      case Strategy::LatticeSurgery:
      case Strategy::Q3de:
      case Strategy::Q3deRevised: {
        // No removal: defective qubits stay inside the code. The residual
        // defect set saturates local error rates; the structural distance
        // of the patch is unchanged (Q3DE additionally doubles the patch,
        // handled by the caller through the layout scheme / blocking).
        CodePatch p = squarePatch(d);
        if (s != Strategy::LatticeSurgery && !defects.empty()) {
            // Q3DE: fixed enlargement to 2d x 2d regardless of pattern.
            p = rectangularPatch(2 * d, 2 * d);
            out.grownLayers = 2 * d;
        }
        for (const Coord &c : defects)
            if (c.x >= p.xMin() - 1 && c.x <= p.xMax() + 1 &&
                c.y >= p.yMin() - 1 && c.y <= p.yMax() + 1)
                out.residualDefects.insert(c);
        const DistanceResults dist = graphDistances(p);
        out.distX = dist.x.distance;
        out.distZ = dist.z.distance;
        out.alive = out.distX > 0 && out.distZ > 0;
        out.patch = std::move(p);
        return out;
      }
      case Strategy::Ascs: {
        DeformConfig cfg;
        cfg.d = d;
        cfg.deltaD = 0;
        cfg.policy = RemovalPolicy::MinimalDisable;
        cfg.enlargement = false;
        cfg.syndromeViaDataRemoval = true;
        const auto res = DeformationUnit(cfg).apply(defects);
        out.distX = res.result.distX;
        out.distZ = res.result.distZ;
        out.alive = res.result.alive;
        out.grownLayers = 0;
        out.patch = res.result.patch;
        return out;
      }
      case Strategy::SurfDeformer: {
        DeformConfig cfg;
        cfg.d = d;
        cfg.deltaD = delta_d;
        cfg.policy = RemovalPolicy::Balanced;
        cfg.enlargement = true;
        const auto res = DeformationUnit(cfg).apply(defects);
        out.distX = res.result.distX;
        out.distZ = res.result.distZ;
        out.alive = res.result.alive;
        out.grownLayers = res.totalGrown();
        out.patch = res.result.patch;
        return out;
      }
    }
    return Status::invalidArgument(
        "applyStrategy: unknown Strategy value " +
        std::to_string(static_cast<int>(s)));
}

} // namespace surf
