/**
 * @file
 * Strategy comparison example on a single defect pattern: what each
 * mitigation strategy (ASC-S, Q3DE, Surf-Deformer) does to the code, its
 * distances and its qubit cost (paper fig. 1 in miniature).
 */

#include <cstdio>

#include "baselines/strategies.hh"
#include "defects/defect_sampler.hh"
#include "lattice/rotated.hh"

using namespace surf;

int
main()
{
    const int d = 9;
    // One cosmic-ray strike near the middle of the patch.
    const auto sites = DefectSampler::regionSites({8, 8}, 3);
    std::printf("distance-%d patch struck by a %zu-site burst around "
                "(8,8)\n\n", d, sites.size());

    for (const Strategy s :
         {Strategy::LatticeSurgery, Strategy::Ascs, Strategy::Q3de,
          Strategy::SurfDeformer}) {
        const auto out = applyStrategyChecked(s, d, 4, sites).value();
        std::printf("%-16s: distance %zu/%zu, %zu data qubits, "
                    "%zu residual defects, %d layers grown\n",
                    strategyName(s), out.distX, out.distZ,
                    out.patch.numData(), out.residualDefects.size(),
                    out.grownLayers);
    }

    std::printf("\nSurf-Deformer is the only strategy that removes the "
                "defects AND restores the\ncode distance with a bounded "
                "footprint (Q3DE doubles the patch but keeps the\ndefects "
                "inside; ASC-S removes them but cannot recover the lost "
                "distance).\n");
    return 0;
}
