/**
 * @file
 * Regenerates the layout generator's Sec.-VI worked example and tabulates
 * Delta_d and block probabilities across code distances, plus the
 * inter-space qubit overhead comparison of fig. 10.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/layout_gen.hh"

using namespace surf;

int
main()
{
    benchutil::header("Sec. VI layout math: Delta_d selection and "
                      "inter-space overheads");
    const DefectModelParams model;
    LayoutGenerator gen(model);

    std::printf("worked example (paper): d=27, rho=0.1/26 Hz, T=25 ms, "
                "D=4\n");
    std::printf("  lambda        = %.4f (paper ~0.14)\n",
                model.lambdaForPatch(27));
    std::printf("  Delta_d       = %d  (paper: 4)\n",
                gen.chooseDeltaDChecked(27).value());
    std::printf("  p_block       = %.4f (paper ~0.0089 < 0.01)\n\n",
                gen.blockProbability(27, 4));

    std::printf("%4s | %8s %10s\n", "d", "Delta_d", "p_block");
    for (int d = 9; d <= 51; d += 6) {
        const int delta = gen.chooseDeltaDChecked(d).value();
        std::printf("%4d | %8d %10.4f\n", d, delta,
                    gen.blockProbability(d, delta));
    }

    std::printf("\nInter-space overhead at N=100 logical qubits:\n");
    std::printf("%-16s %6s %14s %10s\n", "scheme", "space", "phys qubits",
                "vs LS");
    const int d = 27;
    const auto ls =
        gen.planChecked(100, d, InterspaceScheme::LatticeSurgery).value();
    for (auto scheme :
         {InterspaceScheme::LatticeSurgery, InterspaceScheme::Q3de,
          InterspaceScheme::Q3deRevised, InterspaceScheme::SurfDeformer}) {
        const auto p = gen.planChecked(100, d, scheme).value();
        const char *name;
        switch (scheme) {
          case InterspaceScheme::LatticeSurgery: name = "LatticeSurgery"; break;
          case InterspaceScheme::Q3de:           name = "Q3DE"; break;
          case InterspaceScheme::Q3deRevised:    name = "Q3DE* (2d)"; break;
          default:                               name = "Surf-Deformer"; break;
        }
        std::printf("%-16s %6d %14.3e %9.2fx\n", name,
                    LayoutGenerator::interspace(d, p.deltaD, scheme),
                    static_cast<double>(p.physicalQubits),
                    static_cast<double>(p.physicalQubits) /
                        static_cast<double>(ls.physicalQubits));
    }
    std::printf("\nExpected (paper fig. 10): Q3DE* costs ~2.25x of LS;\n"
                "Surf-Deformer stays within ~1.2-1.4x.\n");
    return 0;
}
