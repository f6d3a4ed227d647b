/**
 * @file
 * Compile-time layout planning example (paper Sec. VI): given a program
 * profile and the dynamic-defect model, pick the code distance d for the
 * target retry risk and the extra inter-space Delta_d for the target
 * block probability, and account physical qubits across layout schemes.
 */

#include <cstdio>

#include "endtoend/retry_risk.hh"

using namespace surf;

int
main()
{
    const BenchmarkProgram prog = paperPrograms()[5]; // QFT-100-20
    std::printf("planning layout for %s (%lu CX, %lu T, %d qubits)\n\n",
                prog.name.c_str(), static_cast<unsigned long>(prog.numCx),
                static_cast<unsigned long>(prog.numT), prog.numQubits);

    // A pre-calibrated logical error model (run bench_table2 to
    // re-calibrate from Monte Carlo).
    LogicalErrorModel model;
    model.A = 0.1;
    model.Lambda = 10.0;

    std::printf("%3s | %-12s %-12s %-8s\n", "d", "retry risk", "qubits",
                "Delta_d");
    int chosen = -1;
    for (int d = 15; d <= 33; d += 2) {
        RetryRiskConfig cfg;
        cfg.strategy = Strategy::SurfDeformer;
        cfg.d = d;
        cfg.errorModel = model;
        const auto r = estimateRetryRisk(prog, cfg);
        std::printf("%3d | %-12.3e %-12.3e %-8d\n", d, r.retryRisk,
                    static_cast<double>(r.physicalQubits), r.deltaD);
        if (chosen < 0 && r.retryRisk <= 0.001)
            chosen = d;
    }
    if (chosen > 0)
        std::printf("\nsmallest d with retry risk <= 0.1%%: d = %d\n",
                    chosen);

    std::printf("\nscheme comparison at the chosen distance:\n");
    LayoutGenerator gen{DefectModelParams{}};
    const int d = chosen > 0 ? chosen : 27;
    for (const Strategy s :
         {Strategy::LatticeSurgery, Strategy::Q3deRevised,
          Strategy::SurfDeformer}) {
        const auto plan =
            gen.planChecked(prog.numQubits, d, schemeOf(s)).value();
        std::printf("  %-16s: %.3e physical qubits (Delta_d=%d, "
                    "p_block=%.4f)\n",
                    strategyName(s),
                    static_cast<double>(plan.physicalQubits), plan.deltaD,
                    plan.pBlock);
    }
    return 0;
}
