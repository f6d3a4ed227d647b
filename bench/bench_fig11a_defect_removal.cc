/**
 * @file
 * Regenerates paper fig. 11(a): logical error rate (per round) versus the
 * number of defective qubits, comparing the untreated surface code
 * (defective qubits stay at saturated error rates; decoder unaware) with
 * Surf-Deformer's defect removal. Defective qubits arrive in cosmic-ray
 * style clusters.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/deformation_unit.hh"
#include "decode/memory_experiment.hh"
#include "lattice/rotated.hh"
#include "util/rng.hh"

using namespace surf;

int
main(int argc, char **argv)
{
    const double scale = benchutil::scale(argc, argv);
    benchutil::header("Fig. 11(a): logical error rate vs #defective qubits "
                      "(surface code untreated vs Surf-Deformer removal)");
    std::printf("circuit noise p = 1e-3, defect rate 0.5, memory-Z, "
                "MWPM decoding; union-find above 120 fired detectors "
                "(most untreated shots)\n\n");
    std::printf("%4s %4s | %-24s | %-24s\n", "d", "#def", "untreated p_L/round",
                "Surf-Deformer p_L/round");

    Rng rng(2024);
    for (int d : {9, 13}) {
        const auto shots = static_cast<uint64_t>(
            (d == 9 ? 8000 : 2500) * scale);
        for (int k : {0, 4, 8, 16, 24}) {
            const CodePatch pristine = squarePatch(d);
            const auto defects =
                k ? benchutil::clusteredDefects(pristine, k, rng)
                  : std::set<Coord>{};

            // Untreated: defective sites saturate, decoder unaware.
            MemoryExperimentConfig cfg;
            cfg.spec.rounds = d;
            cfg.noise.p = 1e-3;
            cfg.noise.defectiveSites = defects;
            cfg.maxShots = shots;
            cfg.targetFailures = static_cast<uint64_t>(60 * scale);
            cfg.seed = 7 + static_cast<uint64_t>(k);
            const auto untreated = runMemoryExperiment(pristine, cfg);

            // Surf-Deformer removal (no enlargement: pure QEC capability
            // of the deformed code, as in the paper's ablation).
            DeformConfig dc;
            dc.d = d;
            dc.deltaD = 0;
            dc.enlargement = false;
            const auto deformed = DeformationUnit(dc).apply(defects);
            std::string sd_text;
            if (!deformed.result.alive) {
                sd_text = "destroyed";
            } else {
                MemoryExperimentConfig cfg2 = cfg;
                cfg2.noise.defectiveSites.clear();
                const auto removed =
                    runMemoryExperiment(deformed.result.patch, cfg2);
                char buf[64];
                std::snprintf(buf, sizeof buf, "%.3e (dist %zu)",
                              removed.pRound,
                              std::min(deformed.result.distX,
                                       deformed.result.distZ));
                sd_text = buf;
            }
            std::printf("%4d %4d | %-24.3e | %-24s\n", d, k,
                        untreated.pRound, sd_text.c_str());
        }
        std::printf("\n");
    }
    std::printf("Expected shape (paper): untreated codes plateau at high\n"
                "error rates once defects appear; removed codes track the\n"
                "rate of a pristine code at the reduced distance.\n");
    return 0;
}
