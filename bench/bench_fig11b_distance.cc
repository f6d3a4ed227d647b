/**
 * @file
 * Regenerates paper fig. 11(b): code distance after defect removal versus
 * the number of defective qubits, ASC-S versus Surf-Deformer, for
 * original code distances d in {9, 15, 21, 27}. Pure deformation-engine
 * measurements (no Monte-Carlo noise).
 */

#include <cstdio>

#include "baselines/strategies.hh"
#include "bench_util.hh"
#include "lattice/rotated.hh"
#include "util/rng.hh"

using namespace surf;

int
main(int argc, char **argv)
{
    const double scale = benchutil::scale(argc, argv);
    const int samples = std::max(1, static_cast<int>(4 * scale));
    benchutil::header("Fig. 11(b): code distance after removal vs "
                      "#defective qubits (ASC-S vs Surf-Deformer)");
    std::printf("removal-only (no enlargement); mean over %d defect "
                "samples\n\n", samples);
    std::printf("%4s %6s | %10s %14s\n", "d", "#def", "ASC-S", "Surf-Deformer");

    for (int d : {9, 15, 21, 27}) {
        const CodePatch pristine = squarePatch(d);
        for (int k : {0, 10, 20, 30, 40, 50}) {
            double sum_ascs = 0, sum_sd = 0;
            for (int s = 0; s < samples; ++s) {
                Rng rng(static_cast<uint64_t>(d) * 1000003 +
                        static_cast<uint64_t>(k) * 101 +
                        static_cast<uint64_t>(s));
                const auto defects =
                    benchutil::clusteredDefects(pristine, k, rng);
                const auto a =
                    applyStrategyChecked(Strategy::Ascs, d, 0, defects)
                        .value();
                auto sd = applyStrategyChecked(Strategy::SurfDeformer, d, 0,
                                               defects)
                              .value();
                sum_ascs += static_cast<double>(a.alive ? a.minDist() : 0);
                sum_sd += static_cast<double>(sd.alive ? sd.minDist() : 0);
            }
            std::printf("%4d %6d | %10.1f %14.1f\n", d, k,
                        sum_ascs / samples, sum_sd / samples);
        }
        std::printf("\n");
    }
    std::printf("Expected shape (paper): Surf-Deformer preserves more\n"
                "distance than ASC-S, with a growing gap for larger codes\n"
                "and more defects.\n");
    return 0;
}
